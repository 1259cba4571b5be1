/// Workload `admission-churn`: the switch's control plane under steady
/// admit/release churn.
///
/// A 64-node star in 4 cells of 16 (traffic stays inside a cell), ADPS,
/// constrained deadlines — the cell workload of bench_admission_service.
/// Set-up saturates the star through an `AdmissionService`. The measured
/// phase is a closed loop of 64 clients, one per end-node: each keeps one
/// management request outstanding through `submit_async`/`Ticket`, as in
/// the paper's Request/Response exchange, and issues its next one only when
/// the reply arrived. About one op in four is a release of one of the
/// client's own channels admitted at least `kReleaseAge` ops earlier.
///
/// The end-to-end loop runs the service inline (0 workers: each op retires
/// inside `submit_async` on the single producer thread). The traced run
/// repeats the loop on the resident service with 2 shard workers
/// (dispatcher + 2 workers + producer = 4 threads). On a shared 4-vCPU host
/// its futex hand-offs swing throughput several-fold between runs of
/// identical code, so it is a per-layer figure, not a bounded one.
///
/// Correctness: the reference `AdmissionController` replays every op in the
/// service's dequeue order; decisions, channel IDs, deadline partitions,
/// rejection reasons and diagnostics, and release results must match.

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "core/admission.hpp"
#include "core/admission_backend.hpp"
#include "core/admission_service.hpp"
#include "core/partitioner.hpp"
#include "edf/feasibility.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using rtether::ChannelId;
using rtether::NodeId;
using rtether::Rng;
using rtether::Slot;
using namespace rtether::core;

constexpr const char* kScheme = "ADPS";
constexpr std::uint32_t kNodes = 64;
constexpr std::uint32_t kCellSize = 16;
constexpr unsigned kWorkers = 2;
constexpr int kSetupRepetitions = 15;
/// A client releases only channels admitted at least this many ops ago.
constexpr std::uint64_t kReleaseAge = 2048;
/// Saturation: set-up admits in bursts until one accepts fewer than this
/// share of its requests.
constexpr std::size_t kSetupBurst = 256;
constexpr double kSaturatedAcceptShare = 0.05;
constexpr int kMaxSetupBursts = 64;
/// Ops per burst when the traced run replays the stream through the
/// "batched" backend.
constexpr std::size_t kBatchedBurst = 64;
/// The traced run records the spans of one op in this many; all ops still
/// feed the per-layer histograms.
constexpr std::uint64_t kSpanEvery = 64;
/// The closed loop runs in segments of at most this many ops (or
/// `kSegmentSeconds`); between segments, with the clock stopped, the
/// segment's ops are checked against the reference. A fixed segment buffer
/// keeps memory independent of throughput.
constexpr std::size_t kSegmentOps = std::size_t{1} << 17;
constexpr double kSegmentSeconds = 0.5;

constexpr Slot kPeriods[] = {40, 60, 80, 100, 150, 200, 300};

/// A cell-local constrained-deadline request from `source`.
ChannelSpec make_spec(Rng& rng, std::uint32_t source) {
  const std::uint32_t base = source - source % kCellSize;
  auto dst = base + static_cast<std::uint32_t>(rng.index(kCellSize));
  if (dst == source) dst = base + (dst - base + 1) % kCellSize;
  const Slot period = kPeriods[rng.index(std::size(kPeriods))];
  const Slot capacity = 1 + rng.index(4);
  const Slot deadline = 2 * capacity + rng.index(period / 2 - 2 * capacity + 1);
  return ChannelSpec{NodeId{source}, NodeId{dst}, period, capacity, deadline};
}

/// One op and its outcome, compact enough to keep millions of them.
struct OpRecord {
  std::uint64_t sequence{0};
  ChannelOp op;
  bool ok{false};
  std::uint16_t id{0};
  Slot uplink{0};
  Slot downlink{0};
  std::uint8_t reason{0};
  std::uint64_t detail_hash{0};
};

void fill(OpRecord& record, const AdmitOutcome& outcome) {
  record.ok = outcome.has_value();
  if (record.ok) {
    record.id = outcome->id.value();
    record.uplink = outcome->partition.uplink;
    record.downlink = outcome->partition.downlink;
  } else {
    record.reason = static_cast<std::uint8_t>(outcome.error().reason);
    record.detail_hash = fnv_string(outcome.error().detail);
  }
}

void fill(OpRecord& record, const ReleaseOutcome& outcome) {
  record.ok = outcome.has_value();
  if (record.ok) {
    record.id = outcome->value();
  } else {
    record.reason = static_cast<std::uint8_t>(outcome.error().reason);
    record.detail_hash = fnv_string(outcome.error().detail);
  }
}

bool same_outcome(const OpRecord& a, const OpRecord& b) {
  return a.ok == b.ok && a.id == b.id && a.uplink == b.uplink &&
         a.downlink == b.downlink && a.reason == b.reason &&
         a.detail_hash == b.detail_hash;
}

/// Outcome of `op` on the reference controller, as a record.
OpRecord apply(AdmissionController& reference, const ChannelOp& op) {
  OpRecord record;
  record.op = op;
  if (op.kind == ChannelOp::Kind::kAdmit) {
    fill(record, reference.request(op.spec));
  } else {
    fill(record, reference.release(op.id));
  }
  return record;
}

std::unique_ptr<AdmissionService> make_service(unsigned workers) {
  AdmissionServiceConfig config;
  config.workers = workers;
  return std::make_unique<AdmissionService>(kNodes, make_partitioner(kScheme),
                                            config);
}

/// The set-up stream: bursts of cell-local admits until the star saturates
/// (at most `kMaxSetupBursts`). Decisions are deterministic, so the stream
/// is a pure function of the seed; `records` receives every op with its
/// outcome.
void saturate(AdmissionService& service, Rng& rng,
              std::vector<OpRecord>& records) {
  for (int burst = 0; burst < kMaxSetupBursts; ++burst) {
    std::vector<ChannelOp> ops;
    ops.reserve(kSetupBurst);
    for (std::size_t i = 0; i < kSetupBurst; ++i) {
      const auto source = static_cast<std::uint32_t>(rng.index(kNodes));
      ops.push_back(ChannelOp::admit(make_spec(rng, source)));
    }
    const ChurnResult result = service.submit(ops);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      OpRecord record;
      record.sequence = records.size();
      record.op = ops[i];
      fill(record, result.admissions[i]);
      records.push_back(record);
    }
    if (static_cast<double>(result.accepted()) <
        kSaturatedAcceptShare * static_cast<double>(kSetupBurst)) {
      return;
    }
  }
}

struct Client {
  struct Live {
    ChannelId id;
    std::uint64_t admitted_at;
  };
  Rng rng{0};
  /// This client's live channels, oldest first.
  std::vector<Live> live;
  Ticket ticket;
  /// Index of the outstanding op in the segment's records, and in the
  /// whole stream (its trace id).
  std::size_t record{0};
  std::uint64_t op_index{0};
  std::int64_t submitted_ns{0};
  std::int64_t submit_done_ns{0};
  /// Set by the completion callback (on the service's retiring thread, or
  /// inline when the op retired inside `submit_async`); 0 while pending.
  std::atomic<std::int64_t> done_ns{0};
};

/// The clients of one closed loop plus the global op counter the release
/// age is measured in.
struct ClientPool {
  std::vector<Client> clients;
  std::uint64_t ops_issued{0};

  ClientPool(std::uint64_t stream_seed, const std::vector<OpRecord>& setup)
      : clients(kNodes) {
    for (std::uint32_t c = 0; c < kNodes; ++c) {
      clients[c].rng = Rng(stream_seed ^ (0x1000'0000ULL + c));
    }
    // Set-up channels sourced at a node belong to its client.
    for (std::size_t i = 0; i < setup.size(); ++i) {
      if (setup[i].ok) {
        clients[setup[i].op.spec.source.value()].live.push_back(
            Client::Live{ChannelId{setup[i].id}, i});
      }
    }
    ops_issued = setup.size();
  }
};

/// Closed-loop figures, kept per segment. The reported throughput is the
/// best segment's and each latency quantile the lowest any segment saw: the
/// host this runs on slows whole stretches of seconds at random (other
/// tenants), and the best of many segments is what stays put.
struct LoopStats {
  std::uint64_t ops{0};
  double seconds{0.0};
  Histogram segment_latency_us;
  std::vector<double> segment_rates;
  std::vector<double> segment_p50_us;
  std::vector<double> segment_p90_us;
  Histogram submit_us;
  Histogram wait_us;
};

/// One segment of the closed loop: every client keeps one request
/// outstanding until `seconds` elapsed, then the segment drains. Appends
/// each op to `records` (segment-local, submission order).
void closed_loop(AdmissionService& service, ClientPool& pool,
                 std::vector<OpRecord>& records, double seconds,
                 LoopStats& stats) {
  auto& clients = pool.clients;
  const bool traced = tracer().enabled();

  const auto issue = [&](std::uint32_t c) {
    Client& client = clients[c];
    ChannelOp op;
    std::size_t aged = 0;
    while (aged < client.live.size() &&
           client.live[aged].admitted_at + kReleaseAge <= pool.ops_issued) {
      ++aged;
    }
    if (aged > 0 && client.rng.index(4) == 0) {
      const auto victim = client.rng.index(aged);
      op = ChannelOp::release(client.live[victim].id);
      client.live.erase(client.live.begin() +
                        static_cast<std::ptrdiff_t>(victim));
    } else {
      op = ChannelOp::admit(make_spec(client.rng, c));
    }
    client.record = records.size();
    OpRecord record;
    record.op = op;
    records.push_back(record);
    client.op_index = pool.ops_issued++;
    client.done_ns.store(0, std::memory_order_relaxed);
    const bool sampled = client.op_index % kSpanEvery == 0;
    client.submitted_ns = now_ns();
    {
      std::optional<ScopedSpan> span;
      if (sampled) span.emplace("core.submit_async", client.op_index);
      client.ticket = service.submit_async(op);
    }
    client.submit_done_ns = now_ns();
    client.ticket.on_complete([&client] {
      client.done_ns.store(now_ns(), std::memory_order_release);
    });
  };

  const auto complete = [&](std::uint32_t c, std::int64_t done_ns) {
    Client& client = clients[c];
    OpRecord& record = records[client.record];
    record.sequence = client.ticket.sequence();
    if (client.ticket.kind() == ChannelOp::Kind::kAdmit) {
      const AdmitOutcome& outcome = client.ticket.admit_outcome();
      fill(record, outcome);
      if (outcome.has_value()) {
        client.live.push_back(Client::Live{outcome->id, client.op_index});
      }
    } else {
      fill(record, client.ticket.release_outcome());
    }
    stats.segment_latency_us.add(
        static_cast<double>(done_ns - client.submitted_ns) / 1e3);
    if (traced) {
      stats.submit_us.add(
          static_cast<double>(client.submit_done_ns - client.submitted_ns) /
          1e3);
      stats.wait_us.add(
          static_cast<double>(done_ns - client.submit_done_ns) / 1e3);
      // The wait happens on the service's threads; record it as a span of
      // the op's trace from the producer's timestamps.
      if (client.op_index % kSpanEvery == 0) {
        tracer().record("core.ticket_wait", client.submit_done_ns, done_ns,
                        client.op_index);
      }
    }
    client.ticket = Ticket{};
    ++stats.ops;
  };

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (std::uint32_t c = 0; c < clients.size(); ++c) issue(c);
  std::size_t outstanding = clients.size();
  bool stopping = false;
  while (outstanding > 0) {
    if (!stopping && (records.size() + clients.size() >= kSegmentOps ||
                      Clock::now() >= deadline)) {
      stopping = true;
    }
    for (std::uint32_t c = 0; c < clients.size(); ++c) {
      if (!clients[c].ticket.valid()) continue;
      const std::int64_t done_ns =
          clients[c].done_ns.load(std::memory_order_acquire);
      if (done_ns == 0) continue;
      complete(c, done_ns);
      if (stopping) {
        --outstanding;
      } else {
        issue(c);
      }
    }
  }
  stats.seconds += seconds_between(start, Clock::now());
}

/// Replays `records` (one segment, in dequeue order) through the reference
/// and returns how many outcomes differ.
std::uint64_t count_mismatches(AdmissionController& reference,
                               std::vector<OpRecord>& records) {
  std::sort(records.begin(), records.end(),
            [](const OpRecord& a, const OpRecord& b) {
              return a.sequence < b.sequence;
            });
  std::uint64_t mismatches = 0;
  for (const OpRecord& record : records) {
    if (!same_outcome(apply(reference, record.op), record)) ++mismatches;
  }
  return mismatches;
}

/// Drives `service` in closed-loop segments for `seconds` of measured time.
/// Between segments — with the clock stopped — the segment is replayed
/// through `reference` (mismatches are added to `failed`) and, when given,
/// through the batched backend in bursts of `kBatchedBurst`, timed.
struct SegmentRunner {
  AdmissionService& service;
  ClientPool& pool;
  AdmissionController& reference;
  AdmissionBackend* batched{nullptr};
  double batched_seconds{0.0};
  std::uint64_t batched_ops{0};
  std::uint64_t batched_mismatches{0};
  std::uint64_t failed{0};
  bool plant_fault{false};

  void run(double seconds, LoopStats& stats) {
    std::vector<OpRecord> records;
    records.reserve(kSegmentOps);
    double measured = 0.0;
    while (measured < seconds) {
      records.clear();
      stats.segment_latency_us = Histogram{};
      const double before = stats.seconds;
      closed_loop(service, pool, records,
                  std::min(kSegmentSeconds, seconds - measured), stats);
      const double elapsed = stats.seconds - before;
      measured += elapsed;
      stats.segment_rates.push_back(static_cast<double>(records.size()) /
                                    elapsed);
      stats.segment_p50_us.push_back(stats.segment_latency_us.quantile(0.5));
      stats.segment_p90_us.push_back(stats.segment_latency_us.quantile(0.9));
      if (plant_fault && !records.empty()) {
        records.back().ok = !records.back().ok;
        plant_fault = false;
      }
      failed += count_mismatches(reference, records);
      if (batched != nullptr) replay_batched(records);
    }
  }

  void replay_batched(const std::vector<OpRecord>& records) {
    std::vector<ChannelOp> ops;
    std::size_t want_accepted = 0;
    for (const OpRecord& record : records) {
      ops.push_back(record.op);
      if (record.op.kind == ChannelOp::Kind::kAdmit && record.ok) {
        ++want_accepted;
      }
    }
    std::size_t accepted = 0;
    const auto t0 = Clock::now();
    {
      const ScopedSpan span("core.batched_replay", 0);
      for (std::size_t i = 0; i < ops.size(); i += kBatchedBurst) {
        const std::size_t n = std::min(kBatchedBurst, ops.size() - i);
        accepted += batched->submit({ops.data() + i, n}).accepted();
      }
    }
    batched_seconds += seconds_between(t0, Clock::now());
    batched_ops += ops.size();
    if (accepted != want_accepted) ++batched_mismatches;
  }
};

struct EdfProbe {
  std::vector<double> check_ns;
  std::vector<double> commit_ns;
  std::vector<double> downdate_ns;
};

/// Times `LinkScanCache` calls from outside on every loaded link of the
/// final admitted state: each task is trial-tested and committed in
/// admission order, a few foreign candidates are trial-tested against the
/// full set, then every task is downdated out again.
EdfProbe probe_link_caches(const NetworkState& state, Rng& rng) {
  using rtether::edf::LinkScanCache;
  using rtether::edf::PseudoTask;
  using rtether::edf::TaskSet;
  EdfProbe probe;
  const auto timed = [](std::vector<double>& into, auto&& call) {
    const std::int64_t t0 = now_ns();
    call();
    into.push_back(static_cast<double>(now_ns() - t0));
  };
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    for (const LinkDirection dir :
         {LinkDirection::kUplink, LinkDirection::kDownlink}) {
      const auto tasks = state.link(NodeId{n}, dir).tasks();
      if (tasks.empty()) continue;
      TaskSet set;
      LinkScanCache cache;
      for (const PseudoTask& task : tasks) {
        rtether::edf::FeasibilityReport report;
        timed(probe.check_ns, [&] { report = cache.check_with(set, task); });
        set.add(task);
        std::optional<Slot> busy;
        if (report.scanned_bound > 0) busy = report.scanned_bound;
        timed(probe.commit_ns, [&] { cache.commit(task, busy); });
      }
      for (int trial = 0; trial < 8; ++trial) {
        const ChannelSpec spec = make_spec(rng, n);
        const PseudoTask extra{ChannelId{0xffff}, spec.period, spec.capacity,
                               spec.deadline / 2};
        timed(probe.check_ns, [&] { (void)cache.check_with(set, extra); });
      }
      for (auto it = tasks.rbegin(); it != tasks.rend(); ++it) {
        const PseudoTask task = *it;
        set.remove(task.channel);
        timed(probe.downdate_ns, [&] { cache.downdate(set, task); });
      }
    }
  }
  return probe;
}

}  // namespace

Report run_admission_churn(const Options& options) {
  Report report;
  const bool tiny = options.size == Size::kTiny;
  const std::uint64_t stream_seed = options.seed * 0x9e37'79b9'7f4a'7c15ULL + 1;
  const double seconds = tiny ? std::min(options.seconds, 0.5)
                              : options.seconds;

  // Set-up, repeated: a fresh inline service saturated from the same seed.
  // Every repetition must reach the identical state; the last one is
  // measured.
  std::vector<double> setup_seconds;
  std::unique_ptr<AdmissionService> service;
  std::vector<OpRecord> setup;
  std::vector<OpRecord> first_setup;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    service.reset();
    setup.clear();
    Rng rng(stream_seed);
    const auto t0 = Clock::now();
    {
      const ScopedSpan span("setup.saturate", 0);
      service = make_service(0);
      saturate(*service, rng, setup);
    }
    setup_seconds.push_back(seconds_between(t0, Clock::now()));
    if (rep == 0) {
      first_setup = setup;
    } else if (!std::equal(setup.begin(), setup.end(), first_setup.begin(),
                           first_setup.end(), same_outcome)) {
      report.fail("set-up repetition " + std::to_string(rep) +
                  " reached a different state");
    }
  }

  AdmissionController reference(kNodes, make_partitioner(kScheme));
  for (const OpRecord& record : setup) {
    if (!same_outcome(apply(reference, record.op), record)) {
      report.fail("set-up op " + std::to_string(record.sequence) +
                  " differs from the reference");
    }
  }
  ClientPool pool(stream_seed, setup);
  const AdmissionStats before = service->stats();
  SegmentRunner runner{*service, pool, reference};
  runner.plant_fault = options.plant_fault;

  LoopStats loop;
  double overhead_pct = 0.0;
  std::unique_ptr<AdmissionBackend> batched;
  if (options.trace) {
    // Same stream through the batched backend, brought to the set-up state.
    batched = make_admission_backend("batched", kNodes,
                                     make_partitioner(kScheme));
    std::vector<ChannelOp> ops;
    for (const OpRecord& record : setup) ops.push_back(record.op);
    (void)batched->submit(ops);
    // A third untraced, a third traced: the rate difference is the tracing
    // overhead. The last third drives the resident service below.
    runner.batched = batched.get();
    tracer().enable(false);
    LoopStats plain;
    runner.run(seconds / 3, plain);
    tracer().enable(true);
    runner.run(seconds / 3, loop);
    const double plain_rate = max_of(plain.segment_rates);
    const double traced_rate = max_of(loop.segment_rates);
    overhead_pct = (plain_rate - traced_rate) / plain_rate * 100.0;
    report.attempted += plain.ops;
  } else {
    runner.run(seconds, loop);
  }
  report.attempted += loop.ops;
  report.failed += runner.failed;
  if (runner.failed > 0) {
    report.problems.push_back(std::to_string(runner.failed) +
                              " ops differ from the reference replay");
  }
  const AdmissionStats& after = service->stats();
  const std::uint64_t admits = after.requested - before.requested;
  report.samples["setup_repetitions"] = kSetupRepetitions;
  report.samples["setup_ops"] = static_cast<double>(setup.size());
  report.samples["latency_samples"] = static_cast<double>(loop.ops);
  report.samples["segments"] =
      static_cast<double>(loop.segment_rates.size());

  if (!options.trace) {
    report.metrics["setup_s"] = median(setup_seconds);
    report.metrics["ops_per_s"] = max_of(loop.segment_rates);
    report.metrics["op_latency_p50_us"] = min_of(loop.segment_p50_us);
    report.metrics["op_latency_p90_us"] = min_of(loop.segment_p90_us);
    return report;
  }

  // --- Traced run: per-layer figures ---------------------------------------
  report.metrics["trace.overhead_pct"] = overhead_pct;
  report.metrics["core.accept_ratio"] =
      admits == 0 ? 0.0
                  : static_cast<double>(after.accepted - before.accepted) /
                        static_cast<double>(admits);
  report.metrics["edf.feasibility_tests_per_admit"] =
      admits == 0 ? 0.0
                  : static_cast<double>(after.feasibility_tests -
                                        before.feasibility_tests) /
                        static_cast<double>(admits);
  report.metrics["edf.demand_evals_per_admit"] =
      admits == 0 ? 0.0
                  : static_cast<double>(after.demand_evaluations -
                                        before.demand_evaluations) /
                        static_cast<double>(admits);
  report.metrics["core.inline_ops_per_s"] = max_of(loop.segment_rates);
  report.metrics["core.batched_ops_per_s"] =
      static_cast<double>(runner.batched_ops) / runner.batched_seconds;
  if (runner.batched_mismatches > 0) {
    report.fail("batched backend diverged in " +
                std::to_string(runner.batched_mismatches) + " segments");
  }
  {
    Rng rng(stream_seed ^ 0xedf0ULL);
    const ScopedSpan span("edf.link_cache_probe", 0);
    EdfProbe probe = probe_link_caches(service->state(), rng);
    report.metrics["edf.check_with_ns_p50"] = quantile(probe.check_ns, 0.5);
    report.metrics["edf.commit_ns_p50"] = quantile(probe.commit_ns, 0.5);
    report.metrics["edf.downdate_ns_p50"] = quantile(probe.downdate_ns, 0.5);
    report.samples["edf_check_samples"] =
        static_cast<double>(probe.check_ns.size());
  }

  // The resident pipeline: a fresh service with 2 shard workers, saturated
  // from the same seed and driven by the same closed loop.
  {
    service.reset();
    auto resident = make_service(kWorkers);
    std::vector<OpRecord> resident_setup;
    Rng rng(stream_seed);
    saturate(*resident, rng, resident_setup);
    AdmissionController resident_reference(kNodes, make_partitioner(kScheme));
    for (const OpRecord& record : resident_setup) {
      (void)apply(resident_reference, record.op);
    }
    ClientPool resident_pool(stream_seed, resident_setup);
    SegmentRunner resident_runner{*resident, resident_pool,
                                  resident_reference};
    const std::uint64_t migrations_before = resident->migrations();
    LoopStats stats;
    resident_runner.run(seconds / 3, stats);
    report.attempted += stats.ops;
    if (resident_runner.failed > 0) {
      report.failed += resident_runner.failed;
      report.problems.push_back(std::to_string(resident_runner.failed) +
                                " resident-service ops differ from the "
                                "reference replay");
    }
    report.metrics["core.resident_ops_per_s"] = max_of(stats.segment_rates);
    report.metrics["core.submit_us_p50"] = stats.submit_us.quantile(0.5);
    report.metrics["core.ticket_wait_us_p50"] = stats.wait_us.quantile(0.5);
    report.metrics["core.migrations_per_kop"] =
        static_cast<double>(resident->migrations() - migrations_before) *
        1e3 / static_cast<double>(stats.ops);
  }
  return report;
}

}  // namespace perfbench
