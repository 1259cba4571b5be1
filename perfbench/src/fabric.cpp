/// Workload `fabric-pdes`: the multi-switch fabric simulator under the
/// conservative parallel simulator.
///
/// A line of 4 switches (4 partitions, one per worker thread) with 48 nodes
/// each — the shape of bench_sim_parallel. Every node requests one RT
/// channel to a node on the next switch (the rank on that switch is drawn
/// from the seed) through `PathAdmissionController` during set-up — the
/// trunks fit about 86 of the 192, the rest are rejected — and sources
/// bursty best-effort traffic at 0.5 load. The measured phase runs
/// `ParallelSimulator` at 4 threads in fixed steps of `kStepRounds` barrier
/// rounds; one op is one step. A finished fabric run (traffic for
/// `kRunSlots` slots, then a drain) is checked off the clock and a fresh
/// one starts.
///
/// Correctness: zero deadline misses, `sent == delivered` for every
/// channel, and every run's digest equals the digest of the same fabric
/// run at `threads = 0` (the inline sequential schedule).

#include <algorithm>
#include <memory>
#include <vector>

#include "common/random.hpp"
#include "core/multihop.hpp"
#include "core/topology.hpp"
#include "harness.hpp"
#include "sim/fabric.hpp"
#include "sim/parallel.hpp"

namespace perfbench {
namespace {

using namespace rtether;

constexpr std::uint32_t kSwitches = 4;
constexpr std::uint32_t kNodesPerSwitch = 48;
constexpr std::uint32_t kTinyNodesPerSwitch = 8;
constexpr unsigned kThreads = 4;
constexpr Slot kPeriod = 40;
constexpr Slot kCapacity = 1;
constexpr Slot kDeadline = 30;
constexpr double kBestEffortLoad = 0.5;
constexpr Tick kTicksPerSlot = 16;
/// Traffic length of one fabric run, and the drain after it.
constexpr Slot kRunSlots = 4096;
constexpr Slot kDrainSlots = kDeadline + 64;
/// Barrier rounds per `run_until` step (one op).
constexpr std::uint64_t kStepRounds = 16;
constexpr int kSetupRepetitions = 15;

struct Workload {
  core::Topology topology{1, 1};
  std::vector<core::MultihopChannel> channels;
  std::vector<double> admit_us;
};

sim::SimConfig sim_config() {
  sim::SimConfig config;
  config.ticks_per_slot = kTicksPerSlot;
  // One slot of trunk propagation: the lookahead spans a slot of event work
  // per barrier round.
  config.trunk_propagation_ticks = kTicksPerSlot;
  return config;
}

/// Builds the line fabric and admits one channel per node through the
/// multihop controller: node n (on switch n mod S) → a seed-drawn rank on
/// the next switch.
Workload build_workload(std::uint64_t seed, std::uint32_t per_switch) {
  const std::uint32_t nodes = kSwitches * per_switch;
  Workload workload;
  workload.topology = core::Topology(nodes, kSwitches);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    workload.topology.attach_node(NodeId{n}, core::SwitchId{n % kSwitches});
  }
  for (std::uint32_t s = 0; s + 1 < kSwitches; ++s) {
    workload.topology.connect_switches(core::SwitchId{s},
                                       core::SwitchId{s + 1});
  }
  Rng rng(seed);
  std::vector<std::uint32_t> rank(per_switch);
  for (std::uint32_t r = 0; r < per_switch; ++r) rank[r] = r;
  rng.shuffle(rank);

  core::PathAdmissionController controller(workload.topology,
                                           core::make_path_partitioner("ADPS"));
  for (std::uint32_t n = 0; n < nodes; ++n) {
    const std::uint32_t next_switch = (n % kSwitches + 1) % kSwitches;
    const std::uint32_t dst = rank[(n / kSwitches) % per_switch] * kSwitches +
                              next_switch;
    const core::ChannelSpec spec{NodeId{n}, NodeId{dst}, kPeriod, kCapacity,
                                 kDeadline};
    const std::int64_t t0 = now_ns();
    auto admitted = controller.request(spec);
    workload.admit_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    if (admitted.has_value()) {
      workload.channels.push_back(std::move(admitted).value());
    }
  }
  return workload;
}

sim::FabricOptions fabric_options(std::uint64_t seed) {
  sim::FabricOptions options;
  options.seed = seed;
  options.traffic_stop = sim_config().slots_to_ticks(kRunSlots);
  options.with_best_effort = true;
  options.best_effort_load = kBestEffortLoad;
  options.bursty_best_effort = true;
  return options;
}

/// Digest over kernel event counts, per-partition totals, merged
/// per-channel accounting and cut-link record counts.
std::uint64_t fabric_digest(const sim::FabricNetwork& fabric) {
  std::uint64_t hash = 0xcbf2'9ce4'8422'2325ULL;
  for (std::size_t p = 0; p < fabric.partition_count(); ++p) {
    fnv_mix(hash, fabric.kernel(p).executed_events());
    const sim::SimStats& stats = fabric.partition_stats(p);
    fnv_mix(hash, stats.total_rt_delivered());
    fnv_mix(hash, stats.total_deadline_misses());
    fnv_mix(hash, stats.best_effort_sent());
    fnv_mix(hash, stats.best_effort_delivered());
  }
  for (const auto& [id, counts] : fabric.channel_counts()) {
    fnv_mix(hash, id);
    fnv_mix(hash, counts.sent);
    fnv_mix(hash, counts.delivered);
    fnv_mix(hash, counts.misses);
    fnv_mix(hash, counts.dropped);
  }
  for (const auto& trunk : fabric.trunk_traffic()) {
    fnv_mix(hash, (std::uint64_t{trunk.from} << 32) | trunk.to);
    fnv_mix(hash, trunk.records);
  }
  return hash;
}

/// One fabric run of the workload, stepped through `run_until`.
class FabricRun {
 public:
  FabricRun(const Workload& workload, std::uint64_t seed, unsigned threads)
      : fabric_(sim_config(), workload.topology, workload.channels,
                fabric_options(seed)),
        simulator_(fabric_, threads),
        step_ticks_(kStepRounds * fabric_.lookahead()),
        end_(fabric_options(seed).traffic_stop +
             sim_config().slots_to_ticks(kDrainSlots)) {}

  [[nodiscard]] bool finished() const { return now_ >= end_; }
  [[nodiscard]] Tick step_ticks() const { return step_ticks_; }

  /// Advances one step; false when the event budget ran out.
  [[nodiscard]] bool step() {
    now_ += step_ticks_;
    return simulator_.run_until(now_);
  }

  /// Advances one step in a benchmark-driven sequential loop, timing every
  /// partition's `run_round`; appends each round's slowest partition.
  [[nodiscard]] bool step_timed(std::vector<double>& round_max_us) {
    const Tick until = now_ + step_ticks_;
    while (now_ < until) {
      const Tick target = std::min(until, now_ + fabric_.lookahead());
      double slowest = 0.0;
      for (std::size_t p = 0; p < fabric_.partition_count(); ++p) {
        const std::uint64_t executed = fabric_.kernel(p).executed_events();
        const std::int64_t t0 = now_ns();
        (void)fabric_.run_round(p, target,
                                sim::Simulator::kDefaultMaxEvents - executed);
        slowest = std::max(slowest, static_cast<double>(now_ns() - t0) / 1e3);
      }
      round_max_us.push_back(slowest);
      now_ = target;
    }
    return !fabric_.failed();
  }

  [[nodiscard]] const sim::FabricNetwork& fabric() const { return fabric_; }
  [[nodiscard]] std::uint64_t rounds() const { return simulator_.rounds(); }

 private:
  sim::FabricNetwork fabric_;
  sim::ParallelSimulator simulator_;
  Tick step_ticks_;
  Tick end_;
  Tick now_{0};
};

/// Checks one finished run; every problem counts as one failure.
void check_run(const FabricRun& run, std::uint64_t reference_digest,
               Report& report) {
  const sim::FabricNetwork& fabric = run.fabric();
  std::uint64_t misses = 0;
  for (std::size_t p = 0; p < fabric.partition_count(); ++p) {
    misses += fabric.partition_stats(p).total_deadline_misses();
  }
  if (misses > 0) {
    report.fail(std::to_string(misses) + " deadline misses");
  }
  for (const auto& [id, counts] : fabric.channel_counts()) {
    if (counts.sent != counts.delivered) {
      report.fail("channel " + std::to_string(id) + " sent " +
                  std::to_string(counts.sent) + ", delivered " +
                  std::to_string(counts.delivered));
    }
  }
  if (fabric_digest(fabric) != reference_digest) {
    report.fail("fabric digest differs from the threads=0 run");
  }
}

struct Phase {
  std::uint64_t steps{0};
  double seconds{0.0};
};

}  // namespace

Report run_fabric_pdes(const Options& options) {
  Report report;
  const bool tiny = options.size == Size::kTiny;
  const std::uint32_t per_switch = tiny ? kTinyNodesPerSwitch : kNodesPerSwitch;
  const double seconds = tiny ? std::min(options.seconds, 0.5)
                              : options.seconds;
  const std::uint64_t seed = options.seed * 0x9e37'79b9'7f4a'7c15ULL + 7;

  // Set-up, repeated: admission of every channel plus construction of the
  // first fabric run (partitions, kernels, the simulator's worker threads).
  std::vector<double> setup_seconds;
  Workload workload;
  std::unique_ptr<FabricRun> run;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    run.reset();
    const auto t0 = Clock::now();
    {
      const ScopedSpan span("setup.admit_and_build", 0);
      workload = build_workload(seed, per_switch);
      run = std::make_unique<FabricRun>(workload, seed, kThreads);
    }
    setup_seconds.push_back(seconds_between(t0, Clock::now()));
  }
  report.samples["channels"] = static_cast<double>(workload.channels.size());
  report.samples["setup_repetitions"] = kSetupRepetitions;

  // The reference, off the clock: the same fabric run at threads = 0 with
  // the same steps. Its time is the sequential rate of the traced run.
  FabricRun reference(workload, seed, 0);
  const auto seq_start = Clock::now();
  std::uint64_t seq_steps = 0;
  while (!reference.finished()) {
    if (!reference.step()) {
      report.fail("sequential fabric run exhausted its event budget");
      break;
    }
    ++seq_steps;
  }
  const double seq_seconds = seconds_between(seq_start, Clock::now());
  std::uint64_t reference_digest = fabric_digest(reference.fabric());
  check_run(reference, reference_digest, report);
  if (options.plant_fault) reference_digest ^= 1;

  // Step k of every fabric run is the same work, so each step index keeps
  // its own sample and reports its best time: the host this runs on slows
  // whole stretches of seconds at random (other tenants), and the best of
  // many runs of identical work is what stays put.
  std::vector<std::vector<double>> step_us(seq_steps);
  std::uint64_t checked_runs = 0;
  const auto measure = [&](double budget, Phase& phase) {
    const auto start = Clock::now();
    double paused = 0.0;
    std::size_t index = 0;
    while (seconds_between(start, Clock::now()) - paused < budget) {
      const std::int64_t t0 = now_ns();
      bool ok = false;
      {
        const ScopedSpan span("sim.run_until_step", phase.steps);
        ok = run->step();
      }
      const double micros = static_cast<double>(now_ns() - t0) / 1e3;
      if (index < step_us.size()) step_us[index].push_back(micros);
      ++index;
      ++phase.steps;
      if (!ok) {
        report.fail("fabric run exhausted its event budget");
        break;
      }
      if (run->finished()) {
        // Off the clock: check the finished run, start a fresh one.
        const auto pause = Clock::now();
        check_run(*run, reference_digest, report);
        ++checked_runs;
        run = std::make_unique<FabricRun>(workload, seed, kThreads);
        index = 0;
        paused += seconds_between(pause, Clock::now());
      }
    }
    phase.seconds += seconds_between(start, Clock::now()) - paused;
  };

  Phase plain;
  Phase traced;
  if (options.trace) {
    tracer().enable(false);
    measure(seconds / 4, plain);
    tracer().enable(true);
    measure(seconds / 4, traced);
  } else {
    measure(seconds, plain);
  }
  if (checked_runs == 0) {
    // No run finished inside the measured time: finish the current one off
    // the clock so the parallel digest is still checked.
    while (!run->finished()) {
      if (!run->step()) break;
    }
    check_run(*run, reference_digest, report);
  }
  const double step_slots = static_cast<double>(run->step_ticks()) /
                            static_cast<double>(kTicksPerSlot);
  const std::uint64_t steps = plain.steps + traced.steps;
  report.attempted = steps;
  report.samples["latency_samples"] = static_cast<double>(steps);
  report.samples["checked_runs"] = static_cast<double>(checked_runs);
  report.samples["steps_per_run"] = static_cast<double>(seq_steps);

  if (!options.trace) {
    std::vector<double> best;
    double run_us = 0.0;
    for (const auto& samples : step_us) {
      if (samples.empty()) continue;
      best.push_back(min_of(samples));
      run_us += best.back();
    }
    report.metrics["setup_s"] = median(setup_seconds);
    report.metrics["ops_per_s"] =
        static_cast<double>(best.size()) / (run_us / 1e6);
    report.metrics["op_latency_p50_us"] = quantile(best, 0.5);
    report.metrics["op_latency_p90_us"] = quantile(best, 0.9);
    return report;
  }

  // --- Traced run: per-layer figures ---------------------------------------
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double plain_rate = ratio(static_cast<double>(plain.steps), plain.seconds);
  const double traced_rate =
      ratio(static_cast<double>(traced.steps), traced.seconds);
  report.metrics["trace.overhead_pct"] =
      ratio(plain_rate - traced_rate, plain_rate) * 100.0;
  const double parallel_seconds = plain.seconds + traced.seconds;
  const double parallel_slots = static_cast<double>(steps) * step_slots;
  const double seq_slots = static_cast<double>(seq_steps) * step_slots;
  report.metrics["sim.slots_per_s"] = ratio(parallel_slots, parallel_seconds);
  report.metrics["sim.seq_slots_per_s"] = ratio(seq_slots, seq_seconds);
  report.metrics["sim.parallel_efficiency"] =
      ratio(ratio(parallel_slots, parallel_seconds),
            ratio(seq_slots, seq_seconds)) /
      static_cast<double>(
          std::min<std::size_t>(kThreads, reference.fabric().partition_count()));
  report.metrics["sim.rounds"] = static_cast<double>(reference.rounds());
  report.metrics["sim.events_per_round"] =
      ratio(static_cast<double>(reference.fabric().executed_events()),
            static_cast<double>(reference.rounds()));
  report.metrics["sim.cut_link_records"] =
      static_cast<double>(reference.fabric().cut_link_records());
  report.metrics["core.path_admit_us_p50"] = quantile(workload.admit_us, 0.5);

  // Critical-path work per round, timed by a benchmark-driven sequential
  // loop over `run_round`; the barrier figure is the parallel wall time
  // minus that work, per round.
  {
    FabricRun probe(workload, seed, 0);
    std::vector<double> round_max_us;
    const ScopedSpan span("sim.round_work_probe", 0);
    while (!probe.finished()) {
      if (!probe.step_timed(round_max_us)) break;
    }
    check_run(probe, reference_digest, report);
    double work_us = 0.0;
    for (const double us : round_max_us) work_us += us;
    const double rounds = static_cast<double>(round_max_us.size());
    const double per_round_wall_us =
        ratio(parallel_seconds * 1e6, static_cast<double>(steps * kStepRounds));
    report.metrics["sim.barrier_us_per_round"] =
        per_round_wall_us - ratio(work_us, rounds);
    report.metrics["sim.round_work_us_max_p50"] = quantile(round_max_us, 0.5);
  }
  return report;
}

}  // namespace perfbench
