/// Workload `campaign-mixed`: the conformance campaign an engineer runs to
/// prove Eq 18.1 — `GeneratorProfile::kMixed` scenarios from a fixed seed
/// range, default `RunnerOptions` (so the runner's 2-thread parallel and
/// service backends run underneath), one campaign worker.
///
/// Set-up expands the seed range into scenario specs. The measured phase
/// runs them in order, wrapping around, until the time is up; one op is one
/// `run_scenario` call. Thousands of tiny, cold admission states make this
/// the workload where construction cost shows.
///
/// Correctness: every scenario passes its oracles (no violation, no
/// deadline miss), and a scenario's `SimDigest` is identical every time it
/// runs — scenarios the measured phase ran only once are run again, off the
/// clock, and the campaign-style `sim_digest_xor` must agree.

#include <algorithm>
#include <bit>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/admission.hpp"
#include "core/partitioner.hpp"
#include "harness.hpp"
#include "proto/stack.hpp"
#include "scenario/generator.hpp"
#include "scenario/runner.hpp"
#include "sim/config.hpp"

namespace perfbench {
namespace {

using namespace rtether;
using scenario::ScenarioOp;
using scenario::ScenarioSpec;

constexpr std::size_t kScenarios = 2048;
constexpr std::size_t kTinyScenarios = 48;
constexpr int kSetupRepetitions = 15;

/// Campaign-style fold of one scenario's digest (scenario/campaign.cpp).
std::uint64_t digest_term(const scenario::SimDigest& digest,
                          std::uint64_t seed) {
  return digest.link_stats_hash ^ (digest.executed_events * seed) ^
         std::rotl(digest.rt_delivered, 17) ^
         std::rotl(digest.best_effort_sent, 31);
}

std::vector<ScenarioSpec> generate_corpus(std::uint64_t base,
                                          std::size_t count,
                                          std::vector<double>* generate_us) {
  scenario::GeneratorConfig config;
  config.profile = scenario::GeneratorProfile::kMixed;
  std::vector<ScenarioSpec> specs;
  specs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t t0 = now_ns();
    specs.push_back(scenario::generate_scenario(config, base + i));
    if (generate_us != nullptr) {
      generate_us->push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }
  return specs;
}

/// The channels alive at the end of a star scenario's op stream, in
/// admission order, from the reference controller.
std::vector<core::ChannelSpec> survivors(const ScenarioSpec& spec) {
  core::AdmissionController controller(spec.topology.nodes,
                                       core::make_partitioner(spec.scheme));
  std::vector<std::optional<ChannelId>> id_by_op(spec.ops.size());
  std::vector<std::pair<ChannelId, core::ChannelSpec>> live;
  for (std::size_t i = 0; i < spec.ops.size(); ++i) {
    const ScenarioOp& op = spec.ops[i];
    if (op.kind == ScenarioOp::Kind::kAdmit) {
      const auto outcome = controller.request(op.spec);
      if (outcome.has_value()) {
        id_by_op[i] = outcome->id;
        live.emplace_back(outcome->id, op.spec);
      }
      continue;
    }
    const ChannelId id = op.target != ScenarioOp::kNoTarget && id_by_op[op.target]
                             ? *id_by_op[op.target]
                             : ChannelId{op.raw_id};
    if (controller.release(id).has_value()) {
      std::erase_if(live, [id](const auto& entry) { return entry.first == id; });
    }
  }
  std::vector<core::ChannelSpec> specs;
  for (const auto& entry : live) specs.push_back(entry.second);
  return specs;
}

/// Wall times of every measured run, per corpus scenario. The corpus is
/// run many times over and each scenario keeps its best time: the host
/// this runs on slows whole stretches of seconds at random (other tenants),
/// and the best of many runs of identical work is what stays put. The
/// throughput is the corpus size over the sum of those best times.
struct Measured {
  explicit Measured(std::size_t corpus) : times_us(corpus) {}
  std::vector<std::vector<double>> times_us;
  std::uint64_t runs{0};

  [[nodiscard]] std::vector<double> best_us() const {
    std::vector<double> out;
    for (const auto& times : times_us) {
      if (!times.empty()) out.push_back(min_of(times));
    }
    return out;
  }
};

/// Everything the traced run collects per scenario.
struct LayerSamples {
  std::vector<double> run_us;
  std::vector<double> no_sim_us;
  std::vector<double> extra_backends_us;
  std::vector<double> establish_us;
  std::vector<double> setup_rtt_slots;
  std::uint64_t oracle_checks{0};
  std::uint64_t scenarios{0};
  std::uint64_t simulated_slots{0};
  double run_seconds{0.0};
  std::uint64_t star_events{0};
  std::uint64_t star_slots{0};
  double star_sim_seconds{0.0};
};

class Campaign {
 public:
  Campaign(std::vector<ScenarioSpec> specs, Report& report)
      : specs_(std::move(specs)),
        digests_(specs_.size()),
        latest_(specs_.size()),
        runs_(specs_.size(), 0),
        report_(report) {}

  /// Runs scenario `i` once with the default options, checks it, and
  /// returns its wall time in microseconds.
  double run_checked(std::size_t i, std::uint64_t trace_id,
                     Measured* measured) {
    const ScenarioSpec& spec = specs_[i];
    scenario::ScenarioResult result;
    const std::int64_t t0 = now_ns();
    {
      const ScopedSpan span("scenario.run", trace_id);
      result = scenario::run_scenario(spec, defaults_);
    }
    const double micros = static_cast<double>(now_ns() - t0) / 1e3;
    if (measured != nullptr) {
      ++measured->runs;
      measured->times_us[i].push_back(micros);
    }
    ++report_.attempted;
    if (!result.passed) {
      report_.fail("scenario seed " + std::to_string(spec.seed) + ": " +
                   (result.violations.empty()
                        ? std::string("failed")
                        : result.violations.front().to_string()));
    }
    const std::uint64_t term = digest_term(result.sim_digest, spec.seed);
    latest_[i] = term;
    if (runs_[i]++ == 0) {
      digests_[i] = term;
    } else if (digests_[i] != term) {
      report_.fail("scenario seed " + std::to_string(spec.seed) +
                   ": SimDigest differs between runs");
    }
    last_ = std::move(result);
    return micros;
  }

  /// Runs scenarios round-robin from `next_` until `seconds` elapsed.
  void measure(double seconds, Measured& measured) {
    const auto start = Clock::now();
    while (seconds_between(start, Clock::now()) < seconds) {
      (void)run_checked(next_, next_, &measured);
      next_ = (next_ + 1) % specs_.size();
    }
  }

  /// Off the clock: runs again every scenario that ran exactly once, so
  /// each digest is compared at least once, then checks the campaign-style
  /// `sim_digest_xor` of the first runs against that of the latest runs.
  void verify(bool plant_fault) {
    if (plant_fault) digests_[0] ^= 1;
    std::uint64_t first_xor = 0;
    std::uint64_t latest_xor = 0;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      if (runs_[i] == 1 || (plant_fault && i == 0)) {
        (void)run_checked(i, i, nullptr);
        --report_.attempted;  // a re-run is a check, not an attempt
      }
      if (runs_[i] > 0) {
        first_xor ^= digests_[i];
        latest_xor ^= latest_[i];
      }
    }
    if (first_xor != latest_xor) {
      report_.fail("campaign sim_digest_xor differs between runs");
    }
  }

  /// The per-layer breakdown of scenario `i` (traced run only).
  void probe_layers(std::size_t i, LayerSamples& layers) {
    const ScenarioSpec& spec = specs_[i];
    const double run_us = run_checked(i, i, nullptr);
    --report_.attempted;
    const scenario::ScenarioResult result = last_;
    layers.run_us.push_back(run_us);
    layers.run_seconds += run_us / 1e6;
    layers.simulated_slots += result.simulated_slots;
    layers.oracle_checks += result.oracle_checks;
    ++layers.scenarios;

    scenario::RunnerOptions no_sim;
    no_sim.run_simulation = false;
    std::int64_t t0 = now_ns();
    {
      const ScopedSpan span("scenario.run_no_sim", i);
      (void)scenario::run_scenario(spec, no_sim);
    }
    const double no_sim_us = static_cast<double>(now_ns() - t0) / 1e3;
    layers.no_sim_us.push_back(no_sim_us);

    scenario::RunnerOptions no_backends;
    no_backends.backends.clear();
    t0 = now_ns();
    {
      const ScopedSpan span("scenario.run_no_backends", i);
      (void)scenario::run_scenario(spec, no_backends);
    }
    layers.extra_backends_us.push_back(
        run_us - static_cast<double>(now_ns() - t0) / 1e3);

    const bool star_edf = spec.topology.kind == scenario::TopologyKind::kStar &&
                          spec.scheme != "TT";
    if (star_edf && result.simulated_slots > 0) {
      layers.star_events += result.sim_digest.executed_events;
      layers.star_slots += result.simulated_slots;
      layers.star_sim_seconds += std::max(0.0, run_us - no_sim_us) / 1e6;
    }
    if (star_edf) establish(spec, i, layers);
  }

 private:
  /// Times `proto::Stack::establish` over the scenario's surviving channel
  /// set on a fresh stack; a rejection is a correct outcome.
  static void establish(const ScenarioSpec& spec, std::uint64_t trace_id,
                        LayerSamples& layers) {
    const auto channels = survivors(spec);
    sim::SimConfig config;
    config.ticks_per_slot = spec.ticks_per_slot;
    proto::Stack stack(config, spec.topology.nodes,
                       core::make_partitioner(spec.scheme));
    for (const core::ChannelSpec& channel : channels) {
      const Tick sent = stack.network().now();
      const std::int64_t t0 = now_ns();
      {
        const ScopedSpan span("proto.establish", trace_id);
        (void)stack.establish(channel.source, channel.destination,
                              channel.period, channel.capacity,
                              channel.deadline);
      }
      layers.establish_us.push_back(static_cast<double>(now_ns() - t0) /
                                    1e3);
      layers.setup_rtt_slots.push_back(
          static_cast<double>(stack.network().now() - sent) /
          static_cast<double>(spec.ticks_per_slot));
    }
  }

  std::vector<ScenarioSpec> specs_;
  /// Digest term of each scenario's first run, and of its latest run.
  std::vector<std::uint64_t> digests_;
  std::vector<std::uint64_t> latest_;
  std::vector<std::uint32_t> runs_;
  Report& report_;
  scenario::RunnerOptions defaults_;
  scenario::ScenarioResult last_;
  std::size_t next_{0};
};

}  // namespace

Report run_campaign_mixed(const Options& options) {
  Report report;
  const bool tiny = options.size == Size::kTiny;
  const std::size_t count = tiny ? kTinyScenarios : kScenarios;
  const std::uint64_t base = options.seed * 1'000'003ULL;
  const double seconds = tiny ? std::min(options.seconds, 0.5)
                              : options.seconds;

  std::vector<double> setup_seconds;
  std::vector<double> generate_us;
  std::vector<ScenarioSpec> specs;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const auto t0 = Clock::now();
    {
      const ScopedSpan span("setup.generate_corpus", 0);
      specs = generate_corpus(base, count, rep == 0 ? &generate_us : nullptr);
    }
    setup_seconds.push_back(seconds_between(t0, Clock::now()));
  }

  Campaign campaign(std::move(specs), report);
  report.samples["setup_repetitions"] = kSetupRepetitions;
  report.samples["corpus_scenarios"] = static_cast<double>(count);

  if (!options.trace) {
    Measured measured(count);
    campaign.measure(seconds, measured);
    const std::uint64_t attempted = report.attempted;
    campaign.verify(options.plant_fault);
    report.attempted = attempted;
    std::vector<double> best = measured.best_us();
    double total_us = 0.0;
    for (const double us : best) total_us += us;
    report.samples["measured_runs"] = static_cast<double>(measured.runs);
    report.samples["latency_samples"] = static_cast<double>(best.size());
    report.metrics["setup_s"] = median(setup_seconds);
    report.metrics["ops_per_s"] =
        static_cast<double>(best.size()) / (total_us / 1e6);
    report.metrics["op_latency_p50_us"] = quantile(best, 0.5);
    report.metrics["op_latency_p90_us"] = quantile(best, 0.9);
    return report;
  }

  // --- Traced run -----------------------------------------------------------
  // Each scenario runs once untraced and once through the traced per-layer
  // breakdown, alternating which goes first; the tracing overhead compares
  // the two sums of default run times.
  LayerSamples layers;
  double plain_sum = 0.0;
  double traced_sum = 0.0;
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i < count && (i == 0 || seconds_between(start, Clock::now()) < seconds);
       ++i) {
    const auto plain = [&] {
      tracer().enable(false);
      plain_sum += campaign.run_checked(i, i, nullptr);
      tracer().enable(true);
    };
    if (i % 2 == 0) plain();
    {
      const ScopedSpan span("scenario.probe", i);
      campaign.probe_layers(i, layers);
    }
    traced_sum += layers.run_us.back();
    if (i % 2 == 1) plain();
  }
  campaign.verify(options.plant_fault);

  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  report.metrics["trace.overhead_pct"] =
      ratio(traced_sum - plain_sum, plain_sum) * 100.0;
  report.metrics["scenario.generate_us_p50"] = quantile(generate_us, 0.5);
  report.metrics["scenario.run_us_p50"] = quantile(layers.run_us, 0.5);
  report.metrics["scenario.run_us_p99"] = quantile(layers.run_us, 0.99);
  report.metrics["scenario.no_sim_us_p50"] = quantile(layers.no_sim_us, 0.5);
  report.metrics["core.extra_backends_us_p50"] =
      quantile(layers.extra_backends_us, 0.5);
  report.metrics["proto.establish_us_p50"] = quantile(layers.establish_us, 0.5);
  report.metrics["proto.setup_rtt_slots_p50"] =
      quantile(layers.setup_rtt_slots, 0.5);
  report.metrics["analysis.oracle_checks_per_scenario"] =
      ratio(static_cast<double>(layers.oracle_checks),
            static_cast<double>(layers.scenarios));
  report.metrics["sim.slots_per_s"] =
      ratio(static_cast<double>(layers.simulated_slots), layers.run_seconds);
  report.metrics["sim.star_events_per_s"] =
      ratio(static_cast<double>(layers.star_events), layers.star_sim_seconds);
  report.metrics["sim.events_per_slot"] =
      ratio(static_cast<double>(layers.star_events),
            static_cast<double>(layers.star_slots));
  report.samples["traced_scenarios"] = static_cast<double>(layers.scenarios);
  report.samples["establish_samples"] =
      static_cast<double>(layers.establish_us.size());
  return report;
}

}  // namespace perfbench
