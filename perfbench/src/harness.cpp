#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>

namespace perfbench {

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double min_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double max_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void fnv_mix(std::uint64_t& hash, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xffU;
    hash *= 0x0000'0100'0000'01b3ULL;
  }
}

std::uint64_t fnv_string(const std::string& text) {
  std::uint64_t hash = 0xcbf2'9ce4'8422'2325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x0000'0100'0000'01b3ULL;
  }
  return hash;
}

namespace {
constexpr double kHistMinUs = 1e-3;
constexpr double kHistGrowth = 1.01;
constexpr std::size_t kHistBuckets = 2547;  // 1 ns .. 100 s
}  // namespace

Histogram::Histogram() : buckets_(kHistBuckets, 0) {}

void Histogram::add(double micros) {
  double index = 0.0;
  if (micros > kHistMinUs) {
    index = std::floor(std::log(micros / kHistMinUs) / std::log(kHistGrowth));
  }
  const auto bucket = std::min(static_cast<std::size_t>(index),
                               kHistBuckets - 1);
  ++buckets_[bucket];
  ++count_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::uint64_t n = buckets_[b];
    if (n == 0) continue;
    if (rank < static_cast<double>(below + n)) {
      const double lo = kHistMinUs * std::pow(kHistGrowth, static_cast<double>(b));
      const double within = (rank - static_cast<double>(below) + 0.5) /
                            static_cast<double>(n);
      return lo * std::pow(kHistGrowth, within);
    }
    below += n;
  }
  return kHistMinUs * std::pow(kHistGrowth, static_cast<double>(kHistBuckets));
}

// --- Tracing ----------------------------------------------------------------

std::int32_t Tracer::begin(const char* name, std::uint64_t trace_id) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, now_ns(), 0, current_, trace_id});
  current_ = index;
  return index;
}

void Tracer::end(std::int32_t index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  current_ = span.parent;
}

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t trace_id) {
  spans_.push_back(Span{name, start_ns, end_ns, current_, trace_id});
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  // Self time: a span's duration minus the time its direct children cover
  // (children of one span never overlap — spans nest on a single thread).
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  struct Summary {
    std::uint64_t count{0};
    std::int64_t total_ns{0};
    std::int64_t self_ns{0};
  };
  std::map<std::string, Summary> summary;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Summary& s = summary[spans_[i].name];
    const std::int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    ++s.count;
    s.total_ns += duration;
    s.self_ns += duration - child_ns[i];
  }
  out << "{\"summary\":{";
  bool first = true;
  for (const auto& [name, s] : summary) {
    out << (first ? "" : ",") << "\"" << name << "\":{\"count\":" << s.count
        << ",\"total_ns\":" << s.total_ns << ",\"self_ns\":" << s.self_ns
        << "}";
    first = false;
  }
  out << "},\n\"spans\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"id\":" << i << ",\"name\":\""
        << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << ",\"trace\":" << span.trace_id << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

// --- Metric registry --------------------------------------------------------

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> metrics{
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"ops_per_s", "ops/s"},
      {"op_latency_p50_us", "us"},
      {"op_latency_p90_us", "us"},
  };
  return metrics;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> metrics{
      {"core.submit_us_p50", "us"},
      {"core.ticket_wait_us_p50", "us"},
      {"core.migrations_per_kop", "1/kop"},
      {"core.accept_ratio", "ratio"},
      {"core.inline_ops_per_s", "ops/s"},
      {"core.resident_ops_per_s", "ops/s"},
      {"core.batched_ops_per_s", "ops/s"},
      {"core.extra_backends_us_p50", "us"},
      {"core.path_admit_us_p50", "us"},
      {"edf.feasibility_tests_per_admit", "count"},
      {"edf.demand_evals_per_admit", "count"},
      {"edf.check_with_ns_p50", "ns"},
      {"edf.commit_ns_p50", "ns"},
      {"edf.downdate_ns_p50", "ns"},
      {"scenario.generate_us_p50", "us"},
      {"scenario.run_us_p50", "us"},
      {"scenario.run_us_p99", "us"},
      {"scenario.no_sim_us_p50", "us"},
      {"proto.establish_us_p50", "us"},
      {"proto.setup_rtt_slots_p50", "slots"},
      {"analysis.oracle_checks_per_scenario", "count"},
      {"sim.slots_per_s", "slots/s"},
      {"sim.star_events_per_s", "events/s"},
      {"sim.events_per_slot", "events"},
      {"sim.rounds", "count"},
      {"sim.events_per_round", "events"},
      {"sim.cut_link_records", "count"},
      {"sim.seq_slots_per_s", "slots/s"},
      {"sim.round_work_us_max_p50", "us"},
      {"sim.barrier_us_per_round", "us"},
      {"sim.parallel_efficiency", "ratio"},
      {"trace.overhead_pct", "%"},
  };
  return metrics;
}

}  // namespace perfbench
