#pragma once

/// @file harness.hpp
/// Shared plumbing of the `perfbench` program: command-line options, the
/// metric registry (the names and units `BENCHMARK.json` lists), the result
/// line, in-memory tracing spans and small timing/statistics helpers.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Inputs scale. `kFull` is what `BENCHMARK.json` runs; `kTiny` is the
/// smoke-test size (same code paths, a fraction of the work).
enum class Size : std::uint8_t { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10.0};
  bool trace{false};
  Size size{Size::kFull};
  /// Test hook: corrupts one recorded outcome before the correctness
  /// checks, which must then count it as failed and fail the command.
  bool plant_fault{false};
  /// Where result and span files go (created if missing).
  std::string out_dir{".bench_build/out"};
};

/// Nanoseconds since an arbitrary process-wide epoch.
[[nodiscard]] std::int64_t now_ns();

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; sorts in place.
/// 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double>& values, double q);

[[nodiscard]] double median(std::vector<double> values);
/// Smallest / largest element; 0 for an empty sample.
[[nodiscard]] double min_of(const std::vector<double>& values);
[[nodiscard]] double max_of(const std::vector<double>& values);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mib();

/// FNV-1a step over one 64-bit value.
void fnv_mix(std::uint64_t& hash, std::uint64_t value);
[[nodiscard]] std::uint64_t fnv_string(const std::string& text);

/// Latency histogram with constant memory: log-spaced buckets 1% wide from
/// 1 ns to 100 s. Quantiles interpolate by rank inside the bucket, so they
/// move continuously with the sample instead of snapping to bucket edges.
class Histogram {
 public:
  Histogram();
  void add(double micros);
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_{0};
};

// --- Tracing ----------------------------------------------------------------

/// In-memory span recorder. Spans are recorded only on the benchmark's own
/// thread, around its calls into the library; nothing is written until
/// `write`. A disabled tracer records nothing.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::uint64_t trace_id;
  };

  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] std::int32_t begin(const char* name, std::uint64_t trace_id);
  void end(std::int32_t index);
  /// Records a finished span measured elsewhere (e.g. a wait that happened
  /// on another thread), parented to the currently open span.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t trace_id);

  /// Writes every span plus a per-name summary (count, total and self time)
  /// as JSON. False on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  bool enabled_{false};
  std::int32_t current_{-1};
  std::vector<Span> spans_;
};

/// The process-wide tracer the workloads record into.
[[nodiscard]] Tracer& tracer();

/// RAII span; a no-op while tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t trace_id)
      : index_(tracer().enabled() ? tracer().begin(name, trace_id) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer().end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t index_;
};

// --- Results ----------------------------------------------------------------

/// What one workload run produced. `metrics` holds every value the workload
/// measured; the printer emits exactly the registered end-to-end (untraced)
/// or per-layer (traced) names.
struct Report {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  /// Correctness failures that are not per-op (e.g. a digest mismatch
  /// between thread counts); each also counts once into `failed`.
  std::vector<std::string> problems;
  std::map<std::string, double> metrics;
  /// Sample counts and other context for the tag line.
  std::map<std::string, double> samples;

  void fail(std::string problem) {
    problems.push_back(std::move(problem));
    ++failed;
  }
};

struct MetricDef {
  const char* name;
  const char* unit;
};

[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// Workload entry points (one translation unit each).
[[nodiscard]] Report run_admission_churn(const Options& options);
[[nodiscard]] Report run_campaign_mixed(const Options& options);
[[nodiscard]] Report run_fabric_pdes(const Options& options);

}  // namespace perfbench
