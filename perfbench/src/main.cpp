/// perfbench — the repository benchmark program.
///
///   perfbench --workload <admission-churn|campaign-mixed|fabric-pdes>
///             --seed <n> --seconds <s> --trace <0|1>
///             [--size full|tiny] [--out <dir>] [--plant-fault]
///
/// Runs one workload, checks its outputs against the reference paths and
/// prints, as the last line of standard output, one JSON object with the
/// keys `correct`, `attempted`, `failed` and `metrics` — the end-to-end
/// metrics untraced, the per-layer metrics with `--trace 1`. The line before
/// it tags the run (host, compiler, build type, seed, sample counts). Exits
/// 1 when any correctness check failed, 2 on a usage error.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<admission-churn|campaign-mixed|fabric-pdes> --seed <n> "
               "--seconds <s> --trace <0|1> [--size full|tiny] [--out dir] "
               "[--plant-fault]\n",
               problem);
  std::exit(2);
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--plant-fault") {
      options.plant_fault = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, number)) usage("--seed takes an unsigned integer");
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0.0)) {
        usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (!parse_u64(value, number) || number > 1) usage("--trace takes 0 or 1");
      options.trace = number == 1;
    } else if (flag == "--size") {
      if (std::strcmp(value, "full") == 0) {
        options.size = perfbench::Size::kFull;
      } else if (std::strcmp(value, "tiny") == 0) {
        options.size = perfbench::Size::kTiny;
      } else {
        usage("--size takes full or tiny");
      }
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  return options;
}

void make_dirs(const std::string& path) {
  for (std::size_t pos = 1; pos <= path.size(); ++pos) {
    if (pos == path.size() || path[pos] == '/') {
      ::mkdir(path.substr(0, pos).c_str(), 0755);
    }
  }
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  perfbench::tracer().enable(options.trace);

  Report report;
  if (options.workload == "admission-churn") {
    report = perfbench::run_admission_churn(options);
  } else if (options.workload == "campaign-mixed") {
    report = perfbench::run_campaign_mixed(options);
  } else if (options.workload == "fabric-pdes") {
    report = perfbench::run_fabric_pdes(options);
  } else {
    usage(("unknown workload " + options.workload).c_str());
  }
  if (!options.trace) {
    report.metrics["peak_rss_mb"] = perfbench::peak_rss_mib();
  }
  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "perfbench: FAILED CHECK: %s\n", problem.c_str());
  }

  // Every registered metric is printed. A per-layer metric the workload
  // does not exercise reads 0; an end-to-end metric must always be measured.
  const auto& registry = options.trace ? perfbench::per_layer_metrics()
                                       : perfbench::end_to_end_metrics();
  std::ostringstream metrics;
  bool first = true;
  for (const auto& def : registry) {
    const auto it = report.metrics.find(def.name);
    if (!options.trace && it == report.metrics.end()) {
      std::fprintf(stderr, "perfbench: workload did not measure %s\n",
                   def.name);
      return 3;
    }
    const double value = it == report.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", def.name);
      return 3;
    }
    metrics << (first ? "" : ", ") << "\"" << def.name
            << "\": {\"value\": " << json_number(value) << ", \"unit\": \""
            << def.unit << "\"}";
    first = false;
  }

  const bool correct = report.failed == 0 && report.attempted > 0;
  std::ostringstream tags;
  tags << "{\"workload\": \"" << options.workload
       << "\", \"seed\": " << options.seed
       << ", \"seconds\": " << json_number(options.seconds)
       << ", \"trace\": " << (options.trace ? 1 : 0) << ", \"size\": \""
       << (options.size == perfbench::Size::kTiny ? "tiny" : "full")
       << "\", \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": \"" << compiler() << "\", \"build_type\": \""
       << PERFBENCH_BUILD_TYPE << "\"}, \"failed_ratio\": "
       << json_number(report.attempted == 0
                          ? 1.0
                          : static_cast<double>(report.failed) /
                                static_cast<double>(report.attempted))
       << ", \"samples\": {";
  first = true;
  for (const auto& [name, count] : report.samples) {
    tags << (first ? "" : ", ") << "\"" << name
         << "\": " << json_number(count);
    first = false;
  }
  tags << "}}";

  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << report.attempted
         << ", \"failed\": " << report.failed << ", \"metrics\": {"
         << metrics.str() << "}}";

  make_dirs(options.out_dir);
  const std::string stem = options.out_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) +
                           (options.trace ? "-trace" : "");
  {
    std::ofstream file(stem + ".json");
    file << "{\"tags\": " << tags.str() << ",\n \"result\": " << result.str()
         << "}\n";
  }
  if (options.trace && !perfbench::tracer().write(stem + "-spans.json")) {
    std::fprintf(stderr, "perfbench: cannot write %s-spans.json\n",
                 stem.c_str());
  }

  std::printf("perfbench-tags %s\n%s\n", tags.str().c_str(),
              result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
