// lifecycle_bench — one run of one workload of the lifecycle benchmark.
//
//   lifecycle_bench --workload steady|churn|fed --seed N --seconds S
//                   [--trace 0|1] [--small] [--trace-out PATH]
//
// Prints human-readable lines, then one JSON object on the last line:
//   {"workload", "seed", "trace", "correct", "attempted", "failed",
//    "problems", "digest", "end_to_end", "per_layer", "notes"}
// perfbench/run.py turns that into the benchmark's result line.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/logging.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string json_strings(const std::vector<std::string>& lines) {
  std::string out = "[";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(lines[i]);
  }
  return out + "]";
}

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--workload") {
      const char* v = value();
      if (v == nullptr) return false;
      options.workload = v;
    } else if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr) return false;
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      const char* v = value();
      if (v == nullptr) return false;
      options.seconds = std::atof(v);
    } else if (arg == "--trace") {
      const char* v = value();
      if (v == nullptr) return false;
      options.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--trace-out") {
      const char* v = value();
      if (v == nullptr) return false;
      options.trace_out = v;
    } else if (arg == "--small") {
      options.small = true;
    } else {
      return false;
    }
  }
  return options.workload == "steady" || options.workload == "churn" ||
         options.workload == "fed";
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: %s --workload steady|churn|fed --seed N --seconds S "
                 "[--trace 0|1] [--small] [--trace-out PATH]\n",
                 argv[0]);
    return 2;
  }
  drt::log::set_level(drt::log::Level::kError);
  (void)perfbench::resolution_ns();  // measure the clock before anything is timed

  Report report;
  if (options.workload == "steady") {
    perfbench::run_steady(options, report);
  } else if (options.workload == "churn") {
    perfbench::run_churn(options, report);
  } else {
    perfbench::run_fed(options, report);
  }

  std::printf("workload %s seed %llu trace %d: %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, report.correct ? "correct" : "INCORRECT");
  for (const auto& problem : report.problems) {
    std::printf("  problem: %s\n", problem.c_str());
  }
  std::printf("  clock resolution = %lld ns\n",
              static_cast<long long>(perfbench::resolution_ns()));
  for (const auto& note : report.notes) std::printf("  %s\n", note.c_str());
  std::printf("  digest = %s\n", report.digest.c_str());
  print_metrics("end-to-end:", report.end_to_end);
  if (options.trace) print_metrics("per-layer:", report.per_layer);

  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"correct\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"problems\": %s, "
      "\"digest\": %s, \"end_to_end\": %s, \"per_layer\": %s, \"notes\": %s}\n",
      json_string(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      json_strings(report.problems).c_str(), json_string(report.digest).c_str(),
      json_metrics(report.end_to_end).c_str(),
      json_metrics(report.per_layer).c_str(),
      json_strings(report.notes).c_str());
  return 0;
}
