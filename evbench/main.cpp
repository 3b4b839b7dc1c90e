// evbench: the repository benchmark. One process runs one seeded workload
// against the public APIs of sdk, hpcc and serve, checks its outputs, prints
// every metric with its unit and clock, and ends with one JSON line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// carrying the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). See README.md for the workloads and metric definitions.
//
//   evbench --workload compile|hpcc_n128|serve_mapmatch|serve_stream
//           --seed N --seconds S --trace 0|1

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"

namespace {

int usage(const char *why) {
  std::fprintf(stderr,
               "evbench: %s\nusage: evbench --workload "
               "compile|hpcc_n128|serve_mapmatch|serve_stream --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char **argv) {
  evbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char *end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("bad --seed");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return usage("bad --seconds");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      args.trace = value == "1";
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("flags take one value each");

  evbench::Report report;
  if (args.workload == "compile") {
    report = evbench::run_compile(args);
  } else if (args.workload == "hpcc_n128") {
    report = evbench::run_hpcc(args);
  } else if (args.workload == "serve_mapmatch") {
    report = evbench::run_serve_mapmatch(args);
  } else if (args.workload == "serve_stream") {
    report = evbench::run_serve_stream(args);
  } else {
    return usage("unknown --workload");
  }
  if (!args.trace) report.set("peak_rss_mb", evbench::peak_rss_mb());

  const auto &specs =
      args.trace ? evbench::per_layer_specs() : evbench::end_to_end_specs();
  for (const evbench::MetricSpec &spec : specs) {
    auto it = report.values.find(spec.name);
    if (it != report.values.end() && !std::isfinite(it->second))
      report.fail(std::string("metric ") + spec.name + " is not finite");
  }
  for (const std::string &line : report.notes)
    std::printf("# %s\n", line.c_str());
  std::printf("# error_rate = %.6g (%lld failed / %lld attempted)\n",
              report.attempted > 0 ? static_cast<double>(report.failed) /
                                         static_cast<double>(report.attempted)
                                   : 0.0,
              static_cast<long long>(report.failed),
              static_cast<long long>(report.attempted));

  std::string metrics;
  for (const evbench::MetricSpec &spec : specs) {
    auto it = report.values.find(spec.name);
    double value = it == report.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    std::printf("# %-38s %16.6f %-7s clock=%-4s%s%s\n", spec.name, value,
                spec.unit, spec.clock, *spec.moves ? "  moves " : "",
                spec.moves);
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + spec.name + "\": {\"value\": " +
               json_number(value) + ", \"unit\": \"" + spec.unit + "\"}";
  }
  if (report.attempted < 1) report.attempted = 1;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), metrics.c_str());
  return 0;
}
