// evbench/common.hpp
//
// Shared pieces of the repository benchmark: the command line, the metric
// schema (one record per metric: name, unit, clock, and for per-layer
// metrics the end-to-end metric it should move), the report every workload
// fills, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace evbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One metric of the schema. `clock` is "wall", "sim" (simulated device
/// timeline) or "none" (counts and ratios); a metric never mixes clocks.
struct MetricSpec {
  const char *name;
  const char *unit;
  const char *clock;
  const char *moves;  // per-layer only: the end-to-end metric it should move
};

/// End-to-end metrics, reported by every workload from an untraced run.
const std::vector<MetricSpec> &end_to_end_specs();
/// Per-layer metrics, reported by every workload from a traced run; a layer
/// the workload does not exercise reads 0.
const std::vector<MetricSpec> &per_layer_specs();

/// What a workload measured. Values are keyed by schema name.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> values;
  /// Human-readable lines printed before the result (checks, workload
  /// figures under the names they carry in the README).
  std::vector<std::string> notes;

  void set(const std::string &name, double value) { values[name] = value; }
  /// Sets `setup_s` to the median of the set-up samples and notes them.
  void set_setup(const std::vector<double> &samples);
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Records a failed correctness check: the run is marked incorrect and the
  /// failure counts against `attempted`.
  void fail(const std::string &what);
};

// -------------------------------------------------------- set-up sampling

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetups = 9;

// ------------------------------------------------------------------ clocks

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// -------------------------------------------------------------- statistics

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}
double mean(const std::vector<double> &values);
double geomean(const std::vector<double> &values);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

std::string fmt(const char *pattern, double value);

// --------------------------------------------------------------- workloads

Report run_compile(const Args &args);
Report run_hpcc(const Args &args);
Report run_serve_mapmatch(const Args &args);
Report run_serve_stream(const Args &args);

}  // namespace evbench
