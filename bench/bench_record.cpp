#include "bench_record.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>

namespace everest::bench {

using support::Json;

namespace {

// Indexed by Clock.
constexpr const char *kClockNames[] = {"wall", "sim", "none"};

bool holds(std::string_view op, double value, double bound) {
  if (op == "==") return value == bound;
  if (op == ">") return value > bound;
  if (op == ">=") return value >= bound;
  if (op == "<") return value < bound;
  return op == "<=" && value <= bound;
}

constexpr double kSameBound = std::numeric_limits<double>::quiet_NaN();

/// One row of the gate table: `metric` of `case_name` ("*": every case of
/// the suite) must satisfy `op bound`.
struct Gate {
  const char *suite;
  const char *case_name;
  const char *metric;
  const char *op;  // ==, >, >=, <, <=
  double bound;
  /// Bound on a single-core host, where a parallel speedup cannot exist
  /// and the gate degrades to bounded worker-pool overhead.
  double single_core_bound = kSameBound;
  /// A 1/0 metric of the same case; the gate is skipped when it reads 0.
  const char *only_if = nullptr;
};

/// The gate table: every pass/fail decision about a bench document.
const std::vector<Gate> &gate_table() {
  static const std::vector<Gate> table = [] {
    std::vector<Gate> t = {
        // bench_fig5 compile suite: the arena clone fast path, the pass
        // pipeline's per-pass cache, and compile_many.
        {"compile", "clone", "byte_identical", "==", 1},
        {"compile", "clone", "speedup_vs_generic", ">=", 1.5},
        // ~zero heap allocations per cloned op, when the counting hook is
        // live (it is stubbed under the sanitizer presets).
        {"compile", "clone", "allocs_per_cloned_op", "<=", 0.25, kSameBound,
         "alloc_counter_available"},
        {"compile", "passes", "pipeline_ok", "==", 1},
        {"compile", "passes", "byte_identical", "==", 1},
        {"compile", "compile_many", "parallel_byte_identical", "==", 1},
        {"compile", "compile_many", "incremental_byte_identical", "==", 1},
        {"compile", "compile_many", "parallel_speedup", ">=", 1.25, 0.8},
        {"compile", "compile_many", "incremental_speedup", ">=", 3.0},
        {"compile", "one_kernel_edit", "only_edited_kernel_recompiled", "==",
         1},
        // bench_fig5 rewrite suite: worklist driver vs legacy sweep.
        {"rewrite", "rrtmg_major", "byte_identical", "==", 1},
        {"rewrite", "rewrite_stress", "byte_identical", "==", 1},
        {"rewrite", "rewrite_stress", "visit_ratio", ">=", 2.0},
        // bench_hpcc: the device model's published roofline sources.
        {"hpcc", "device", "peak_memory_gbps", ">", 0},
        {"hpcc", "device", "peak_link_gbps", ">", 0},
        {"hpcc", "device", "network_peak_gbps", ">", 0},
        {"hpcc", "config", "n", ">=", 4},
        // bench_serve_cluster.
        {"serve_cluster", "network", "forward_cost_us", ">", 0},
        {"serve_cluster", "nodes_8", "speedup", ">=", 5.0},
        {"serve_cluster", "*", "p99_us", ">", 0},
        {"serve_cluster", "overload", "shed", ">", 0},
        {"serve_cluster", "overload", "admission_gap", "==", 0},
        {"serve_cluster", "overload", "incomplete", "==", 0},
        // Elasticity grows past min_vfs (1) and idles back down to it.
        {"serve_cluster", "elastic", "scale_ups", ">", 0},
        {"serve_cluster", "elastic", "scale_downs", ">", 0},
        {"serve_cluster", "elastic", "peak_vfs", ">", 1},
        {"serve_cluster", "elastic", "final_vfs", "==", 1},
    };
    // Rows repeated over cases that must each appear: a missing case fails
    // its rows, a duplicate fails the key check, an extra one is unjudged.
    auto each = [&t](const char *suite,
                     std::initializer_list<const char *> cases,
                     std::initializer_list<Gate> rows) {
      for (const char *c : cases) {
        for (Gate g : rows) {
          g.suite = suite;
          g.case_name = c;
          t.push_back(g);
        }
      }
    };
    each("hpcc",
         {"stream", "gemm", "ptrans", "fft", "randomaccess", "linpack",
          "b_eff"},
         {{"", "", "validated", "==", 1},
          {"", "", "error_over_epsilon", "<", 1},
          {"", "", "ratio", ">", 0},
          {"", "", "ratio", "<=", 1},
          {"", "", "measured", ">", 0},
          {"", "", "roofline", ">", 0},
          {"", "", "device_us", ">", 0}});
    // Nominal load at every node count: all complete, none shed, outputs
    // byte-identical to the single-node run.
    each("serve_cluster", {"nodes_1", "nodes_2", "nodes_4", "nodes_8"},
         {{"", "", "incomplete", "==", 0},
          {"", "", "shed", "==", 0},
          {"", "", "identical", "==", 1}});
    return t;
  }();
  return table;
}

struct Record {
  std::string suite, case_name, layer, metric;
  double value = 0.0;
};

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

BenchReport::Case &BenchReport::Case::add(const std::string &metric,
                                          const std::string &unit, Clock clock,
                                          double value) {
  Json r = Json::object();
  r.set("suite", suite_);
  r.set("case", case_);
  r.set("layer", layer_);
  r.set("metric", metric);
  r.set("unit", unit);
  r.set("clock", kClockNames[static_cast<int>(clock)]);
  r.set("value", value);
  report_.doc_.push_back(std::move(r));
  return *this;
}

int BenchReport::finish(const std::string &path) const {
  {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    out << doc_.dump(2) << "\n";
  }
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  auto reread = Json::parse(text.str());
  if (!reread) {
    std::fprintf(stderr, "%s does not re-parse: %s\n", path.c_str(),
                 reread.error().message.c_str());
    return 1;
  }
  auto violations = check_records(*reread);
  for (const auto &v : violations)
    std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());
  if (!violations.empty()) {
    std::fprintf(stderr, "%s: %zu violation(s)\n", path.c_str(),
                 violations.size());
    return 1;
  }
  std::printf("wrote %s: %zu records, every gate holds\n", path.c_str(),
              reread->size());
  return 0;
}

std::vector<std::string> check_records(const Json &doc) {
  std::vector<std::string> violations;
  if (!doc.is_array() || doc.size() == 0) {
    violations.push_back("document is not a non-empty array of records");
    return violations;
  }

  std::vector<Record> records;
  std::set<std::string> keys;
  std::set<std::string> suites;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const Json &r = doc[i];
    const std::string at = "record #" + std::to_string(i);
    bool strings = r.is_object();
    for (const char *field :
         {"suite", "case", "layer", "metric", "unit", "clock"})
      strings = strings && r[field].is_string();
    if (!strings) {
      violations.push_back(at + ": not a {suite, case, layer, metric, unit, "
                                "clock, value} record");
      continue;
    }
    Record rec{r["suite"].as_string(), r["case"].as_string(),
               r["layer"].as_string(), r["metric"].as_string()};
    const std::string key =
        rec.suite + "/" + rec.case_name + "/" + rec.layer + "/" + rec.metric;
    const std::string &clock = r["clock"].as_string();
    if (std::find(std::begin(kClockNames), std::end(kClockNames), clock) ==
        std::end(kClockNames)) {
      violations.push_back(key + ": unknown clock '" + clock + "'");
      continue;
    }
    if (!r["value"].is_number() || !std::isfinite(r["value"].as_number())) {
      violations.push_back(key + ": value is not a finite number");
      continue;
    }
    rec.value = r["value"].as_number();
    if (!keys.insert(key).second) {
      violations.push_back(key + ": key appears twice");
      continue;
    }
    suites.insert(rec.suite);
    records.push_back(std::move(rec));
  }

  const bool single_core = std::thread::hardware_concurrency() < 2;
  auto find = [&records](const Record &at, std::string_view metric) {
    for (const Record &r : records)
      if (r.suite == at.suite && r.case_name == at.case_name &&
          r.metric == metric)
        return &r;
    return static_cast<const Record *>(nullptr);
  };
  std::set<std::string> judged;  // "suite/case" matched by some gate
  for (const Gate &g : gate_table()) {
    if (suites.count(g.suite) == 0) continue;
    const std::string name =
        std::string(g.suite) + "/" + g.case_name + "/" + g.metric;
    double bound = g.bound;
    if (single_core && !std::isnan(g.single_core_bound))
      bound = g.single_core_bound;
    bool matched = false;
    for (const Record &r : records) {
      if (r.suite != g.suite || r.metric != g.metric ||
          (std::string_view(g.case_name) != "*" && r.case_name != g.case_name))
        continue;
      matched = true;
      judged.insert(r.suite + "/" + r.case_name);
      if (g.only_if != nullptr) {
        const Record *flag = find(r, g.only_if);
        if (flag == nullptr) {
          violations.push_back(name + ": no '" + g.only_if + "' record");
          continue;
        }
        if (flag->value == 0) continue;
      }
      if (!holds(g.op, r.value, bound))
        violations.push_back(r.suite + "/" + r.case_name + "/" + r.metric +
                             " = " + fmt(r.value) + ", gate " + g.op + " " +
                             fmt(bound));
    }
    if (!matched) violations.push_back("gate " + name + " matches no record");
  }
  for (const Record &r : records) {
    const std::string c = r.suite + "/" + r.case_name;
    if (judged.insert(c).second)
      violations.push_back("case " + c + " is judged by no gate");
  }
  return violations;
}

}  // namespace everest::bench
