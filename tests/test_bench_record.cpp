// Tests for the bench record and its one checker (bench/bench_record.hpp):
// documents shaped like each bench's output pass the gate table, and every
// corruption a gate or a schema rule exists for makes them fail.

#include <cmath>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_record.hpp"

namespace eb = everest::bench;
using eb::Clock;
using everest::support::Json;

namespace {

const char *const kWorkloads[] = {"stream",       "gemm",    "ptrans", "fft",
                                  "randomaccess", "linpack", "b_eff"};

std::string joined(const std::vector<std::string> &violations) {
  std::string text;
  for (const auto &v : violations) text += v + "\n";
  return text;
}

bool passes(const Json &doc) { return eb::check_records(doc).empty(); }

void add_hpcc_workload(eb::BenchReport &report, const std::string &name) {
  report.in("hpcc", name, "hpcc")
      .add("measured", "GB/s", Clock::Sim, 40.0)
      .add("roofline", "GB/s", Clock::None, 460.0)
      .add("ratio", "ratio", Clock::Sim, 40.0 / 460.0)
      .add("error", "rel", Clock::None, 1e-14)
      .add("epsilon", "rel", Clock::None, 1e-12)
      .add("error_over_epsilon", "ratio", Clock::None, 1e-2)
      .add("validated", "bool", Clock::None, 1);
  report.in("hpcc", name, "platform").add("device_us", "us", Clock::Sim, 12.5);
}

/// A passing document shaped like bench_hpcc's, over `workloads`.
Json hpcc_doc(const std::vector<std::string> &workloads) {
  eb::BenchReport report;
  report.in("hpcc", "config", "hpcc").add("n", "count", Clock::None, 16);
  report.in("hpcc", "device", "platform")
      .add("peak_memory_gbps", "GB/s", Clock::None, 460.0)
      .add("peak_link_gbps", "GB/s", Clock::None, 16.0)
      .add("network_peak_gbps", "GB/s", Clock::None, 12.5);
  for (const auto &w : workloads) add_hpcc_workload(report, w);
  return report.document();
}

Json hpcc_doc() {
  return hpcc_doc(std::vector<std::string>(std::begin(kWorkloads),
                                           std::end(kWorkloads)));
}

/// A passing document shaped like bench_serve_cluster's.
Json serve_doc() {
  eb::BenchReport report;
  report.in("serve_cluster", "network", "platform")
      .add("forward_cost_us", "us", Clock::Sim, 30.0);
  for (int nodes : {1, 2, 4, 8}) {
    report.in("serve_cluster", "nodes_" + std::to_string(nodes), "serve")
        .add("incomplete", "count", Clock::None, 0)
        .add("shed", "count", Clock::None, 0)
        .add("identical", "bool", Clock::None, 1)
        .add("throughput_rps", "1/s", Clock::Sim, 3e5 * nodes)
        .add("speedup", "x", Clock::Sim, nodes == 8 ? 7.5 : nodes);
  }
  for (const char *tenant : {"tenant-0", "tenant-1"})
    report.in("serve_cluster", tenant, "serve")
        .add("p99_us", "us", Clock::Wall, 120.0);
  report.in("serve_cluster", "overload", "serve")
      .add("shed", "count", Clock::None, 40)
      .add("admission_gap", "count", Clock::None, 0)
      .add("incomplete", "count", Clock::None, 0);
  report.in("serve_cluster", "elastic", "virt")
      .add("scale_ups", "count", Clock::None, 3)
      .add("scale_downs", "count", Clock::None, 3)
      .add("peak_vfs", "count", Clock::None, 4)
      .add("final_vfs", "count", Clock::None, 1);
  return report.document();
}

/// A passing document shaped like bench_fig5's (compile + rewrite suites).
/// The parallel speedup clears the multi-core floor, so it passes anywhere.
Json compile_doc() {
  eb::BenchReport report;
  report.in("compile", "clone", "ir")
      .add("byte_identical", "bool", Clock::None, 1)
      .add("speedup_vs_generic", "x", Clock::Wall, 2.0)
      .add("alloc_counter_available", "bool", Clock::None, 1)
      .add("allocs_per_cloned_op", "count", Clock::None, 0.05);
  report.in("compile", "passes", "ir")
      .add("pipeline_ok", "bool", Clock::None, 1)
      .add("byte_identical", "bool", Clock::None, 1);
  report.in("compile", "compile_many", "sdk")
      .add("parallel_byte_identical", "bool", Clock::None, 1)
      .add("incremental_byte_identical", "bool", Clock::None, 1)
      .add("parallel_speedup", "x", Clock::Wall, 2.0)
      .add("incremental_speedup", "x", Clock::Wall, 5.0);
  report.in("compile", "one_kernel_edit", "sdk")
      .add("only_edited_kernel_recompiled", "bool", Clock::None, 1);
  for (const char *c : {"rrtmg_major", "rewrite_stress"})
    report.in("rewrite", c, "transforms")
        .add("byte_identical", "bool", Clock::None, 1)
        .add("visit_ratio", "ratio", Clock::None, 3.0);
  return report.document();
}

/// `doc` with `field` of the `case_name`/`metric` record set to `value`.
Json with_field(const Json &doc, const std::string &case_name,
                const std::string &metric, const std::string &field,
                Json value) {
  Json out = Json::array();
  for (Json r : doc.items()) {
    if (r["case"].as_string() == case_name && r["metric"].as_string() == metric)
      r.set(field, value);
    out.push_back(std::move(r));
  }
  return out;
}

Json with_value(const Json &doc, const std::string &case_name,
                const std::string &metric, Json value) {
  return with_field(doc, case_name, metric, "value", std::move(value));
}

/// `doc` without the `case_name`/`metric` record.
Json without(const Json &doc, const std::string &case_name,
             const std::string &metric) {
  Json out = Json::array();
  for (const Json &r : doc.items())
    if (r["case"].as_string() != case_name || r["metric"].as_string() != metric)
      out.push_back(r);
  return out;
}

}  // namespace

TEST(BenchRecord, PassingDocumentsPass) {
  for (const Json &doc : {hpcc_doc(), serve_doc(), compile_doc()}) {
    auto violations = eb::check_records(doc);
    EXPECT_TRUE(violations.empty()) << joined(violations);
  }
}

TEST(BenchRecord, HpccCorruptionsFail) {
  const Json doc = hpcc_doc();
  EXPECT_FALSE(passes(with_value(doc, "stream", "validated", 0)))
      << "validated=false must fail";
  EXPECT_FALSE(passes(with_value(doc, "gemm", "ratio", 1.5)))
      << "ratio above 1 must fail the sanity bound";
  EXPECT_FALSE(passes(with_value(doc, "ptrans", "error_over_epsilon", 1.0)))
      << "error == epsilon violates the strict error < epsilon contract";
  EXPECT_FALSE(passes(hpcc_doc({"stream", "gemm", "ptrans", "fft",
                                "randomaccess", "linpack"})))
      << "a missing workload must fail the completeness check";
  EXPECT_FALSE(passes(hpcc_doc({"stream", "gemm", "ptrans", "fft",
                                "randomaccess", "linpack", "b_eff", "stream"})))
      << "a duplicated workload must fail the completeness check";
  EXPECT_FALSE(passes(hpcc_doc({"stream", "gemm", "ptrans", "fft",
                                "randomaccess", "linpack", "b_eff", "hpl"})))
      << "an unexpected workload is judged by no gate";
  EXPECT_FALSE(passes(Json::array())) << "an empty document must fail";
  EXPECT_FALSE(passes(Json::object()));

  // The document round-trips through text.
  auto reparsed = Json::parse(doc.dump(2));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE(passes(*reparsed));
}

TEST(BenchRecord, SchemaViolationsFail) {
  const Json doc = hpcc_doc();
  EXPECT_FALSE(passes(with_value(doc, "fft", "measured", Json())))
      << "a null value must fail";
  // NaN is written as null, so it fails after the round trip too.
  auto nan = Json::parse(
      with_value(doc, "fft", "measured",
                 std::numeric_limits<double>::quiet_NaN())
          .dump());
  ASSERT_TRUE(nan.has_value());
  EXPECT_FALSE(passes(*nan));
  EXPECT_FALSE(passes(with_field(doc, "fft", "measured", "clock", "cpu")))
      << "an unknown clock must fail";
  EXPECT_FALSE(passes(without(doc, "device", "peak_link_gbps")))
      << "a gate that matches no record must fail";
}

TEST(BenchRecord, ViolatedGatesFail) {
  EXPECT_FALSE(passes(with_value(serve_doc(), "nodes_8", "speedup", 4.9)))
      << "speedup_8x 4.9 is under the 5x scaling gate";
  EXPECT_FALSE(
      passes(with_value(compile_doc(), "compile_many", "incremental_speedup",
                        2.9)))
      << "incremental_speedup 2.9 is under the 3x gate";
  EXPECT_FALSE(passes(with_value(serve_doc(), "overload", "shed", 0)))
      << "the overload segment must shed";
  EXPECT_FALSE(
      passes(with_value(compile_doc(), "rewrite_stress", "visit_ratio", 1.9)));
}

TEST(BenchRecord, AllocGateSkipsWhenTheCounterIsStubbed) {
  const Json heavy = with_value(compile_doc(), "clone", "allocs_per_cloned_op",
                                5.0);
  EXPECT_FALSE(passes(heavy));
  EXPECT_TRUE(passes(with_value(heavy, "clone", "alloc_counter_available", 0)));
}

TEST(BenchRecord, FinishWritesAndGatesTheDocument) {
  eb::BenchReport report;
  report.in("rewrite", "rrtmg_major", "transforms")
      .add("byte_identical", "bool", Clock::None, true);
  report.in("rewrite", "rewrite_stress", "transforms")
      .add("byte_identical", "bool", Clock::None, true)
      .add("visit_ratio", "ratio", Clock::None, 3.0);
  const std::string path = ::testing::TempDir() + "BENCH_record_test.json";
  EXPECT_EQ(report.finish(path), 0);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());

  report.in("rewrite", "rewrite_stress", "transforms")
      .add("wall_speedup", "x", Clock::Wall, std::nan(""));
  EXPECT_EQ(report.finish(path), 1);
}
