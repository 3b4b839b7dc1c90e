// Tests for the HPCC-FPGA workload suite (src/hpcc): randomized
// differential validation of every kernel against scalar host references,
// golden print->parse->print IR fixtures, the compile-cache behavior of the
// GEMM tile-size knob, and the partial-subscript gather regression the b_eff
// kernel depends on.

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "frontend/cfdlang_parser.hpp"
#include "frontend/condrust_parser.hpp"
#include "frontend/ekl_parser.hpp"
#include "hpcc/workloads.hpp"
#include "ir/parser.hpp"
#include "support/rng.hpp"
#include "transforms/ekl_eval.hpp"

namespace eh = everest::hpcc;
namespace er = everest::runtime;
namespace esup = everest::support;
using everest::numerics::Tensor;

namespace {

eh::HpccConfig small_config(std::int64_t n, std::uint64_t seed = 42) {
  eh::HpccConfig config;
  config.n = n;
  config.seed = seed;
  config.replications = 1;
  return config;
}

std::string read_file(const std::string &path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs one workload at several seeded random sizes; every run must
/// self-validate (error < epsilon) and land its roofline ratio in (0, 1].
void differential(eh::HpccBenchmark &benchmark, std::uint64_t seed) {
  esup::Pcg32 rng(seed);
  for (int round = 0; round < 3; ++round) {
    auto n = static_cast<std::int64_t>(8.0 + rng.uniform(0.0, 24.0));
    eh::HpccHarness harness(small_config(n, seed + round));
    auto result = benchmark.run(harness);
    ASSERT_TRUE(result.has_value())
        << benchmark.name() << " n=" << n << ": " << result.error().message;
    EXPECT_TRUE(result->validated) << benchmark.name() << " n=" << n;
    EXPECT_LT(result->error, result->epsilon) << benchmark.name() << " n=" << n;
    EXPECT_GT(result->ratio, 0.0) << benchmark.name() << " n=" << n;
    EXPECT_LE(result->ratio, 1.0) << benchmark.name() << " n=" << n;
    EXPECT_GT(result->device_us, 0.0) << benchmark.name() << " n=" << n;
  }
}

}  // namespace

// ------------------------------------------------- differential per kernel

TEST(HpccDifferential, Stream) {
  eh::StreamBenchmark b;
  differential(b, 101);
}

TEST(HpccDifferential, Gemm) {
  eh::GemmBenchmark b;
  differential(b, 102);
}

TEST(HpccDifferential, Ptrans) {
  eh::PtransBenchmark b;
  differential(b, 103);
}

TEST(HpccDifferential, Fft) {
  eh::FftBenchmark b;
  differential(b, 104);
}

TEST(HpccDifferential, RandomAccess) {
  eh::RandomAccessBenchmark b;
  differential(b, 105);
}

TEST(HpccDifferential, Linpack) {
  eh::LinpackBenchmark b;
  differential(b, 106);
}

TEST(HpccDifferential, Beff) {
  eh::BeffBenchmark b;
  differential(b, 107);
}

// --------------------------------------------------------- fold execution

TEST(HpccRandomAccess, FoldMatchesHostLoopForAnyWorkerCount) {
  eh::HpccHarness harness(small_config(16));
  auto source = harness.read_kernel("randomaccess.rs");
  ASSERT_TRUE(source.has_value()) << source.error().message;

  er::Record table{1.0, 2.0, 3.0, 4.0};
  const std::vector<std::pair<double, double>> updates = {
      {2, 0.5}, {0, -1.0}, {2, 0.25}, {3, 2.0}, {1, 0.125}, {99, 7.0}};
  er::Stream stream;
  for (auto [slot, add] : updates) stream.push_back({slot, add});

  er::Record expected = table;
  for (auto [slot, add] : updates) {
    auto i = std::min<std::size_t>(expected.size() - 1,
                                   static_cast<std::size_t>(slot));
    expected[i] += add;
  }

  for (int workers : {1, 4}) {
    auto graph = eh::make_randomaccess_graph(*source, table);
    ASSERT_TRUE(graph.has_value()) << graph.error().message;
    auto outputs = er::execute_dfg(*graph->graph, *graph->registry,
                                   {{"updates", stream}},
                                   {.workers = workers});
    ASSERT_TRUE(outputs.has_value()) << outputs.error().message;
    ASSERT_EQ(outputs->at("table").size(), 1u);
    EXPECT_EQ(outputs->at("table").front(), expected)
        << "workers=" << workers;
  }
}

// ----------------------------------------------------------- compile cache

TEST(HpccCache, GemmTileSizeChangeMissesContentTierIdenticalRecompileHits) {
  eh::HpccHarness harness(small_config(8));
  esup::Pcg32 rng(7);
  everest::transforms::EklBindings bind;
  auto fill = [&](std::int64_t rows, std::int64_t cols) {
    Tensor t({rows, cols});
    for (double &v : t.data()) v = rng.uniform(-1.0, 1.0);
    return t;
  };
  bind.inputs.emplace("a", fill(8, 8));
  bind.inputs.emplace("b", fill(8, 8));
  bind.inputs.emplace("c0", fill(8, 8));

  auto first = harness.compile_kernel("gemm.ekl", bind);
  ASSERT_TRUE(first.has_value()) << first.error().message;
  auto hits_after_first = harness.cache().hits();
  auto misses_after_first = harness.cache().misses();
  EXPECT_GT(misses_after_first, 0) << "cold compile must miss";

  // Identical recompile: same source, bindings, and options — must hit.
  auto second = harness.compile_kernel("gemm.ekl", bind);
  ASSERT_TRUE(second.has_value()) << second.error().message;
  EXPECT_GT(harness.cache().hits(), hits_after_first);
  EXPECT_EQ(harness.cache().misses(), misses_after_first);
  EXPECT_EQ(second->loop_ir->str(), first->loop_ir->str())
      << "cache hit must reproduce the compiled IR byte-for-byte";

  // The PLM tile size is part of the options fingerprint: changing it must
  // bypass both the direct tier and the content tier.
  auto retiled_options = harness.base_options();
  retiled_options.olympus.plm_tile_bytes = harness.config().tile_bytes / 2;
  ASSERT_NE(eh::HpccConfig{}.tile_bytes, retiled_options.olympus.plm_tile_bytes);
  auto hits_before_retile = harness.cache().hits();
  auto retiled = harness.compile_kernel("gemm.ekl", bind, retiled_options);
  ASSERT_TRUE(retiled.has_value()) << retiled.error().message;
  EXPECT_GT(harness.cache().misses(), misses_after_first)
      << "tile-size change must miss the content tier";
  EXPECT_EQ(harness.cache().hits(), hits_before_retile);
}

// -------------------------------------------------------- gather regression

TEST(HpccGather, PartialSubscriptKeepsTrailingDims) {
  // m[r] subscripts only the leading dim of the 2-d tensor m; the trailing
  // dim must keep its declared index name i, so sum(i) m[r] is a row sum.
  // (A dropped trailing dim collapses the type and loses the i axis.)
  auto module = everest::frontend::parse_ekl(R"(
kernel rowsum
index r, i
input m[r, i]
s = sum(i) m[r]
output s
)");
  ASSERT_TRUE(module.has_value()) << module.error().message;
  everest::transforms::EklBindings bind;
  Tensor m({2, 3});
  for (std::int64_t r = 0; r < 2; ++r)
    for (std::int64_t i = 0; i < 3; ++i)
      m(r, i) = static_cast<double>(10 * r + i + 1);
  bind.inputs.emplace("m", std::move(m));
  auto outputs = everest::transforms::evaluate_ekl(**module, bind);
  ASSERT_TRUE(outputs.has_value()) << outputs.error().message;
  const Tensor &s = outputs->at("s");
  ASSERT_EQ(s.shape(), (everest::numerics::Shape{2}));
  EXPECT_DOUBLE_EQ(s(0), 1.0 + 2.0 + 3.0);
  EXPECT_DOUBLE_EQ(s(1), 11.0 + 12.0 + 13.0);
}

// ---------------------------------------------------------- golden fixtures

TEST(HpccFixtures, GoldenPrintParsePrintIsByteStable) {
  eh::HpccHarness harness(small_config(8));
  const std::string dir = harness.config().data_dir + "/";
  struct Entry {
    const char *source;
    const char *golden;
    int kind;  // 0 = ekl, 1 = cfdlang, 2 = condrust
  };
  const Entry entries[] = {
      {"stream.ekl", "stream.ir", 0},
      {"gemm.ekl", "gemm.ir", 0},
      {"ptrans.ekl", "ptrans.ir", 0},
      {"fft.ekl", "fft.ir", 0},
      {"randomaccess.ekl", "randomaccess.ir", 0},
      {"linpack.ekl", "linpack.ir", 0},
      {"beff.ekl", "beff.ir", 0},
      {"ptrans.cfd", "ptrans_cfd.ir", 1},
      {"randomaccess.rs", "randomaccess_rs.ir", 2},
  };
  for (const Entry &e : entries) {
    SCOPED_TRACE(e.source);
    std::string source = read_file(dir + e.source);
    std::string golden = read_file(dir + e.golden);
    std::shared_ptr<everest::ir::Module> module;
    if (e.kind == 0) {
      auto parsed = everest::frontend::parse_ekl(source);
      ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
      module = *parsed;
    } else if (e.kind == 1) {
      auto parsed = everest::frontend::parse_cfdlang(source);
      ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
      module = *parsed;
    } else {
      auto parsed = everest::frontend::parse_condrust(source);
      ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
      module = *parsed;
    }
    EXPECT_EQ(module->str(), golden)
        << "frontend print diverged from the golden fixture";
    // Round-trip: the printed text must re-parse and print byte-identically.
    auto reparsed = everest::ir::parse_module(golden);
    ASSERT_TRUE(reparsed.has_value()) << reparsed.error().message;
    EXPECT_EQ((*reparsed)->str(), golden)
        << "IR print -> parse -> print is not a fixpoint";
  }
}

// -------------------------------------------------------------------- args

TEST(HpccArgs, ParsesFlagsAndRejectsBadInput) {
  const char *argv[] = {"bench_hpcc",       "--n=128",       "--replications=3",
                        "--target=cloudfpga", "--seed=7",    "--tile-bytes=65536",
                        "--world=6",        "--out=custom.json"};
  auto config = eh::parse_hpcc_args(8, argv);
  ASSERT_TRUE(config.has_value()) << config.error().message;
  EXPECT_EQ(config->n, 128);
  EXPECT_EQ(config->replications, 3);
  EXPECT_EQ(config->target, "cloudfpga");
  EXPECT_EQ(config->seed, 7u);
  EXPECT_EQ(config->tile_bytes, 65536);
  EXPECT_EQ(config->beff_world, 6);
  EXPECT_EQ(config->out, "custom.json");

  const char *unknown[] = {"bench_hpcc", "--bogus=1"};
  EXPECT_FALSE(eh::parse_hpcc_args(2, unknown).has_value());
  const char *tiny[] = {"bench_hpcc", "--n=2"};
  EXPECT_FALSE(eh::parse_hpcc_args(2, tiny).has_value());
  const char *text[] = {"bench_hpcc", "--n=abc"};
  EXPECT_FALSE(eh::parse_hpcc_args(2, text).has_value());
}
