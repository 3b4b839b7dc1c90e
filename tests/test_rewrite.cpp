// Rewrite-driver tests (labels: perf, concurrency — the differential tests
// also run under the tsan preset): randomized differential equivalence
// between the worklist driver and the legacy full-module sweep, worklist
// re-enqueue of pattern-created ops, non-convergence reporting through obs
// counters and canonicalize_checked, a perf smoke asserting worklist visits
// scale with the amount of change, and multi-threaded driver/compile runs.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ir/builder.hpp"
#include "ir/ir.hpp"
#include "ir/rewrite.hpp"
#include "obs/trace.hpp"
#include "sdk/basecamp.hpp"
#include "support/rng.hpp"
#include "transforms/canonicalize.hpp"
#include "usecases/rrtmg.hpp"

namespace ei = everest::ir;
namespace eo = everest::obs;
namespace es = everest::sdk;
namespace et = everest::transforms;
namespace rr = everest::usecases::rrtmg;

namespace {

const ei::Type kF64 = ei::Type::floating(64);

/// A random arith DAG: opaque sources the folder cannot see through, small
/// integer constants (including the 0.0/1.0 the identity patterns care
/// about), a pile of binary/unary arith ops over earlier values, sometimes a
/// nested region, and a sink keeping a random subset alive. Everything else
/// is fair game for folding and DCE.
std::unique_ptr<ei::Module> random_arith_module(std::uint64_t seed) {
  everest::support::Pcg32 rng(seed);
  auto module = std::make_unique<ei::Module>();
  ei::OpBuilder b(&module->body());

  std::vector<ei::Value *> pool;
  const std::size_t nsrc = 2 + rng.next() % 3;
  for (std::size_t i = 0; i < nsrc; ++i) {
    pool.push_back(b.create_value(
        "test.source", {}, kF64,
        {{"id", static_cast<std::int64_t>(i)}}));
  }
  const std::size_t nconst = 3 + rng.next() % 4;
  for (std::size_t i = 0; i < nconst; ++i) {
    pool.push_back(
        b.constant_f64(static_cast<double>(rng.next() % 7) - 2.0));
  }

  static const char *const kBinary[] = {"arith.addf", "arith.subf",
                                        "arith.mulf", "arith.divf",
                                        "arith.minf", "arith.maxf"};
  auto pick = [&] { return pool[rng.next() % pool.size()]; };
  const std::size_t nops = 20 + rng.next() % 31;
  for (std::size_t i = 0; i < nops; ++i) {
    if (rng.next() % 8 == 0) {
      pool.push_back(b.create_value("arith.negf", {pick()}, kF64));
    } else {
      pool.push_back(
          b.create_value(kBinary[rng.next() % 6], {pick(), pick()}, kF64));
    }
  }

  if (rng.next() % 2 == 0) {
    ei::Operation *region_op = ei::Operation::create(
        module->arena(), ei::Symbol("test.region"), {}, {}, {}, 1);
    ei::Block &inner = region_op->region(0).add_block();
    ei::OpBuilder ib(&inner);
    ei::Value *c0 = ib.constant_f64(static_cast<double>(rng.next() % 5));
    ei::Value *c1 = ib.constant_f64(static_cast<double>(rng.next() % 5));
    ei::Value *sum = ib.create_value("arith.addf", {c0, c1}, kF64);
    ei::Value *dead = ib.create_value("arith.mulf", {sum, c0}, kF64);
    (void)dead;  // unused: DCE food inside a nested region
    ib.create("test.sink", {sum}, {});
    module->body().attach(region_op);
  }

  std::vector<ei::Value *> live;
  for (ei::Value *v : pool) {
    if (rng.next() % 2 == 0) live.push_back(v);
  }
  if (live.empty()) live.push_back(pool.back());
  b.create("test.sink", live, {});
  return module;
}

/// The canonicalize pattern set, optionally extended with an expansion
/// pattern (subf -> addf(lhs, negf(rhs))) whose created negf/addf ops are
/// themselves matched by the fold patterns — the re-enqueue path.
std::vector<std::shared_ptr<ei::RewritePattern>> differential_patterns(
    bool with_expansion) {
  auto patterns = et::canonicalize_patterns();
  if (with_expansion) {
    patterns.push_back(std::make_shared<ei::LambdaPattern>(
        "arith.subf", [](ei::Operation &op, ei::PatternRewriter &rw) {
          ei::Value *neg = rw.create_value_before(&op, "arith.negf",
                                                  {op.operand(1)}, kF64);
          ei::Value *add = rw.create_value_before(
              &op, "arith.addf", {op.operand(0), neg}, kF64);
          rw.replace_op(&op, {add});
          return true;
        }));
  }
  return patterns;
}

/// Runs both drivers on clones of `module`; returns false (and fills `why`)
/// on any divergence. Thread-safe: touches only its own clones.
bool drivers_agree(const ei::Module &module, bool with_expansion,
                   std::string *why) {
  auto patterns = differential_patterns(with_expansion);
  ei::Module wl_mod = ei::clone_module(module);
  ei::Module lg_mod = ei::clone_module(module);
  auto wl = ei::apply_patterns_greedily(wl_mod, patterns,
                                        /*max_iterations=*/64,
                                        ei::RewriteDriver::Worklist);
  auto lg = ei::apply_patterns_greedily(lg_mod, patterns,
                                        /*max_iterations=*/64,
                                        ei::RewriteDriver::LegacySweep);
  if (!wl.converged || !lg.converged) {
    *why = "driver did not converge";
    return false;
  }
  if (wl.rewrites != lg.rewrites) {
    *why = "rewrites " + std::to_string(wl.rewrites) + " vs " +
           std::to_string(lg.rewrites);
    return false;
  }
  const std::string wl_text = wl_mod.str();
  const std::string lg_text = lg_mod.str();
  if (wl_text != lg_text) {
    *why = "modules diverged:\n--- worklist ---\n" + wl_text +
           "--- legacy ---\n" + lg_text;
    return false;
  }
  return true;
}

}  // namespace

// ------------------------------------------------------- Differential tests

TEST(RewriteDifferential, RandomModulesRewriteIdentically) {
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    auto module = random_arith_module(seed);
    for (bool with_expansion : {false, true}) {
      std::string why;
      EXPECT_TRUE(drivers_agree(*module, with_expansion, &why))
          << "seed " << seed << " expansion=" << with_expansion << ": " << why;
      ++checked;
    }
  }
  EXPECT_GE(checked, 100);
}

TEST(RewriteDifferential, ExpansionChainCollapsesToConstant) {
  // subf(3, 1) expands to addf(3, negf(1)); negf folds, then addf folds.
  // Both drivers must land on the single constant 2.0.
  ei::Module module;
  ei::OpBuilder b(&module.body());
  ei::Value *lhs = b.constant_f64(3.0);
  ei::Value *rhs = b.constant_f64(1.0);
  ei::Value *diff = b.create_value("arith.subf", {lhs, rhs}, kF64);
  b.create("test.sink", {diff}, {});

  std::string why;
  ASSERT_TRUE(drivers_agree(module, /*with_expansion=*/true, &why)) << why;

  auto patterns = differential_patterns(/*with_expansion=*/true);
  auto stats = ei::apply_patterns_greedily(module, patterns);
  EXPECT_TRUE(stats.converged);
  module.walk([](ei::Operation &op) {
    EXPECT_TRUE(op.name() == "arith.constant" || op.name() == "test.sink")
        << op.name();
  });
  ei::Operation *c = module.find_first("arith.constant");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->attr_double("value"), 2.0);
}

// ----------------------------------------------------- Worklist re-enqueue

TEST(RewriteWorklist, CreatedOpsAreReenqueued) {
  // Pattern A rewrites test.make into test.made; pattern B folds test.made
  // to a constant. Under the worklist driver B can only see the op if A's
  // creation was re-enqueued.
  ei::Module module;
  ei::OpBuilder b(&module.body());
  ei::Value *v = b.create_value("test.make", {}, kF64);
  b.create("test.sink", {v}, {});

  std::vector<std::shared_ptr<ei::RewritePattern>> patterns;
  patterns.push_back(std::make_shared<ei::LambdaPattern>(
      "test.make", [](ei::Operation &op, ei::PatternRewriter &rw) {
        ei::Value *made = rw.create_value_before(&op, "test.made", {}, kF64);
        rw.replace_op(&op, {made});
        return true;
      }));
  patterns.push_back(std::make_shared<ei::LambdaPattern>(
      "test.made", [](ei::Operation &op, ei::PatternRewriter &rw) {
        ei::Value *c = rw.create_value_before(
            &op, "arith.constant", {}, kF64, {{"value", 7.0}});
        rw.replace_op(&op, {c});
        return true;
      }));

  auto stats = ei::apply_patterns_greedily(module, patterns, 16,
                                           ei::RewriteDriver::Worklist);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.rewrites, 2u);
  EXPECT_EQ(module.find_first("test.make"), nullptr);
  EXPECT_EQ(module.find_first("test.made"), nullptr);
  ei::Operation *c = module.find_first("arith.constant");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->attr_double("value"), 7.0);
}

// ------------------------------------------------------------- Perf smoke

TEST(RewritePerf, WorklistVisitsScaleWithChangeNotModuleSize) {
  // A module that is mostly inert: opaque ops no pattern matches, plus one
  // long dead chain. The legacy sweep pays a full module walk for every
  // cascade level; the worklist only revisits what the erasures touch.
  ei::Module module;
  ei::OpBuilder b(&module.body());
  ei::Value *src = b.create_value("test.source", {}, kF64);
  std::vector<ei::Value *> keep;
  for (int i = 0; i < 120; ++i)
    keep.push_back(b.create_value("test.opaque", {src}, kF64));
  ei::Value *chain = b.create_value("arith.addf", {src, src}, kF64);
  for (int i = 0; i < 40; ++i)
    chain = b.create_value("arith.mulf", {chain, src}, kF64);
  // `chain` is never consumed: a 41-deep dead chain.
  keep.push_back(src);
  b.create("test.sink", keep, {});

  const std::size_t module_size = module.op_count();
  auto patterns = et::canonicalize_patterns();
  ei::Module wl_mod = ei::clone_module(module);
  auto wl = ei::apply_patterns_greedily(wl_mod, patterns,
                                        /*max_iterations=*/64,
                                        ei::RewriteDriver::Worklist);
  ei::Module lg_mod = ei::clone_module(module);
  auto lg = ei::apply_patterns_greedily(lg_mod, patterns,
                                        /*max_iterations=*/64,
                                        ei::RewriteDriver::LegacySweep);

  ASSERT_TRUE(wl.converged);
  ASSERT_TRUE(lg.converged);
  EXPECT_EQ(wl_mod.str(), lg_mod.str());
  // The legacy driver erases one dead-chain level per sweep.
  EXPECT_GT(lg.iterations, 40u);
  // The worklist must beat "iterations x module size" by a wide margin, and
  // strictly beat the sweep driver outright.
  EXPECT_LT(wl.ops_visited, lg.iterations * module_size);
  EXPECT_LT(wl.ops_visited, lg.ops_visited);
  // It should be within a small constant of (module size + chain length),
  // not proportional to sweeps x size; 3x covers re-pushed neighbors.
  EXPECT_LT(wl.ops_visited, 3 * module_size);
}

// -------------------------------------------------- Non-convergence + obs

TEST(RewriteObs, NonConvergenceBumpsCounterAndReportsStats) {
  eo::TraceRecorder recorder;
  eo::ScopedGlobalRecorder scope(&recorder);

  ei::Module module;
  ei::OpBuilder b(&module.body());
  b.constant_f64(0.0);
  auto bump = std::make_shared<ei::LambdaPattern>(
      "arith.constant", [](ei::Operation &op, ei::PatternRewriter &) {
        op.set_attr("value", ei::Attribute(op.attr_double("value") + 1.0));
        return true;
      });
  auto stats = ei::apply_patterns_greedily(
      module, {bump}, /*max_iterations=*/3, ei::RewriteDriver::Worklist);
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(recorder.counter("ir.rewrite.nonconverged").value(), 1);
  EXPECT_EQ(recorder.counter("ir.rewrite.fires.arith.constant").value(), 3);
  EXPECT_GE(recorder.counter("ir.rewrite.ops_visited").value(), 3);
  EXPECT_GE(recorder.counter("ir.rewrite.worklist_pushes").value(), 1);
}

TEST(RewriteObs, CanonicalizeCheckedSurfacesNonConvergence) {
  auto make_foldable = [] {
    auto module = std::make_unique<ei::Module>();
    ei::OpBuilder b(&module->body());
    ei::Value *sum =
        b.create_value("arith.addf", {b.constant_f64(1.0), b.constant_f64(2.0)},
                       kF64);
    b.create("test.sink", {sum}, {});
    return module;
  };

  // One outer iteration cannot both rewrite and re-verify the fixpoint.
  auto strict = make_foldable();
  et::CanonicalizeStats stats;
  auto status = et::canonicalize_checked(*strict, &stats,
                                         /*max_iterations=*/1);
  EXPECT_FALSE(status.is_ok());
  EXPECT_FALSE(stats.converged);
  EXPECT_NE(status.message().find("no fixpoint"), std::string::npos);

  // With the default budget the same module converges cleanly.
  auto relaxed = make_foldable();
  EXPECT_TRUE(et::canonicalize_checked(*relaxed).is_ok());
}

// ---------------------------------------------------------- Concurrency

TEST(RewriteConcurrency, DifferentialAcrossThreads) {
  // Every thread builds, rewrites, and prints its own modules; the shared
  // state under test is the process-wide identifier interner.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kSeedsPerThread = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &failures] {
      for (std::uint64_t i = 0; i < kSeedsPerThread; ++i) {
        const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(t) * 100 + i;
        auto module = random_arith_module(seed);
        std::string why;
        if (!drivers_agree(*module, /*with_expansion=*/true, &why))
          failures.fetch_add(1);
      }
    });
  }
  for (auto &thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(RewriteConcurrency, ParallelCompileManyMatchesSerial) {
  // End to end: the worklist driver runs inside canonicalize inside
  // Basecamp; eight workers must reproduce the serial artifacts bytewise.
  std::vector<es::CompileJob> jobs;
  for (std::int64_t ncells : {8, 16}) {
    rr::Config cfg;
    cfg.ncells = ncells;
    rr::Data data = rr::make_data(cfg);
    es::CompileJob job;
    job.kind = es::CompileJob::Kind::Ekl;
    job.name = "rrtmg-" + std::to_string(ncells);
    job.source = rr::ekl_source();
    job.bindings = rr::bindings(data);
    jobs.push_back(std::move(job));
  }

  es::Basecamp serial;
  auto baseline = serial.compile_many(jobs, 1);
  ASSERT_EQ(baseline.size(), jobs.size());
  es::Basecamp parallel;
  auto results = parallel.compile_many(jobs, 8);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(baseline[i].has_value()) << baseline[i].error().message;
    ASSERT_TRUE(results[i].has_value()) << results[i].error().message;
    EXPECT_EQ(baseline[i]->teil_ir->str(), results[i]->teil_ir->str());
    EXPECT_EQ(baseline[i]->loop_ir->str(), results[i]->loop_ir->str());
    EXPECT_EQ(baseline[i]->system_ir->str(), results[i]->system_ir->str());
  }
}
