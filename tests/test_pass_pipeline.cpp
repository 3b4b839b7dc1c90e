// Pass-pipeline tests: anchoring semantics and the per-pass incremental
// cache. Func-anchored passes run once per top-level func, in module order,
// on the calling thread; the randomized cases check that replaying a
// pipeline from a warm per-pass cache is byte-identical to running it cold.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <thread>
#include <vector>

#include "ir/builder.hpp"
#include "ir/ir.hpp"
#include "ir/pass.hpp"
#include "sdk/compile_cache.hpp"
#include "transforms/canonicalize.hpp"

namespace ei = everest::ir;
namespace es = everest::support;

namespace {

// A teil.func whose body is a random DAG of f64 arithmetic with deliberate
// redundancy (duplicate subexpressions for CSE, unused results for DCE) so
// canonicalize has real work to do per func.
void add_random_func(ei::Module &m, const std::string &name,
                     std::mt19937 &rng, std::size_t num_ops) {
  ei::Operation *func = ei::Operation::create(
      m.arena(), ei::Symbol("teil.func"), {}, {},
      {{"sym_name", ei::Attribute(name)}}, 1);
  ei::Block &body = func->region(0).add_block();
  ei::OpBuilder b(&body);

  std::uniform_real_distribution<double> lit(-4.0, 4.0);
  std::vector<ei::Value *> vals;
  vals.push_back(b.constant_f64(lit(rng)));
  vals.push_back(b.constant_f64(lit(rng)));
  for (std::size_t i = 0; i < num_ops; ++i) {
    std::uniform_int_distribution<std::size_t> pick(0, vals.size() - 1);
    ei::Value *lhs = vals[pick(rng)];
    ei::Value *rhs = vals[pick(rng)];
    const char *op = (rng() % 2 == 0) ? "arith.addf" : "arith.mulf";
    ei::Value *v = b.create_value(op, {lhs, rhs}, ei::Type::floating(64));
    // Sometimes emit an exact duplicate (CSE fodder) or leave a value with
    // no eventual consumer (DCE fodder).
    if (rng() % 4 == 0)
      b.create_value(op, {lhs, rhs}, ei::Type::floating(64));
    if (rng() % 3 != 0) vals.push_back(v);
  }
  b.create("teil.output", {vals.back()}, {},
           {{"name", ei::Attribute(std::string("out"))}});
  m.body().attach(func);
}

ei::Module build_random_module(unsigned seed, std::size_t num_funcs,
                               std::size_t ops_per_func) {
  std::mt19937 rng(seed);
  ei::Module m;
  for (std::size_t i = 0; i < num_funcs; ++i)
    add_random_func(m, "k" + std::to_string(i), rng, ops_per_func);
  return m;
}

// The reference pipeline used by the differential tests: canonicalize each
// func, then tag it so we can observe that every func was visited.
void add_reference_pipeline(ei::PassManager &pm) {
  pm.add_func_pass("canonicalize", [](ei::Operation &func, ei::Context &) {
    return everest::transforms::canonicalize_func_checked(func);
  });
  pm.add_func_pass("tag", [](ei::Operation &func, ei::Context &) {
    func.set_attr("pipeline.done", ei::Attribute(true));
    return es::Status::ok();
  });
}

}  // namespace

// ----------------------------------------------------------------- Anchoring

TEST(PassPipeline, ModuleAndFuncAnchorsDispatchCorrectly) {
  ei::Context ctx;
  ei::Module m = build_random_module(/*seed=*/1, /*num_funcs=*/3,
                                     /*ops_per_func=*/6);

  int module_runs = 0;
  int func_runs = 0;
  ei::PassManager pm(ctx);
  pm.add_pass("count-module", [&](ei::Module &, ei::Context &) {
    ++module_runs;
    return es::Status::ok();
  });
  pm.add_func_pass("count-func", [&](ei::Operation &, ei::Context &) {
    ++func_runs;
    return es::Status::ok();
  });
  es::Status st = pm.run(m);
  ASSERT_TRUE(st.is_ok()) << st.message();
  EXPECT_EQ(module_runs, 1);
  EXPECT_EQ(func_runs, 3);  // once per top-level func op

  // Timings cover both anchors, in pipeline order.
  ASSERT_EQ(pm.timings().size(), 2u);
  EXPECT_EQ(pm.timings()[0].name, "count-module");
  EXPECT_EQ(pm.timings()[1].name, "count-func");
}

TEST(PassPipeline, FuncPassFailurePropagates) {
  ei::Context ctx;
  ei::Module m = build_random_module(2, 2, 4);
  ei::PassManager pm(ctx);
  pm.add_func_pass("fail", [](ei::Operation &func, ei::Context &) {
    if (func.attr("sym_name")->as_string() == "k1")
      return es::Status::failure("injected failure");
    return es::Status::ok();
  });
  auto status = pm.run(m);
  EXPECT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("injected failure"), std::string::npos);
}

TEST(PassPipeline, FuncPassVisitsEachFuncOnceInModuleOrderOnCallerThread) {
  ei::Context ctx;
  ei::Module m = build_random_module(/*seed=*/5, /*num_funcs=*/5,
                                     /*ops_per_func=*/4);
  std::vector<std::string> visited;
  bool on_caller_thread = true;
  const std::thread::id caller = std::this_thread::get_id();
  ei::PassManager pm(ctx);
  pm.add_func_pass("record", [&](ei::Operation &func, ei::Context &) {
    visited.push_back(func.attr("sym_name")->as_string());
    on_caller_thread =
        on_caller_thread && std::this_thread::get_id() == caller;
    return es::Status::ok();
  });
  ASSERT_TRUE(pm.run(m).is_ok());
  EXPECT_EQ(visited,
            (std::vector<std::string>{"k0", "k1", "k2", "k3", "k4"}));
  EXPECT_TRUE(on_caller_thread);
}

// ------------------------------------------------ Cold vs warm cache replay

TEST(PassPipeline, RandomizedColdVsWarmCacheReplay) {
  for (unsigned seed = 0; seed < 8; ++seed) {
    everest::sdk::PassResultCache cache;
    ei::Module cold_mod = build_random_module(seed, 6, 24);
    ei::Module warm_mod = ei::clone_module(cold_mod);
    ASSERT_EQ(cold_mod.str(), warm_mod.str()) << "seed " << seed;

    ei::Context ctx;
    ei::PassManager cold_pm(ctx);
    add_reference_pipeline(cold_pm);
    cold_pm.set_pass_cache(&cache);
    ASSERT_TRUE(cold_pm.run(cold_mod).is_ok()) << "seed " << seed;
    EXPECT_EQ(cold_pm.cache_stats().misses, 12u) << "seed " << seed;

    ei::PassManager warm_pm(ctx);
    add_reference_pipeline(warm_pm);
    warm_pm.set_pass_cache(&cache);
    ASSERT_TRUE(warm_pm.run(warm_mod).is_ok()) << "seed " << seed;
    EXPECT_EQ(warm_pm.cache_stats().hits, 12u) << "seed " << seed;

    // Replaying every func from the cache is unobservable.
    EXPECT_EQ(cold_mod.str(), warm_mod.str()) << "seed " << seed;

    // And the pipeline actually changed the IR (passes were not no-ops).
    ASSERT_EQ(cold_pm.timings().size(), 2u);
    EXPECT_LT(cold_pm.timings()[0].ops_after, cold_pm.timings()[0].ops_before)
        << "seed " << seed;
  }
}

// ----------------------------------------------------- Per-pass cache tier

TEST(PassPipeline, PassCacheHitsOnSecondRunAndStaysByteIdentical) {
  everest::sdk::PassResultCache cache;

  ei::Module first = build_random_module(7, 4, 16);
  ei::Module second = ei::clone_module(first);

  ei::Context ctx;
  ei::PassManager cold(ctx);
  add_reference_pipeline(cold);
  cold.set_pass_cache(&cache);
  ASSERT_TRUE(cold.run(first).is_ok());
  EXPECT_EQ(cold.cache_stats().hits, 0);
  EXPECT_EQ(cold.cache_stats().misses, 8);  // 4 funcs x 2 func passes
  EXPECT_EQ(cache.misses(), 8);

  ei::PassManager warm(ctx);
  add_reference_pipeline(warm);
  warm.set_pass_cache(&cache);
  ASSERT_TRUE(warm.run(second).is_ok());
  EXPECT_EQ(warm.cache_stats().hits, 8);
  EXPECT_EQ(warm.cache_stats().misses, 0);
  EXPECT_EQ(cache.hits(), 8);

  // A cached replay must be indistinguishable from the real pipeline.
  EXPECT_EQ(second.str(), first.str());
}

TEST(PassPipeline, OneKernelEditOnlyReRunsThatKernel) {
  everest::sdk::PassResultCache cache;

  ei::Module before = build_random_module(11, 3, 12);
  ei::Module after = ei::clone_module(before);
  // Edit exactly one kernel: append an extra op to k1's body.
  {
    ei::Operation *k1 = nullptr;
    for (ei::Operation &op : after.body()) {
      if (const ei::Attribute *sym = op.attr("sym_name");
          sym && sym->as_string() == "k1")
        k1 = &op;
    }
    ASSERT_NE(k1, nullptr);
    ei::OpBuilder b(&k1->region(0).front());
    ei::Value *c = b.constant_f64(123.0);
    b.create("teil.output", {c}, {},
             {{"name", ei::Attribute(std::string("extra"))}});
  }

  ei::Context ctx;
  ei::PassManager cold(ctx);
  add_reference_pipeline(cold);
  cold.set_pass_cache(&cache);
  ASSERT_TRUE(cold.run(before).is_ok());
  EXPECT_EQ(cold.cache_stats().misses, 6);  // 3 funcs x 2 passes

  ei::PassManager warm(ctx);
  add_reference_pipeline(warm);
  warm.set_pass_cache(&cache);
  ASSERT_TRUE(warm.run(after).is_ok());
  // k0 and k2 replay from the cache for both passes; only the edited k1
  // misses. (Its "tag" stage also misses: the edit changes the text that
  // feeds the second pass's fingerprint.)
  EXPECT_EQ(warm.cache_stats().hits, 4);
  EXPECT_EQ(warm.cache_stats().misses, 2);
}

TEST(PassPipeline, FingerprintSeparatesPassesAndBodies) {
  const std::uint64_t a = ei::pass_fingerprint("canonicalize", "body-1");
  const std::uint64_t b = ei::pass_fingerprint("canonicalize", "body-2");
  const std::uint64_t c = ei::pass_fingerprint("tag", "body-1");
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, ei::pass_fingerprint("canonicalize", "body-1"));
}

TEST(PassPipeline, PassResultCacheEvictsWholesaleAtCapacity) {
  everest::sdk::PassResultCache cache(/*capacity=*/2);
  ei::Module m = build_random_module(21, 1, 4);
  const ei::Operation &func = m.body().front();
  cache.store(1, func);
  cache.store(2, func);
  EXPECT_EQ(cache.size(), 2u);
  cache.store(3, func);  // over capacity: wholesale reset, then insert
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
}
