// Concurrency tests (run under the tsan preset, CTest label "concurrency"):
// the support::ThreadPool itself, the determinism of parallel Basecamp
// compilation — compile_many(jobs=N) must be byte-identical to the serial
// path for any N — and multi-threaded stresses of the compile cache (whose
// hits are shared, immutable modules) and of the per-pass result tier.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "ir/pass.hpp"
#include "sdk/basecamp.hpp"
#include "sdk/compile_cache.hpp"
#include "support/thread_pool.hpp"
#include "transforms/loop_eval.hpp"
#include "usecases/rrtmg.hpp"

namespace es = everest::sdk;
namespace esup = everest::support;
namespace rr = everest::usecases::rrtmg;

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  esup::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto a = pool.submit([] { return 40 + 2; });
  auto b = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(a.get(), 42);
  EXPECT_EQ(b.get(), "ok");
}

TEST(ThreadPoolTest, ClampsToAtLeastOneWorker) {
  esup::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ExceptionsSurfaceThroughFutures) {
  esup::ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, WaitIdleDrainsEverything) {
  esup::ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i)
    pool.submit([&done] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 50);
  EXPECT_EQ(pool.queued(), 0u);
  EXPECT_EQ(pool.active(), 0u);
}

TEST(ThreadPoolTest, ObserverSeesQueueTransitions) {
  esup::ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.set_observer([&](std::size_t, std::size_t) { calls.fetch_add(1); });
  for (int i = 0; i < 10; ++i) pool.submit([] {});
  pool.wait_idle();
  // At least one notification per enqueue and one per completion.
  EXPECT_GE(calls.load(), 20);
}

TEST(ThreadPoolTest, ParallelIndexedPreservesOrder) {
  auto square = [](std::size_t i) { return static_cast<int>(i * i); };
  // Inline path (no pool) and pooled path must agree element-for-element.
  auto inline_results = esup::parallel_indexed(nullptr, 16, square);
  esup::ThreadPool pool(4);
  auto pooled = esup::parallel_indexed(&pool, 16, square);
  EXPECT_EQ(inline_results, pooled);
  for (std::size_t i = 0; i < pooled.size(); ++i)
    EXPECT_EQ(pooled[i], static_cast<int>(i * i));
}

// ---------------------------------------------------------------------------
// Parallel compilation determinism

namespace {

std::vector<es::CompileJob> make_jobs() {
  std::vector<es::CompileJob> jobs;
  for (std::int64_t ncells : {8, 16, 32}) {
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
  es::CompileJob mm;
  mm.kind = es::CompileJob::Kind::Cfdlang;
  mm.name = "mm";
  mm.source = R"(
program mm
input A : [16, 24]
input B : [24, 8]
output C = contract(outer(A, B), 1, 2)
)";
  jobs.push_back(std::move(mm));
  return jobs;
}

/// Asserts two compiles of the same job produced the same artifacts: IR
/// module texts, stage-name sequence, HLS schedule, and system estimate.
/// (Wall-clock ms naturally differ.)
void expect_equivalent(const es::CompileResult &a, const es::CompileResult &b,
                       bool compare_stages = true) {
  EXPECT_EQ(a.frontend_ir->str(), b.frontend_ir->str());
  EXPECT_EQ(a.teil_ir->str(), b.teil_ir->str());
  EXPECT_EQ(a.loop_ir->str(), b.loop_ir->str());
  EXPECT_EQ(a.system_ir->str(), b.system_ir->str());
  EXPECT_EQ(a.datapath_bits, b.datapath_bits);
  EXPECT_EQ(a.ekl_source_lines, b.ekl_source_lines);
  EXPECT_EQ(a.device.name, b.device.name);

  if (compare_stages) {
    ASSERT_EQ(a.timings.size(), b.timings.size());
    for (std::size_t i = 0; i < a.timings.size(); ++i)
      EXPECT_EQ(a.timings[i].stage, b.timings[i].stage) << "stage " << i;
  }

  EXPECT_EQ(a.kernel.name, b.kernel.name);
  EXPECT_EQ(a.kernel.total_cycles, b.kernel.total_cycles);
  EXPECT_EQ(a.kernel.dataflow_cycles, b.kernel.dataflow_cycles);
  EXPECT_EQ(a.kernel.area.luts, b.kernel.area.luts);
  EXPECT_EQ(a.kernel.area.dsps, b.kernel.area.dsps);
  EXPECT_EQ(a.kernel.area.brams, b.kernel.area.brams);
  ASSERT_EQ(a.kernel.stages.size(), b.kernel.stages.size());
  for (std::size_t i = 0; i < a.kernel.stages.size(); ++i) {
    EXPECT_EQ(a.kernel.stages[i].ii, b.kernel.stages[i].ii);
    EXPECT_EQ(a.kernel.stages[i].depth, b.kernel.stages[i].depth);
    EXPECT_EQ(a.kernel.stages[i].latency_cycles,
              b.kernel.stages[i].latency_cycles);
  }

  EXPECT_DOUBLE_EQ(a.estimate.total_us, b.estimate.total_us);
  EXPECT_DOUBLE_EQ(a.estimate.compute_us, b.estimate.compute_us);
  EXPECT_DOUBLE_EQ(a.estimate.memory_us, b.estimate.memory_us);
  EXPECT_EQ(a.estimate.replicas, b.estimate.replicas);
  EXPECT_EQ(a.estimate.tiles, b.estimate.tiles);
  EXPECT_EQ(a.estimate.fits, b.estimate.fits);
  EXPECT_DOUBLE_EQ(a.estimate.utilization, b.estimate.utilization);
}

}  // namespace

TEST(ParallelCompileTest, JobsCountDoesNotChangeResults) {
  auto jobs = make_jobs();
  es::Basecamp serial;
  auto baseline = serial.compile_many(jobs, 1);
  ASSERT_EQ(baseline.size(), jobs.size());
  for (const auto &r : baseline) ASSERT_TRUE(r.has_value());

  for (int n : {2, 8}) {
    es::Basecamp parallel;
    auto results = parallel.compile_many(jobs, n);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_TRUE(results[i].has_value())
          << "jobs=" << n << " " << results[i].error().message;
      expect_equivalent(*baseline[i], *results[i]);
    }
  }
}

TEST(ParallelCompileTest, ErrorsStayIndexAligned) {
  auto jobs = make_jobs();
  es::CompileJob bad;
  bad.name = "broken";
  bad.source = "kernel k\nz = nope\n";
  jobs.insert(jobs.begin() + 1, bad);

  es::Basecamp basecamp;
  auto results = basecamp.compile_many(jobs, 8);
  ASSERT_EQ(results.size(), jobs.size());
  EXPECT_TRUE(results[0].has_value());
  ASSERT_FALSE(results[1].has_value());
  // The job label is attached so batch failures are attributable.
  EXPECT_NE(results[1].error().message.find("broken"), std::string::npos);
  EXPECT_TRUE(results[2].has_value());
  EXPECT_TRUE(results[3].has_value());
}

TEST(ParallelCompileTest, CachedParallelCompileMatchesSerialUncached) {
  auto jobs = make_jobs();
  es::Basecamp plain;
  auto baseline = plain.compile_many(jobs, 1);

  es::CompileCache cache;
  es::Basecamp cached;
  cached.attach_cache(&cache);
  // Two rounds: the first fills the cache (racing identical jobs is fine),
  // the second is all warm hits. Both must reproduce the uncached artifacts.
  for (int round = 0; round < 2; ++round) {
    auto results = cached.compile_many(jobs, 8);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_TRUE(results[i].has_value())
          << "round " << round << ": " << results[i].error().message;
      expect_equivalent(*baseline[i], *results[i], /*compare_stages=*/false);
    }
  }
  EXPECT_GT(cache.hits(), 0);

  // The pool mirrored its pressure into the recorder's gauges.
  bool saw_pool_gauge = false;
  for (const auto &[name, value] : cached.recorder().gauges())
    if (name == "sdk.pool.active") saw_pool_gauge = true;
  EXPECT_TRUE(saw_pool_gauge);
}

// ---------------------------------------------------------------------------
// Cache stress

TEST(CompileCacheStressTest, EightThreadsHammeringOneCache) {
  // One real compile provides a template entry to replicate under distinct
  // keys; the threads then mix hits, misses, stores, and evictions.
  es::Basecamp basecamp;
  rr::Config cfg;
  cfg.ncells = 8;
  rr::Data data = rr::make_data(cfg);
  auto seed = basecamp.compile_ekl(rr::ekl_source(), rr::bindings(data));
  ASSERT_TRUE(seed.has_value()) << seed.error().message;
  es::CompileCacheEntry entry{seed->teil_ir,  seed->loop_ir,
                              seed->system_ir, seed->kernel,
                              seed->estimate,  seed->datapath_bits};
  const std::string teil_text = seed->teil_ir->str();

  es::CompileCache cache;
  cache.set_capacity(16);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        std::uint64_t key = static_cast<std::uint64_t>((t * 200 + i) % 32);
        std::uint64_t probe = static_cast<std::uint64_t>((t * 200 + i) % 48);
        cache.store(key, entry);
        auto hit = cache.lookup(probe);  // keys 32..47 are never stored
        if (hit) {
          // A hit hands out the stored immutable modules themselves, which
          // every thread may print at once.
          if (hit->teil_ir != seed->teil_ir || hit->loop_ir != seed->loop_ir ||
              hit->system_ir != seed->system_ir)
            failures.fetch_add(1);
          if (hit->teil_ir->str() != teil_text) failures.fetch_add(1);
        }
        cache.direct_store("fp-" + std::to_string(key), key);
        auto mapped = cache.direct_lookup("fp-" + std::to_string(probe));
        if (mapped && mapped->key >= 48) failures.fetch_add(1);
      }
    });
  }
  for (auto &th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.size(), 16u);
  EXPECT_GT(cache.hits(), 0);
  EXPECT_GT(cache.evictions(), 0);
  // Every lookup was either a hit or a miss, never lost.
  EXPECT_EQ(cache.hits() + cache.misses(), 8 * 200);
}

TEST(CompileCacheStressTest, EightThreadsReadOneSharedHit) {
  // A cache hit is shared, not copied, so every reader walks the same
  // modules at once: printing and evaluating them must not write to them.
  es::CompileCache cache;
  es::Basecamp basecamp;
  basecamp.attach_cache(&cache);
  rr::Config cfg;
  cfg.ncells = 8;
  const auto bindings = rr::bindings(rr::make_data(cfg));
  auto cold = basecamp.compile_ekl(rr::ekl_source(), bindings);
  auto hit = basecamp.compile_ekl(rr::ekl_source(), bindings);
  ASSERT_TRUE(cold.has_value()) << cold.error().message;
  ASSERT_TRUE(hit.has_value()) << hit.error().message;
  ASSERT_EQ(cache.hits(), 1);
  ASSERT_EQ(hit->loop_ir, cold->loop_ir);

  const std::string loop_text = hit->loop_ir->str();
  const std::string teil_text = hit->teil_ir->str();
  auto reference =
      everest::transforms::evaluate_loops(*hit->loop_ir, bindings.inputs);
  ASSERT_TRUE(reference.has_value()) << reference.error().message;

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 4; ++i) {
        if (hit->loop_ir->str() != loop_text ||
            hit->teil_ir->str() != teil_text)
          failures.fetch_add(1);
        auto out =
            everest::transforms::evaluate_loops(*hit->loop_ir, bindings.inputs);
        if (!out || out->size() != reference->size()) {
          failures.fetch_add(1);
          continue;
        }
        for (const auto &[name, tensor] : *reference)
          if (!std::ranges::equal(out->at(name).data(), tensor.data()))
            failures.fetch_add(1);
      }
    });
  }
  for (auto &th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(PassResultCacheStressTest, FourThreadsCloneHitsAcrossWholesaleResets) {
  // Four pass names against capacity 2: stores keep resetting the tier
  // wholesale, or replacing the very key another worker just hit, while the
  // pass managers clone from their hits outside the cache lock.
  es::Basecamp basecamp;
  rr::Config cfg;
  cfg.ncells = 8;
  rr::Data data = rr::make_data(cfg);
  auto seed = basecamp.compile_ekl(rr::ekl_source(), rr::bindings(data));
  ASSERT_TRUE(seed.has_value()) << seed.error().message;
  const std::string expected = seed->loop_ir->str();
  const std::size_t funcs = seed->loop_ir->body().size();

  constexpr int kThreads = 4;
  constexpr int kRuns = 100;
  std::vector<everest::ir::Module> masters;
  for (int t = 0; t < kThreads; ++t)
    masters.push_back(everest::ir::clone_module(*seed->loop_ir));

  es::PassResultCache cache(/*capacity=*/2);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRuns; ++i) {
        everest::ir::Module module = everest::ir::clone_module(masters[t]);
        everest::ir::Context ctx;
        everest::ir::PassManager pm(ctx, /*verify_each=*/false);
        pm.add_func_pass("tag-" + std::to_string((t + i) % 4),
                         [](everest::ir::Operation &, everest::ir::Context &) {
                           return esup::Status::ok();
                         });
        pm.set_pass_cache(&cache);
        if (!pm.run(module).is_ok() || module.str() != expected)
          failures.fetch_add(1);
      }
    });
  }
  for (auto &th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(cache.hits(), 0);
  EXPECT_LE(cache.size(), 2u);
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::int64_t>(kThreads * kRuns * funcs));
}
