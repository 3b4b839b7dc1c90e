// Integration tests of the basecamp facade: whole-pipeline compiles of the
// Fig. 3 kernel and a CFDlang program, target selection, custom number
// formats, and deployment onto the device models.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "platform/xrt.hpp"
#include "sdk/basecamp.hpp"
#include "usecases/rrtmg.hpp"

namespace es = everest::sdk;
namespace rr = everest::usecases::rrtmg;

class BasecampTest : public ::testing::Test {
protected:
  es::Basecamp basecamp_;
};

TEST_F(BasecampTest, DeviceLookup) {
  EXPECT_TRUE(basecamp_.device_by_name("alveo-u55c").has_value());
  EXPECT_TRUE(basecamp_.device_by_name("alveo-u280").has_value());
  EXPECT_TRUE(basecamp_.device_by_name("cloudfpga").has_value());
  EXPECT_FALSE(basecamp_.device_by_name("stratix").has_value());
}

TEST_F(BasecampTest, CompilesFig3EndToEnd) {
  rr::Config cfg;
  cfg.ncells = 32;
  rr::Data data = rr::make_data(cfg);
  auto result = basecamp_.compile_ekl(rr::ekl_source(), rr::bindings(data));
  ASSERT_TRUE(result.has_value()) << result.error().message;

  EXPECT_NE(result->frontend_ir, nullptr);
  EXPECT_NE(result->teil_ir, nullptr);
  EXPECT_NE(result->loop_ir, nullptr);
  EXPECT_NE(result->system_ir, nullptr);
  EXPECT_GT(result->kernel.total_cycles, 0);
  EXPECT_GT(result->estimate.total_us, 0.0);
  EXPECT_TRUE(result->estimate.fits);
  EXPECT_GT(result->ekl_source_lines, 10u);
  EXPECT_LT(result->ekl_source_lines, 30u);

  // Every pipeline stage reported a timing.
  std::vector<std::string> stages;
  for (const auto &t : result->timings) stages.push_back(t.stage);
  for (const char *expected :
       {"parse-ekl", "lower-ekl-to-teil", "esn-reorder",
        "lower-teil-to-loops", "hls-schedule", "olympus-estimate",
        "olympus-generate"}) {
    EXPECT_NE(std::find(stages.begin(), stages.end(), expected), stages.end())
        << expected;
  }
}

TEST_F(BasecampTest, CustomFormatShrinksDatapath) {
  rr::Config cfg;
  cfg.ncells = 16;
  rr::Data data = rr::make_data(cfg);

  es::CompileOptions wide;
  es::CompileOptions narrow;
  narrow.number_format = "fixed<16,12>";
  auto w = basecamp_.compile_ekl(rr::ekl_source(), rr::bindings(data), wide);
  auto n = basecamp_.compile_ekl(rr::ekl_source(), rr::bindings(data), narrow);
  ASSERT_TRUE(w.has_value()) << w.error().message;
  ASSERT_TRUE(n.has_value()) << n.error().message;
  EXPECT_EQ(n->datapath_bits, 16);
  EXPECT_LT(n->kernel.area.luts, w->kernel.area.luts);
  EXPECT_LE(n->estimate.total_us, w->estimate.total_us);
}

TEST_F(BasecampTest, RejectsBadInputs) {
  EXPECT_FALSE(basecamp_.compile_ekl("kernel k\nz = nope\n", {}).has_value());
  rr::Config cfg;
  rr::Data data = rr::make_data(cfg);
  es::CompileOptions bad_target;
  bad_target.target = "virtex2";
  EXPECT_FALSE(basecamp_
                   .compile_ekl(rr::ekl_source(), rr::bindings(data),
                                bad_target)
                   .has_value());
  es::CompileOptions bad_format;
  bad_format.number_format = "decimal<10>";
  EXPECT_FALSE(basecamp_
                   .compile_ekl(rr::ekl_source(), rr::bindings(data),
                                bad_format)
                   .has_value());
}

TEST_F(BasecampTest, OptionsBuilderValidatesEagerly) {
  auto good = es::CompileOptions::make()
                  .target("alveo-u280")
                  .number_format("fixed<16,8>")
                  .replicas(4)
                  .canonicalize(false)
                  .build();
  ASSERT_TRUE(good.has_value()) << good.error().message;
  EXPECT_EQ(good->target, "alveo-u280");
  EXPECT_EQ(good->number_format, "fixed<16,8>");
  EXPECT_EQ(good->olympus.replicas, 4);
  EXPECT_FALSE(good->canonicalize);

  // Defaults build cleanly.
  EXPECT_TRUE(es::CompileOptions::make().build().has_value());

  auto bad_target = es::CompileOptions::make().target("virtex2").build();
  ASSERT_FALSE(bad_target.has_value());
  EXPECT_EQ(bad_target.error().code_enum(),
            everest::support::ErrorCode::NotFound);

  auto bad_format =
      es::CompileOptions::make().number_format("decimal<10>").build();
  ASSERT_FALSE(bad_format.has_value());
  EXPECT_EQ(bad_format.error().code_enum(),
            everest::support::ErrorCode::Unsupported);

  auto bad_replicas = es::CompileOptions::make().replicas(0).build();
  ASSERT_FALSE(bad_replicas.has_value());
  EXPECT_EQ(bad_replicas.error().code_enum(),
            everest::support::ErrorCode::InvalidArgument);
}

TEST_F(BasecampTest, BuilderOptionsCompileLikeHandWrittenOnes) {
  rr::Config cfg;
  cfg.ncells = 16;
  rr::Data data = rr::make_data(cfg);
  auto options = es::CompileOptions::make()
                     .target("alveo-u280")
                     .number_format("fixed<16,12>")
                     .build();
  ASSERT_TRUE(options.has_value()) << options.error().message;
  auto result =
      basecamp_.compile_ekl(rr::ekl_source(), rr::bindings(data), *options);
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_EQ(result->device.name, "alveo-u280");
  EXPECT_EQ(result->datapath_bits, 16);
}

TEST_F(BasecampTest, BadOptionsFailWithCodedErrors) {
  rr::Config cfg;
  rr::Data data = rr::make_data(cfg);
  es::CompileOptions bad_target;
  bad_target.target = "virtex2";
  auto r = basecamp_.compile_ekl(rr::ekl_source(), rr::bindings(data),
                                 bad_target);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code_enum(), everest::support::ErrorCode::NotFound);

  es::CompileOptions bad_format;
  bad_format.number_format = "decimal<10>";
  r = basecamp_.compile_ekl(rr::ekl_source(), rr::bindings(data), bad_format);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code_enum(), everest::support::ErrorCode::Unsupported);
}

TEST_F(BasecampTest, CompilesCfdlang) {
  auto result = basecamp_.compile_cfdlang(R"(
program mm
input A : [16, 24]
input B : [24, 8]
output C = contract(outer(A, B), 1, 2)
)");
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_GT(result->kernel.total_cycles, 0);
  EXPECT_EQ(result->kernel.name, "mm");
}

TEST_F(BasecampTest, DeployAndRunOnU55c) {
  rr::Config cfg;
  cfg.ncells = 64;
  rr::Data data = rr::make_data(cfg);
  auto result = basecamp_.compile_ekl(rr::ekl_source(), rr::bindings(data));
  ASSERT_TRUE(result.has_value()) << result.error().message;

  everest::platform::Device device(result->device);
  auto us = basecamp_.deploy_and_run(device, *result);
  ASSERT_TRUE(us.has_value()) << us.error().message;
  EXPECT_GT(*us, 0.0);
  EXPECT_EQ(device.stats().kernel_launches, 1);
}

TEST_F(BasecampTest, CloudFpgaTargetWorks) {
  rr::Config cfg;
  cfg.ncells = 16;
  rr::Data data = rr::make_data(cfg);
  es::CompileOptions options;
  options.target = "cloudfpga";
  auto result =
      basecamp_.compile_ekl(rr::ekl_source(), rr::bindings(data), options);
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_EQ(result->device.name, "cloudfpga");
  // Network-attached: transfers dominated by the 10G link.
  everest::platform::Device device(result->device);
  auto us = basecamp_.deploy_and_run(device, *result);
  ASSERT_TRUE(us.has_value()) << us.error().message;
}

// ---------------------------------------------------------------------------
// Compile cache

namespace {

/// A fresh per-test cache directory under the build tree.
std::string fresh_cache_dir(const char *tag) {
  auto dir = std::filesystem::temp_directory_path() /
             (std::string("everest-cache-") + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

}  // namespace

class CompileCacheTest : public ::testing::Test {
protected:
  es::CompileResult compile(es::Basecamp &basecamp,
                            const es::CompileOptions &options = {},
                            std::int64_t ncells = 16,
                            const std::string &source = rr::ekl_source()) {
    rr::Config cfg;
    cfg.ncells = ncells;
    rr::Data data = rr::make_data(cfg);
    auto result = basecamp.compile_ekl(source, rr::bindings(data), options);
    EXPECT_TRUE(result.has_value()) << result.error().message;
    return *result;
  }

  static bool has_stage(const es::CompileResult &result, const char *stage) {
    for (const auto &t : result.timings)
      if (t.stage == stage) return true;
    return false;
  }
};

TEST_F(CompileCacheTest, HitOnIdenticalRecompile) {
  es::CompileCache cache;
  es::Basecamp basecamp;
  basecamp.attach_cache(&cache);

  auto cold = compile(basecamp);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_GT(cache.misses(), 0);
  EXPECT_TRUE(has_stage(cold, "hls-schedule"));

  auto warm = compile(basecamp);
  EXPECT_EQ(cache.hits(), 1);
  // The warm compile skipped the whole backend: no lowering, no HLS.
  EXPECT_FALSE(has_stage(warm, "lower-ekl-to-teil"));
  EXPECT_FALSE(has_stage(warm, "hls-schedule"));
  EXPECT_TRUE(has_stage(warm, "cache-lookup"));

  // ...and produced identical artifacts.
  EXPECT_EQ(cold.teil_ir->str(), warm.teil_ir->str());
  EXPECT_EQ(cold.loop_ir->str(), warm.loop_ir->str());
  EXPECT_EQ(cold.system_ir->str(), warm.system_ir->str());
  EXPECT_EQ(cold.kernel.total_cycles, warm.kernel.total_cycles);
  EXPECT_DOUBLE_EQ(cold.estimate.total_us, warm.estimate.total_us);
}

TEST_F(CompileCacheTest, HitsShareTheStoredModules) {
  es::CompileCache cache;
  es::Basecamp basecamp;
  basecamp.attach_cache(&cache);
  auto cold = compile(basecamp);
  auto first = compile(basecamp);
  auto second = compile(basecamp);
  ASSERT_EQ(cache.hits(), 2);

  // Two hits on one key hand out the same modules, not copies of them...
  EXPECT_EQ(first.frontend_ir, second.frontend_ir);
  EXPECT_EQ(first.teil_ir, second.teil_ir);
  EXPECT_EQ(first.loop_ir, second.loop_ir);
  EXPECT_EQ(first.system_ir, second.system_ir);
  // ...namely the ones the cold compile stored.
  EXPECT_EQ(first.loop_ir, cold.loop_ir);
  EXPECT_EQ(first.frontend_ir, cold.frontend_ir);
  // The cache API itself: the content key is the canonical TeIL text, which
  // an f64 compile exports unannotated.
  const es::CompileOptions options;
  auto key = es::CompileCache::key(cold.teil_ir->str(), options,
                                   options.target);
  auto a = cache.lookup(key);
  auto b = cache.lookup(key);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a->loop_ir, cold.loop_ir);
  EXPECT_EQ(b->loop_ir, cold.loop_ir);

  // A hit prints byte-identically to a compile without any cache.
  es::Basecamp uncached;
  auto fresh = compile(uncached);
  EXPECT_EQ(fresh.frontend_ir->str(), second.frontend_ir->str());
  EXPECT_EQ(fresh.teil_ir->str(), second.teil_ir->str());
  EXPECT_EQ(fresh.loop_ir->str(), second.loop_ir->str());
  EXPECT_EQ(fresh.system_ir->str(), second.system_ir->str());
}

TEST_F(CompileCacheTest, AnyPerturbationMisses) {
  es::CompileCache cache;
  es::Basecamp basecamp;
  basecamp.attach_cache(&cache);

  compile(basecamp);
  compile(basecamp);
  ASSERT_EQ(cache.hits(), 1);

  // Renamed tensor (every occurrence, so the program stays valid): miss.
  std::string tweaked = rr::ekl_source();
  ASSERT_NE(tweaked.find("tau"), std::string::npos);
  for (auto pos = tweaked.find("tau"); pos != std::string::npos;
       pos = tweaked.find("tau", pos + 3))
    tweaked.replace(pos, 3, "phi");
  compile(basecamp, {}, 16, tweaked);
  EXPECT_EQ(cache.hits(), 1);

  // Different input extent: miss.
  compile(basecamp, {}, 32);
  EXPECT_EQ(cache.hits(), 1);

  // Different options: miss.
  es::CompileOptions replicas;
  replicas.olympus.replicas = 2;
  compile(basecamp, replicas);
  EXPECT_EQ(cache.hits(), 1);

  // Different target device: miss.
  es::CompileOptions u280;
  u280.target = "alveo-u280";
  compile(basecamp, u280);
  EXPECT_EQ(cache.hits(), 1);

  // The original compile still hits.
  compile(basecamp);
  EXPECT_EQ(cache.hits(), 2);
}

TEST_F(CompileCacheTest, PersistsAcrossInstances) {
  auto dir = fresh_cache_dir("persist");
  es::CompileResult cold;
  {
    es::CompileCache cache(dir);
    es::Basecamp basecamp;
    basecamp.attach_cache(&cache);
    cold = compile(basecamp);
    EXPECT_EQ(cache.hits(), 0);
  }
  // A new cache instance (new process, conceptually) hits from disk.
  es::CompileCache cache(dir);
  es::Basecamp basecamp;
  basecamp.attach_cache(&cache);
  auto warm = compile(basecamp);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cold.teil_ir->str(), warm.teil_ir->str());
  EXPECT_EQ(cold.system_ir->str(), warm.system_ir->str());
  EXPECT_EQ(cold.kernel.total_cycles, warm.kernel.total_cycles);
  std::filesystem::remove_all(dir);
}

TEST_F(CompileCacheTest, CorruptedEntryIsCodedAndFallsBack) {
  auto dir = fresh_cache_dir("corrupt");
  {
    es::CompileCache cache(dir);
    es::Basecamp basecamp;
    basecamp.attach_cache(&cache);
    compile(basecamp);
  }
  // Truncate every persisted entry (keep the direct-tier mappings so the
  // lookup path actually reaches the corrupt payloads).
  for (const auto &file : std::filesystem::directory_iterator(dir)) {
    if (file.path().filename().string().rfind("direct-", 0) == 0) continue;
    std::ofstream(file.path()) << "{ not json";
  }

  es::CompileCache cache(dir);
  es::Basecamp basecamp;
  basecamp.attach_cache(&cache);
  auto fp = cache.direct_lookup(
      "probe-nonexistent");  // unrelated probe: plain miss, not an error
  EXPECT_FALSE(fp.has_value());

  // compile_ekl degrades gracefully to a fresh compile (both the direct-tier
  // and content-tier lookups run into the corrupt payload).
  auto result = compile(basecamp);
  EXPECT_GE(cache.corruptions(), 1);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_GT(result.kernel.total_cycles, 0);

  // Direct cache API: the error carries the InvalidArgument code.
  {
    es::CompileCache poke(dir);
    std::ofstream(dir + "/deadbeefdeadbeef.json") << "also { not json";
    auto bad = poke.lookup(0xdeadbeefdeadbeefull);
    ASSERT_FALSE(bad.has_value());
    EXPECT_EQ(bad.error().code_enum(),
              everest::support::ErrorCode::InvalidArgument);
  }
  std::filesystem::remove_all(dir);
}

TEST_F(CompileCacheTest, LruEvictionIsBoundedAndCounted) {
  es::CompileCache cache;
  cache.set_capacity(2);
  es::Basecamp basecamp;
  basecamp.attach_cache(&cache);
  for (std::int64_t ncells : {8, 16, 32, 64}) compile(basecamp, {}, ncells);
  EXPECT_LE(cache.size(), 2u);
  EXPECT_GT(cache.evictions(), 0);
  // Counters are mirrored onto the SDK recorder.
  bool saw_miss = false;
  for (const auto &[name, value] : basecamp.recorder().counters())
    if (name == "sdk.cache.miss" && value > 0) saw_miss = true;
  EXPECT_TRUE(saw_miss);
}
