// Workload `compile`: the paper's kernel corpus (the seven HPCC EKL kernels
// at three seeded extents each, plus RRTMG) through Basecamp::compile_many on
// one reused Basecamp with a CompileCache attached, in two phases:
//   sweep — every batch is a fresh set of variants (olympus.replicas,
//           plm_tile_bytes, number format, and a per-batch kernel name), so
//           every tier of the cache misses; reports kernels compiled per
//           second;
//   edit  — the cache is warm and each batch edits one literal of one
//           kernel; reports the batch latency.
// Oracles: every kernel's printed loop IR is byte-identical between the
// N-worker compile and a 1-worker compile on a cache-less Basecamp, and the
// edit phase matches a cache-less compile of the same sources.

#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "sdk/basecamp.hpp"
#include "support/alloc_hook.hpp"
#include "support/rng.hpp"
#include "usecases/rrtmg.hpp"

namespace evbench {
namespace {

namespace sdk = everest::sdk;
using everest::numerics::Shape;
using Inputs = std::vector<std::pair<const char *, Shape>>;

struct KernelSpec {
  const char *file;
  const char *kernel;  // the name on the `kernel` line
  std::function<Inputs(std::int64_t)> inputs;  // input shapes at extent n
  const char *needle;  // text the edit phase rewrites ("" = not edited)
  const char *edit;    // replacement; %s is the edited literal
};

const std::vector<KernelSpec> &hpcc_kernels() {
  static const std::vector<KernelSpec> specs = {
      {"stream.ekl", "stream",
       [](std::int64_t n) { return Inputs{{"a", {n}}, {"b", {n}}}; },
       "scale = 0.42 * b[i]", "scale = %s * b[i]"},
      {"gemm.ekl", "gemm",
       [](std::int64_t n) {
         return Inputs{{"a", {n, n}}, {"b", {n, n}}, {"c0", {n, n}}};
       },
       "0.25 * c0[i, j]", "%s * c0[i, j]"},
      {"ptrans.ekl", "ptrans",
       [](std::int64_t n) { return Inputs{{"a", {n, n}}, {"c", {n, n}}}; },
       "+ c[i, j]", "+ %s * c[i, j]"},
      {"fft.ekl", "fft",
       [](std::int64_t n) {
         return Inputs{{"xr", {4, n}}, {"xi", {4, n}}, {"cosm", {n, n}},
                       {"sinm", {n, n}}};
       },
       "- sum(n) xr[q, n]", "- %s * sum(n) xr[q, n]"},
      {"randomaccess.ekl", "randomaccess",
       [](std::int64_t n) {
         return Inputs{{"t", {n}}, {"idx", {4 * n}}, {"val", {4 * n}}};
       },
       "+ val[u]", "+ %s * val[u]"},
      {"linpack.ekl", "linpack",
       [](std::int64_t n) {
         return Inputs{{"a", {n, n}}, {"l", {n}}, {"u", {n}}};
       },
       "- l[i]", "- %s * l[i]"},
      {"beff.ekl", "beff",
       [](std::int64_t n) { return Inputs{{"m", {3, n}}}; }, "", ""},
  };
  return specs;
}

std::string read_file(const std::string &path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string replace_once(std::string text, const std::string &from,
                         const std::string &to) {
  auto pos = text.find(from);
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

/// One corpus entry: a job plus what the edit phase needs to rewrite it.
struct CorpusKernel {
  sdk::CompileJob job;
  std::string kernel;  // name on the `kernel` line
  std::string needle;
  std::string edit;
};

std::vector<CorpusKernel> make_corpus(std::uint64_t seed) {
  everest::support::Pcg32 rng(seed, 0xc0de);
  std::vector<CorpusKernel> corpus;
  const std::int64_t candidates[] = {24, 32, 48, 64, 80, 96, 112, 128};
  for (const KernelSpec &spec : hpcc_kernels()) {
    const std::string source =
        read_file(std::string(EVBENCH_DATA_DIR) + "/" + spec.file);
    std::vector<std::int64_t> pool(std::begin(candidates),
                                   std::end(candidates));
    for (int variant = 0; variant < 3; ++variant) {
      std::size_t pick = rng.next() % pool.size();
      const std::int64_t n = pool[pick];
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
      CorpusKernel k;
      k.job.kind = sdk::CompileJob::Kind::Ekl;
      k.job.name = std::string(spec.kernel) + "@" + std::to_string(n);
      k.job.source = source;
      for (const auto &[name, shape] : spec.inputs(n))
        k.job.bindings.inputs.emplace(name, everest::numerics::Tensor(shape));
      if (std::string(spec.kernel) == "beff") {
        k.job.options.target = "cloudfpga";
        k.job.options.olympus.replicas = 1;
      }
      k.kernel = spec.kernel;
      k.needle = spec.needle;
      k.edit = spec.edit;
      corpus.push_back(std::move(k));
    }
  }
  everest::usecases::rrtmg::Config config;
  config.seed = seed;
  CorpusKernel rrtmg;
  rrtmg.job.kind = sdk::CompileJob::Kind::Ekl;
  rrtmg.job.name = "rrtmg";
  rrtmg.job.source = everest::usecases::rrtmg::ekl_source();
  rrtmg.job.bindings = everest::usecases::rrtmg::bindings(
      everest::usecases::rrtmg::make_data(config));
  rrtmg.kernel = "rrtmg_major";
  corpus.push_back(std::move(rrtmg));
  return corpus;
}

std::vector<sdk::CompileJob> jobs_of(const std::vector<CorpusKernel> &corpus) {
  std::vector<sdk::CompileJob> jobs;
  jobs.reserve(corpus.size());
  for (const CorpusKernel &k : corpus) jobs.push_back(k.job);
  return jobs;
}

/// Sweep batch `b`: fresh Olympus knobs and number format, and a
/// batch-unique kernel name, so the direct, content and per-pass tiers all
/// miss.
std::vector<sdk::CompileJob> sweep_batch(const std::vector<CorpusKernel> &corpus,
                                         everest::support::Pcg32 &rng, int b) {
  const int replicas[] = {1, 2, 4};
  const std::int64_t tiles[] = {64 * 1024, 128 * 1024, 256 * 1024};
  const char *formats[] = {"f64", "fixed<16,8>"};  // the latter runs base2
  std::vector<sdk::CompileJob> jobs;
  jobs.reserve(corpus.size());
  for (const CorpusKernel &k : corpus) {
    sdk::CompileJob job = k.job;
    job.source = replace_once(job.source, "kernel " + k.kernel + "\n",
                              "kernel " + k.kernel + "_s" + std::to_string(b) +
                                  "\n");
    if (job.options.target != "cloudfpga")
      job.options.olympus.replicas = replicas[rng.next() % 3];
    job.options.olympus.plm_tile_bytes = tiles[rng.next() % 3];
    job.options.number_format = formats[rng.next() % 2];
    jobs.push_back(std::move(job));
  }
  return jobs;
}

const std::map<std::string, std::string> &stage_metrics() {
  static const std::map<std::string, std::string> m = {
      {"parse-ekl", "frontend.parse_ms"},
      {"parse-cfdlang", "frontend.parse_ms"},
      {"lower-ekl-to-teil", "transforms.lower_teil_ms"},
      {"lower-cfdlang-to-teil", "transforms.lower_teil_ms"},
      {"canonicalize", "transforms.canonicalize_ms"},
      {"esn-reorder", "transforms.esn_reorder_ms"},
      {"lower-teil-to-loops", "transforms.lower_loops_ms"},
      {"base2-legalize", "transforms.base2_ms"},
      {"hls-schedule", "hls.schedule_ms"},
      {"olympus-estimate", "olympus.estimate_ms"},
      {"olympus-generate", "olympus.generate_ms"},
      {"cache-lookup", "sdk.cache_lookup_ms"},
  };
  return m;
}

/// Edit batches run after each sweep batch (170 per second of run).
constexpr int kEditsPerSweep = 17;

/// Edit batches whose unedited kernels are also compared with the
/// cache-less reference (the edited kernel is compared on every batch).
constexpr int kFullCheckEvery = 8;

/// The measured compile service: one Basecamp with a cache attached.
struct Service {
  std::unique_ptr<sdk::CompileCache> cache;
  std::unique_ptr<sdk::Basecamp> basecamp;
};

}  // namespace

Report run_compile(const Args &args) {
  Report report;
  const int workers = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  // Set-up: the corpus, the reference loop IR from a cache-less serial
  // compile, and the measured service — a Basecamp with a cache attached,
  // warmed by one cold compile of the corpus (the state the edit loop
  // starts from). Timed kSetups times back to back before any measured
  // work; the first is kept.
  std::vector<CorpusKernel> corpus;
  std::vector<sdk::CompileJob> base_jobs;
  std::unique_ptr<sdk::Basecamp> reference;
  std::vector<std::string> base_text;
  Service service;
  std::vector<double> setup_s;
  auto set_up = [&]() -> bool {
    const auto t0 = Clock::now();
    std::vector<CorpusKernel> fresh = make_corpus(args.seed);
    std::vector<sdk::CompileJob> jobs = jobs_of(fresh);
    auto ref = std::make_unique<sdk::Basecamp>();
    std::vector<std::string> text;
    for (auto &r : ref->compile_many(jobs, 1)) {
      if (!r) {
        report.fail("reference compile: " + r.error().message);
        return false;
      }
      text.push_back(r->loop_ir->str());
    }
    Service s;
    s.cache = std::make_unique<sdk::CompileCache>();
    s.cache->set_capacity(512);
    s.basecamp = std::make_unique<sdk::Basecamp>();
    s.basecamp->attach_cache(s.cache.get());
    auto warm = s.basecamp->compile_many(jobs, workers);
    setup_s.push_back(seconds_since(t0));
    for (std::size_t i = 0; i < warm.size(); ++i) {
      ++report.attempted;
      if (!warm[i]) {
        report.fail("warm compile " + jobs[i].name + ": " +
                    warm[i].error().message);
      } else if (warm[i]->loop_ir->str() != text[i]) {
        report.fail("warm compile " + jobs[i].name +
                    ": loop IR differs between " + std::to_string(workers) +
                    " workers and 1 worker");
      }
    }
    if (!service.basecamp) {
      corpus = std::move(fresh);
      base_jobs = std::move(jobs);
      reference = std::move(ref);
      base_text = std::move(text);
      service = std::move(s);
    }
    return report.correct;
  };
  for (int rep = 0; rep < kSetups; ++rep)
    if (!set_up()) return report;
  const double kernels = static_cast<double>(corpus.size());
  // The work is fixed by --seconds, not by the clock, so both sides of a
  // comparison compile the same batches (and retain the same cache state).
  // Sweep and edit batches alternate, so a noisy stretch of the host slows
  // both phases alike instead of one of them.
  const int sweep_batches = std::max(4, static_cast<int>(10 * args.seconds));
  sdk::Basecamp &bc = *service.basecamp;
  sdk::CompileCache &cache = *service.cache;
  std::vector<std::size_t> editable;
  for (std::size_t i = 0; i < corpus.size(); ++i)
    if (!corpus[i].needle.empty()) editable.push_back(i);

  std::map<std::string, double> stage_ms;  // summed over sweep kernels
  double loop_ops = 0.0;
  std::vector<double> efficiency;
  std::uint64_t allocs = 0;
  std::vector<double> sweep_s, edit_ms;
  double lookup_ms = 0.0, lookups = 0.0;
  double hits = 0.0, misses = 0.0, pass_hits = 0.0, pass_misses = 0.0;
  everest::support::Pcg32 knobs(args.seed, 0x5eed);

  // Sweep batch: every compile misses.
  auto sweep = [&](int b) {
    const std::vector<sdk::CompileJob> jobs = sweep_batch(corpus, knobs, b);
    const std::int64_t hits0 = cache.hits();
    if (args.trace) {
      everest::support::alloc_counter_reset();
      everest::support::alloc_counter_enable(true);
    }
    const auto t0 = Clock::now();
    auto results = bc.compile_many(jobs, workers);
    const double wall = seconds_since(t0);
    if (args.trace) {
      everest::support::alloc_counter_enable(false);
      allocs += everest::support::alloc_counter_news();
    }
    sweep_s.push_back(wall);
    if (cache.hits() != hits0)
      report.fail("sweep batch " + std::to_string(b) + " hit the cache");

    auto serial = reference->compile_many(jobs, 1);
    reference->recorder().clear();
    double busy_ms = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      ++report.attempted;
      if (!results[i] || !serial[i]) {
        report.fail("sweep compile " + jobs[i].name + " failed: " +
                    (!results[i] ? results[i].error().message
                                 : serial[i].error().message));
        continue;
      }
      if (results[i]->loop_ir->str() != serial[i]->loop_ir->str())
        report.fail("sweep " + jobs[i].name + ": loop IR differs between " +
                    std::to_string(workers) + " workers and 1 worker");
      for (const auto &t : results[i]->timings) {
        busy_ms += t.ms;
        auto it = stage_metrics().find(t.stage);
        if (it != stage_metrics().end()) stage_ms[it->second] += t.ms;
      }
      loop_ops += static_cast<double>(results[i]->loop_ir->op_count());
    }
    efficiency.push_back(busy_ms / (wall * 1e3 * workers));
  };

  // Edit batch: the warm corpus with one literal of one kernel edited.
  auto edit = [&](int e) {
    const std::size_t target =
        editable[static_cast<std::size_t>(e) % editable.size()];
    const CorpusKernel &k = corpus[target];
    std::string replacement = k.edit;
    replacement.replace(replacement.find("%s"), 2,
                        fmt("%.7f", 1.0 + (e + 1) * 1e-7));
    std::vector<sdk::CompileJob> jobs = base_jobs;
    jobs[target].source =
        replace_once(jobs[target].source, k.needle, replacement);

    const std::int64_t hits0 = cache.hits(), misses0 = cache.misses();
    const std::int64_t pass_hits0 = cache.pass_tier().hits();
    const std::int64_t pass_misses0 = cache.pass_tier().misses();
    const auto t0 = Clock::now();
    auto results = bc.compile_many(jobs, workers);
    edit_ms.push_back(seconds_since(t0) * 1e3);
    hits += static_cast<double>(cache.hits() - hits0);
    misses += static_cast<double>(cache.misses() - misses0);
    pass_hits += static_cast<double>(cache.pass_tier().hits() - pass_hits0);
    pass_misses +=
        static_cast<double>(cache.pass_tier().misses() - pass_misses0);

    for (std::size_t i = 0; i < results.size(); ++i) {
      ++report.attempted;
      if (!results[i]) {
        report.fail("edit compile " + jobs[i].name + ": " +
                    results[i].error().message);
        continue;
      }
      for (const auto &t : results[i]->timings) {
        if (t.stage == "cache-lookup") {
          lookup_ms += t.ms;
          lookups += 1.0;
        }
      }
      if (i != target) {
        if (e % kFullCheckEvery == 0 &&
            results[i]->loop_ir->str() != base_text[i])
          report.fail("edit phase: cached " + jobs[i].name +
                      " differs from a cache-less compile");
        continue;
      }
      auto fresh = reference->compile_ekl(jobs[i].source, jobs[i].bindings,
                                          jobs[i].options);
      reference->recorder().clear();
      if (!fresh || fresh->loop_ir->str() != results[i]->loop_ir->str())
        report.fail("edit phase: edited " + jobs[i].name +
                    " differs from a cache-less compile");
    }
  };

  for (int b = 0, e = 0; b < sweep_batches; ++b) {
    sweep(b);
    for (int i = 0; i < kEditsPerSweep; ++i) edit(e++);
  }
  report.set_setup(setup_s);
  const double sweep_kernels = kernels * static_cast<double>(sweep_s.size());

  // ---- report -----------------------------------------------------------
  const double sweep_batch_s = median(sweep_s);
  report.set("throughput_per_s", kernels / sweep_batch_s);
  report.set("latency_p50_ms", percentile(edit_ms, 0.50));
  report.set("bench.traced_p99_ms", percentile(edit_ms, 0.99));
  report.note("compile: " + std::to_string(corpus.size()) +
              " kernels/batch, " + std::to_string(workers) + " workers; sweep " +
              std::to_string(sweep_s.size()) + " batches, edit " +
              std::to_string(edit_ms.size()) + " batches");
  report.note("compile_kernels_per_s = " +
              fmt("%.1f", kernels / sweep_batch_s) + " (wall, sweep)");
  report.note("edit_compile_p50_ms = " + fmt("%.4f", percentile(edit_ms, 0.5)) +
              ", edit_compile_p99_ms = " +
              fmt("%.4f", percentile(edit_ms, 0.99)) + " (wall, " +
              std::to_string(edit_ms.size()) + " samples)");

  for (const auto &[stage, metric] : stage_metrics()) {
    (void)stage;
    if (metric != "sdk.cache_lookup_ms")
      report.set(metric, stage_ms[metric] / sweep_kernels);
  }
  report.set("sdk.cache_lookup_ms", lookups > 0 ? lookup_ms / lookups : 0.0);
  report.set("sdk.cache_hit_ratio", hits / std::max(1.0, hits + misses));
  report.set("sdk.pass_cache_hit_ratio",
             pass_hits / std::max(1.0, pass_hits + pass_misses));
  report.set("sdk.pool_efficiency", mean(efficiency));
  report.set("ir.loop_ops", loop_ops / sweep_kernels);
  report.set("sdk.allocs_per_kernel",
             static_cast<double>(allocs) / sweep_kernels);
  report.set("bench.traced_p50_ms", percentile(edit_ms, 0.50));
  return report;
}

}  // namespace evbench
