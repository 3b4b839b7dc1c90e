#include "sdk/basecamp.hpp"

#include <algorithm>
#include <sstream>

#include "dialects/registry.hpp"
#include "frontend/cfdlang_parser.hpp"
#include "frontend/ekl_parser.hpp"
#include "ir/pass.hpp"
#include "transforms/base2_legalize.hpp"
#include "transforms/canonicalize.hpp"
#include "transforms/cfdlang_to_teil.hpp"
#include "transforms/ekl_to_teil.hpp"
#include "transforms/esn_extract.hpp"
#include "ir/builder.hpp"
#include "transforms/teil_to_loops.hpp"

namespace everest::sdk {

using support::Error;
using support::Expected;

namespace {

/// Runs fn() under a recorder span (category "sdk.pipeline", one span per
/// Fig. 2 stage) and appends the span's duration under `stage`, so
/// CompileResult::timings and the trace are two views of one measurement.
template <typename F>
auto timed(obs::TraceRecorder &recorder, std::vector<StageTiming> &timings,
           const char *stage, F &&fn) {
  auto span = recorder.span(stage, "sdk.pipeline", "basecamp");
  auto result = fn();
  timings.push_back({stage, span.end() / 1000.0});
  return result;
}

/// Direct-tier fingerprint of an EKL compile: everything that determines the
/// backend output. lower_ekl_to_teil consumes bindings only through
/// resolve_ekl_extents, so shapes and extents (not tensor values) suffice.
std::string ekl_fingerprint(const std::string &source,
                            const transforms::EklBindings &bindings,
                            const CompileOptions &options) {
  std::ostringstream fp;
  fp << "ekl\n"
     << CompileCache::options_fingerprint(options) << '\n'
     << source << '\n';
  for (const auto &[name, tensor] : bindings.inputs) {
    fp << name << '=';
    for (auto dim : tensor.shape()) fp << dim << 'x';
    fp << ';';
  }
  for (const auto &[name, extent] : bindings.extents)
    fp << name << ':' << extent << ';';
  return fp.str();
}

std::string cfdlang_fingerprint(const std::string &source,
                                const CompileOptions &options) {
  std::ostringstream fp;
  fp << "cfdlang\n"
     << CompileCache::options_fingerprint(options) << '\n'
     << source;
  return fp.str();
}

}  // namespace

Basecamp::Basecamp() { dialects::register_everest_dialects(ctx_); }

Expected<platform::DeviceSpec> Basecamp::device_by_name(
    const std::string &name) const {
  auto device = resolve_target(name);
  if (!device) return device.error().with_context("basecamp");
  return device;
}

Expected<CompileResult> Basecamp::compile_ekl(
    const std::string &source, const transforms::EklBindings &bindings,
    const CompileOptions &options) {
  if (auto s = validate_compile_options(options); !s.is_ok())
    return s.error().with_context("basecamp");
  std::vector<StageTiming> timings;

  // The direct tier maps this exact source (which already passed frontend
  // verification when its entry was stored) to a content key and remembers
  // the parsed frontend module, so a hit can skip the parser and verifier
  // along with the whole backend.
  std::string fingerprint;
  if (cache_) {
    fingerprint = ekl_fingerprint(source, bindings, options);
    if (auto direct = cache_->direct_lookup(fingerprint)) {
      auto hit = timed(recorder_, timings, "cache-lookup",
                       [&] { return cache_->lookup(direct->key); });
      if (hit) {
        std::shared_ptr<const ir::Module> frontend_ir = direct->frontend;
        if (!frontend_ir) {
          auto reparsed = timed(recorder_, timings, "parse-ekl",
                                [&] { return frontend::parse_ekl(source); });
          if (!reparsed) return reparsed.error().with_context("basecamp");
          frontend_ir = *reparsed;
        }
        auto result = result_from_cache(std::move(frontend_ir),
                                        std::move(*hit), options,
                                        std::move(timings));
        if (result)
          result->ekl_source_lines = frontend::count_ekl_lines(source);
        return result;
      }
      // Evicted or corrupt entry behind a stale mapping: compile fresh.
    }
  }

  auto parsed = timed(recorder_, timings, "parse-ekl",
                      [&] { return frontend::parse_ekl(source); });
  if (!parsed) return parsed.error().with_context("basecamp");
  if (auto s = ctx_.verify(**parsed); !s.is_ok())
    return Error::internal("basecamp: frontend IR invalid: " + s.message());

  auto teil = timed(recorder_, timings, "lower-ekl-to-teil", [&] {
    return transforms::lower_ekl_to_teil(**parsed, bindings);
  });
  if (!teil) return teil.error();

  auto result = backend(*parsed, *teil, options, std::move(timings),
                        fingerprint);
  if (result) result->ekl_source_lines = frontend::count_ekl_lines(source);
  return result;
}

Expected<CompileResult> Basecamp::compile_cfdlang(const std::string &source,
                                                  const CompileOptions &options) {
  if (auto s = validate_compile_options(options); !s.is_ok())
    return s.error().with_context("basecamp");
  std::vector<StageTiming> timings;

  std::string fingerprint;
  if (cache_) {
    fingerprint = cfdlang_fingerprint(source, options);
    if (auto direct = cache_->direct_lookup(fingerprint)) {
      auto hit = timed(recorder_, timings, "cache-lookup",
                       [&] { return cache_->lookup(direct->key); });
      if (hit) {
        std::shared_ptr<const ir::Module> frontend_ir = direct->frontend;
        if (!frontend_ir) {
          auto reparsed =
              timed(recorder_, timings, "parse-cfdlang",
                    [&] { return frontend::parse_cfdlang(source); });
          if (!reparsed) return reparsed.error().with_context("basecamp");
          frontend_ir = *reparsed;
        }
        return result_from_cache(std::move(frontend_ir), std::move(*hit),
                                 options, std::move(timings));
      }
    }
  }

  auto parsed = timed(recorder_, timings, "parse-cfdlang",
                      [&] { return frontend::parse_cfdlang(source); });
  if (!parsed) return parsed.error().with_context("basecamp");
  if (auto s = ctx_.verify(**parsed); !s.is_ok())
    return Error::internal("basecamp: frontend IR invalid: " + s.message());

  auto teil = timed(recorder_, timings, "lower-cfdlang-to-teil",
                    [&] { return transforms::lower_cfdlang_to_teil(**parsed); });
  if (!teil) return teil.error();
  return backend(*parsed, *teil, options, std::move(timings), fingerprint);
}

std::vector<Expected<CompileResult>> Basecamp::compile_many(
    const std::vector<CompileJob> &jobs, int parallel_jobs) {
  auto one = [&](std::size_t i) -> Expected<CompileResult> {
    const CompileJob &job = jobs[i];
    auto result = job.kind == CompileJob::Kind::Ekl
                      ? compile_ekl(job.source, job.bindings, job.options)
                      : compile_cfdlang(job.source, job.options);
    if (!result && !job.name.empty())
      return result.error().with_context(job.name);
    return result;
  };
  std::size_t workers =
      parallel_jobs > 1
          ? std::min(jobs.size(), static_cast<std::size_t>(parallel_jobs))
          : 1;
  if (workers <= 1 || jobs.size() < 2) {
    std::vector<Expected<CompileResult>> results;
    results.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) results.push_back(one(i));
    return results;
  }
  std::shared_ptr<support::ThreadPool> pool;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    if (!pool_ || pool_->size() < workers) {
      pool_ = std::make_shared<support::ThreadPool>(workers);
      pool_->set_observer([this](std::size_t queued, std::size_t active) {
        recorder_.gauge("sdk.pool.queued").set(static_cast<double>(queued));
        recorder_.gauge("sdk.pool.active").set(static_cast<double>(active));
      });
    }
    pool = pool_;
  }
  return support::parallel_indexed(pool.get(), jobs.size(), one);
}

void Basecamp::attach_cache(CompileCache *cache) {
  cache_ = cache;
  if (cache_) cache_->attach_recorder(&recorder_);
}

Expected<CompileResult> Basecamp::result_from_cache(
    std::shared_ptr<const ir::Module> frontend_ir, CompileCacheEntry entry,
    const CompileOptions &options, std::vector<StageTiming> timings) const {
  CompileResult result;
  result.frontend_ir = std::move(frontend_ir);
  result.teil_ir = std::move(entry.teil_ir);
  result.loop_ir = std::move(entry.loop_ir);
  result.system_ir = std::move(entry.system_ir);
  result.kernel = std::move(entry.kernel);
  result.estimate = entry.estimate;
  result.datapath_bits = entry.datapath_bits;
  result.olympus_options = options.olympus;
  if (options.number_format != "f64")
    result.olympus_options.element_bits = entry.datapath_bits;
  auto device = device_by_name(options.target);
  if (!device) return device.error();
  result.device = *device;
  result.timings = std::move(timings);
  return result;
}

Expected<CompileResult> Basecamp::backend(
    std::shared_ptr<const ir::Module> frontend_ir,
    std::shared_ptr<ir::Module> teil_ir, const CompileOptions &options,
    std::vector<StageTiming> timings, const std::string &direct_fingerprint) {
  CompileResult result;
  result.frontend_ir = std::move(frontend_ir);

  if (auto s = ctx_.verify(*teil_ir); !s.is_ok())
    return Error::internal("basecamp: teil IR invalid: " + s.message());

  if (options.canonicalize) {
    // The mid-end runs as an anchored pass pipeline: canonicalize is
    // func-scoped, so the pass manager fingerprints each top-level func and
    // skips it on a per-pass cache hit — a repeat compile of an unchanged
    // kernel pays one print + hash instead of the rewrite fixpoint.
    auto status = timed(recorder_, timings, "canonicalize", [&] {
      ir::PassManager pm(ctx_);
      // Route pass spans and the ir.arena.* / ir.uselist.nodes storage
      // gauges into this Basecamp's recorder so they land in --trace-out
      // summaries instead of the process-global fallback.
      pm.attach_recorder(&recorder_);
      pm.add_func_pass("canonicalize",
                       [](ir::Operation &func, ir::Context &) {
                         return transforms::canonicalize_func_checked(func);
                       });
      if (cache_) pm.set_pass_cache(&cache_->pass_tier());
      return pm.run(*teil_ir);
    });
    if (!status.is_ok()) return Error::internal("basecamp: " + status.message());
    if (auto s = ctx_.verify(*teil_ir); !s.is_ok())
      return Error::internal("basecamp: teil IR invalid after canonicalize: " +
                             s.message());
  }

  // esn: raise einsums, pick the contraction order, lower back.
  if (options.optimize_einsum_order) {
    auto status = timed(recorder_, timings, "esn-reorder",
                        [&]() -> support::Status {
      transforms::extract_einsums(*teil_ir);
      transforms::eliminate_dead_code(*teil_ir);
      auto flops = transforms::lower_esn(*teil_ir, /*optimize_order=*/true);
      if (!flops) return support::Status::failure(flops.error().message);
      transforms::eliminate_dead_code(*teil_ir);
      return support::Status::ok();
    });
    if (!status.is_ok()) return Error::internal(status.message());
    if (auto s = ctx_.verify(*teil_ir); !s.is_ok())
      return Error::internal("basecamp: teil IR invalid after esn: " +
                             s.message());
  }

  // Content-addressed tier: keyed on the canonical (pre-base2-annotation)
  // TeIL text, so EKL and CFDlang sources lowering to the same tensor
  // program share one entry. A hit also refreshes the direct tier.
  std::uint64_t content_key = 0;
  if (cache_) {
    auto hit = timed(recorder_, timings, "cache-lookup",
                     [&]() -> Expected<CompileCacheEntry> {
      content_key =
          CompileCache::key(teil_ir->str(), options, options.target);
      return cache_->lookup(content_key);
    });
    if (hit) {
      if (!direct_fingerprint.empty())
        cache_->direct_store(direct_fingerprint, content_key,
                             result.frontend_ir);
      return result_from_cache(std::move(result.frontend_ir), std::move(*hit),
                               options, std::move(timings));
    }
  }

  // base2 format choice adjusts the datapath width seen by HLS.
  CompileOptions effective = options;
  result.datapath_bits = 64;
  if (options.number_format != "f64") {
    auto format = transforms::make_format(options.number_format);
    if (!format) return format.error();
    result.datapath_bits = (*format)->bit_width();
    effective.hls.datapath_bits = result.datapath_bits;
    effective.olympus.element_bits = result.datapath_bits;
  }

  // Loop lowering runs on the f64-typed TeIL; the base2 annotation is
  // applied afterwards so the exported teil_ir carries the chosen types.
  auto loops = timed(recorder_, timings, "lower-teil-to-loops",
                     [&] { return transforms::lower_teil_to_loops(*teil_ir); });
  if (!loops) return loops.error();
  if (auto s = ctx_.verify(**loops); !s.is_ok())
    return Error::internal("basecamp: loop IR invalid: " + s.message());
  result.loop_ir = *loops;

  if (options.number_format != "f64") {
    auto width = timed(recorder_, timings, "base2-legalize", [&] {
      return transforms::annotate_base2(*teil_ir, options.number_format);
    });
    if (!width) return width.error();
  }
  // Rewriting is done: from here on the TeIL module is only read.
  result.teil_ir = std::move(teil_ir);

  auto kernel = timed(recorder_, timings, "hls-schedule", [&] {
    return hls::schedule_kernel(**loops, effective.hls);
  });
  if (!kernel) return kernel.error();
  result.kernel = *kernel;

  auto device = device_by_name(options.target);
  if (!device) return device.error();
  result.device = *device;

  olympus::SystemGenerator generator(*device);
  result.olympus_options = effective.olympus;
  auto estimate = timed(recorder_, timings, "olympus-estimate", [&] {
    return generator.estimate(*kernel, effective.olympus);
  });
  if (!estimate) return estimate.error();
  result.estimate = *estimate;

  auto system_ir = timed(recorder_, timings, "olympus-generate", [&] {
    return generator.generate_ir(*kernel, effective.olympus);
  });
  if (!system_ir) return system_ir.error();
  // evp integration ops record the deployment intent on the module.
  {
    ir::OpBuilder b(&(*system_ir)->body());
    b.create("evp.platform", {}, {},
             {{"name", ir::Attribute(options.target)}});
    b.create("evp.offload", {}, {},
             {{"kernel", ir::Attribute(kernel->name)},
              {"format", ir::Attribute(options.number_format)}});
  }
  if (auto s = ctx_.verify(**system_ir); !s.is_ok())
    return Error::internal("basecamp: system IR invalid: " + s.message());
  result.system_ir = *system_ir;

  if (cache_) {
    cache_->store(content_key,
                  CompileCacheEntry{result.teil_ir, result.loop_ir,
                                    result.system_ir, result.kernel,
                                    result.estimate, result.datapath_bits});
    if (!direct_fingerprint.empty())
      cache_->direct_store(direct_fingerprint, content_key,
                           result.frontend_ir);
  }

  result.timings = std::move(timings);
  return result;
}

Expected<double> Basecamp::deploy_and_run(platform::Device &device,
                                          const CompileResult &result) const {
  olympus::SystemGenerator generator(result.device);
  return generator.execute_on(device, result.kernel, result.olympus_options);
}

Expected<double> Basecamp::deploy_and_run(platform::Device &device,
                                          const CompileResult &result,
                                          const resil::ExecutionPolicy &policy) {
  olympus::SystemGenerator generator(result.device);
  auto attempt = [&]() -> Expected<double> {
    auto us = generator.execute_on(device, result.kernel,
                                   result.olympus_options);
    if (!us) return us;
    // The simulated run completed but blew its budget: classify as a
    // retryable deadline miss (a later attempt may dodge the injected
    // kernel hang that caused it).
    if (policy.deadline.enabled() && *us > policy.deadline.deadline_us)
      return support::Error::deadline_exceeded(
          "sdk: device run took " + std::to_string(*us) + " us, past the " +
          std::to_string(policy.deadline.deadline_us) + " us deadline on " +
          device.spec().name);
    return us;
  };
  return resil::with_retry(
      policy.retry, attempt, [&](double us) { device.host_wait_us(us); },
      &recorder_, "deploy");
}

}  // namespace everest::sdk
