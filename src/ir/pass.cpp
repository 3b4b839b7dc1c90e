#include "ir/pass.hpp"

namespace everest::ir {

support::Status Pass::run(Module &, Context &) {
  return support::Status::failure("pass '" + name() +
                                  "' is not module-anchored");
}

support::Status Pass::run_on_func(Operation &, Context &) {
  return support::Status::failure("pass '" + name() +
                                  "' is not func-anchored");
}

std::uint64_t pass_fingerprint(std::string_view pass_name,
                               std::string_view func_text) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix = [&h](std::string_view s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  mix(pass_name);
  mix("\x1f");
  mix(func_text);
  return h;
}

support::Status PassManager::run_func_pass(Pass &pass, Module &module) {
  // Snapshot the top-level ops: cache hits splice replacements in place and
  // the funcs themselves never move relative to each other.
  std::vector<Operation *> funcs;
  funcs.reserve(module.body().size());
  for (Operation &op : module.body()) funcs.push_back(&op);

  // One func at a time on the caller's thread: a hit splices the cached
  // post-pass clone in; a miss runs the pass and memoizes the result under
  // the pre-pass fingerprint.
  for (Operation *func : funcs) {
    std::uint64_t key = 0;
    if (pass_cache_ != nullptr) {
      key = pass_fingerprint(pass.name(), func->str());
      if (auto cached = pass_cache_->lookup(key)) {
        ++cache_stats_.hits;
        Block &body = module.body();
        clone_op_into(cached->body().front(), body, func);
        body.erase(func);
        continue;
      }
      ++cache_stats_.misses;
    }
    if (auto s = pass.run_on_func(*func, ctx_); !s.is_ok()) return s;
    if (pass_cache_ != nullptr) pass_cache_->store(key, *func);
  }
  return support::Status::ok();
}

support::Status PassManager::run(Module &module) {
  timings_.clear();
  cache_stats_ = {};
  obs::TraceRecorder *recorder =
      recorder_ != nullptr ? recorder_ : obs::global_recorder();
  if (verify_each_) {
    if (auto s = ctx_.verify(module); !s.is_ok()) {
      return support::Status::failure("pre-pipeline verification failed: " +
                                      s.message());
    }
  }
  for (auto &pass : passes_) {
    PassTiming timing;
    timing.name = pass->name();
    timing.ops_before = module.op_count();
    double span_start = recorder != nullptr ? recorder->now_us() : 0.0;
    auto start = std::chrono::steady_clock::now();
    auto result = pass->anchor() == PassAnchor::Func
                      ? run_func_pass(*pass, module)
                      : pass->run(module, ctx_);
    auto stop = std::chrono::steady_clock::now();
    timing.milliseconds =
        std::chrono::duration<double, std::milli>(stop - start).count();
    timing.ops_after = module.op_count();
    timings_.push_back(timing);
    if (recorder != nullptr) {
      obs::TraceEvent event;
      event.name = "pass:" + timing.name;
      event.category = "ir.pass";
      event.track = "pass-manager";
      event.start_us = span_start;
      event.duration_us = timing.milliseconds * 1000.0;
      event.args.emplace_back("ops_before", std::to_string(timing.ops_before));
      event.args.emplace_back("ops_after", std::to_string(timing.ops_after));
      recorder->record(std::move(event));
    }
    if (!result.is_ok()) {
      return support::Status::failure("pass '" + pass->name() +
                                      "' failed: " + result.message());
    }
    if (verify_each_) {
      if (auto s = ctx_.verify(module); !s.is_ok()) {
        return support::Status::failure("verification failed after pass '" +
                                        pass->name() + "': " + s.message());
      }
    }
  }
  if (recorder != nullptr) {
    // Storage telemetry next to the ir.rewrite.* counters: how much arena
    // the pipeline left behind and how many use-list slots it allocated.
    Arena::Stats stats = module.arena().stats();
    recorder->gauge("ir.arena.slabs").set(static_cast<double>(stats.slabs));
    recorder->gauge("ir.arena.bytes")
        .set(static_cast<double>(stats.bytes_used));
    recorder->gauge("ir.arena.high_water")
        .set(static_cast<double>(stats.high_water));
    recorder->gauge("ir.uselist.nodes")
        .set(static_cast<double>(stats.use_nodes));
  }
  return support::Status::ok();
}

}  // namespace everest::ir
