// everest/ir/pass.hpp
//
// Pass infrastructure: a pipeline of anchored passes composed in a
// PassManager that verifies the module between passes and records per-pass
// timing (the Fig. 5 bench reports these timings per lowering path).
//
// Anchoring (paper §V-B; MLIR-lineage pass managers work the same way):
//  - Module-scoped passes see the whole module.
//  - Func-scoped passes run once per top-level op of the module body, in
//    module order on the caller's thread, and may only mutate IR nested
//    under that op. The scoping is what the per-pass cache keys on;
//    parallelism lives one level up, across modules (sdk compile_many).
//
// Func-scoped passes can additionally be memoized through a PassCache: the
// pre-pass func text is fingerprinted per pass, and on a hit the cached
// post-pass func is cloned in instead of re-running the pass — so a
// one-kernel edit re-runs only that kernel's passes.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ir/dialect.hpp"
#include "ir/ir.hpp"
#include "obs/trace.hpp"
#include "support/expected.hpp"

namespace everest::ir {

/// Where a pass is anchored: the whole module, or each top-level func-like
/// op of the module body.
enum class PassAnchor { Module, Func };

/// A transformation with a name and an anchor. Module-anchored passes
/// override `run`; func-anchored passes override `run_on_func`.
class Pass {
public:
  explicit Pass(std::string name, PassAnchor anchor = PassAnchor::Module)
      : name_(std::move(name)), anchor_(anchor) {}
  virtual ~Pass() = default;

  [[nodiscard]] const std::string &name() const { return name_; }
  [[nodiscard]] PassAnchor anchor() const { return anchor_; }

  /// Module-anchored entry point.
  virtual support::Status run(Module &module, Context &ctx);
  /// Func-anchored entry point. Must only mutate IR nested under `func`.
  virtual support::Status run_on_func(Operation &func, Context &ctx);

private:
  std::string name_;
  PassAnchor anchor_;
};

/// Adapts a plain function into a module-anchored Pass.
class LambdaPass final : public Pass {
public:
  using Fn = std::function<support::Status(Module &, Context &)>;
  LambdaPass(std::string name, Fn fn)
      : Pass(std::move(name), PassAnchor::Module), fn_(std::move(fn)) {}
  support::Status run(Module &module, Context &ctx) override {
    return fn_(module, ctx);
  }

private:
  Fn fn_;
};

/// Adapts a plain function into a func-anchored Pass.
class LambdaFuncPass final : public Pass {
public:
  using Fn = std::function<support::Status(Operation &, Context &)>;
  LambdaFuncPass(std::string name, Fn fn)
      : Pass(std::move(name), PassAnchor::Func), fn_(std::move(fn)) {}
  support::Status run_on_func(Operation &func, Context &ctx) override {
    return fn_(func, ctx);
  }

private:
  Fn fn_;
};

/// Timing record for one executed pass.
struct PassTiming {
  std::string name;
  double milliseconds = 0.0;
  std::size_t ops_before = 0;
  std::size_t ops_after = 0;
};

/// Incremental memo for func-anchored passes, keyed by
/// `pass_fingerprint(pass name, pre-pass func text)`. Implementations must
/// be safe to share across pass managers and threads (sdk::CompileCache
/// provides the production implementation; it locks internally). A hit is
/// shared ownership of an immutable module, so it outlives any concurrent
/// `store` or eviction and callers clone from it without holding a lock.
class PassCache {
public:
  virtual ~PassCache() = default;
  /// A module whose single top-level op is the cached post-pass func for
  /// `key`, or nullptr on miss.
  virtual std::shared_ptr<const Module> lookup(std::uint64_t key) = 0;
  /// Memoizes the post-pass func under `key` (the implementation clones).
  virtual void store(std::uint64_t key, const Operation &func) = 0;
};

/// FNV-1a fingerprint binding a pass name to a func's printed form.
[[nodiscard]] std::uint64_t pass_fingerprint(std::string_view pass_name,
                                             std::string_view func_text);

/// Runs a pipeline of anchored passes with inter-pass verification.
class PassManager {
public:
  explicit PassManager(Context &ctx, bool verify_each = true)
      : ctx_(ctx), verify_each_(verify_each) {}

  void add_pass(std::unique_ptr<Pass> pass) {
    passes_.push_back(std::move(pass));
  }
  /// Module-anchored lambda pass.
  void add_pass(std::string name, LambdaPass::Fn fn) {
    passes_.push_back(
        std::make_unique<LambdaPass>(std::move(name), std::move(fn)));
  }
  /// Func-anchored lambda pass.
  void add_func_pass(std::string name, LambdaFuncPass::Fn fn) {
    passes_.push_back(
        std::make_unique<LambdaFuncPass>(std::move(name), std::move(fn)));
  }

  [[nodiscard]] std::size_t size() const { return passes_.size(); }

  /// Mirrors per-pass timings as trace spans (category "ir.pass", track
  /// "pass-manager") on `recorder`. Falls back to the global recorder when
  /// none is attached; spans are skipped when neither exists.
  void attach_recorder(obs::TraceRecorder *recorder) { recorder_ = recorder; }

  /// Attaches the per-pass incremental cache used for func-anchored passes.
  void set_pass_cache(PassCache *cache) { pass_cache_ = cache; }

  /// Runs all passes in order; stops at the first failure. When verification
  /// is enabled, a verifier failure after pass P reports P by name.
  support::Status run(Module &module);

  [[nodiscard]] const std::vector<PassTiming> &timings() const {
    return timings_;
  }

  /// Per-run func-pass cache traffic (both zero when no cache is attached).
  struct CacheStats {
    std::size_t hits = 0;
    std::size_t misses = 0;
  };
  [[nodiscard]] const CacheStats &cache_stats() const { return cache_stats_; }

private:
  support::Status run_func_pass(Pass &pass, Module &module);

  Context &ctx_;
  bool verify_each_;
  obs::TraceRecorder *recorder_ = nullptr;
  PassCache *pass_cache_ = nullptr;
  std::vector<std::unique_ptr<Pass>> passes_;
  std::vector<PassTiming> timings_;
  CacheStats cache_stats_;
};

}  // namespace everest::ir
