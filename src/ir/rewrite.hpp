// everest/ir/rewrite.hpp
//
// Pattern-rewrite infrastructure: patterns match a root op name and rewrite
// in place; a driver applies them to fixpoint (bounded).
//
// Two drivers share the RewriteStats contract:
//  - Worklist (default): seeds a FIFO worklist with every op, dispatches
//    patterns through an index keyed on interned root names, and after each
//    fired rewrite re-enqueues only the affected ops (created ops, users of
//    replaced results, the parent op, and operand definers of erased ops).
//    Cost scales with the amount of change, not module size.
//  - LegacySweep: the original full-module sweep, kept for differential
//    testing — both drivers must produce byte-identical modules on
//    confluent pattern sets.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ir/builder.hpp"
#include "ir/interner.hpp"
#include "ir/ir.hpp"

namespace everest::ir {

/// Mutation helper passed to patterns: erase/replace with correct use-list
/// bookkeeping, plus creation helpers that keep the driver informed. All IR
/// mutation inside a pattern must go through this interface (or be reported
/// with notify_created) — the worklist driver relies on the notifications to
/// know which ops to revisit.
class PatternRewriter {
public:
  virtual ~PatternRewriter() = default;

  /// Replaces all uses of op's results and schedules it for erasure.
  void replace_op(Operation *op, const std::vector<Value *> &replacements) {
    on_replace(op, replacements);
    op->replace_all_uses_with(replacements);
    on_erase(op);
  }

  /// Schedules op for erasure (its results must be unused by then).
  void erase_op(Operation *op) { on_erase(op); }

  /// Reports an op the pattern created through its own builder so the driver
  /// can enqueue it. The create_* helpers below call this automatically.
  void notify_created(Operation *op) { on_created(op); }

  /// Creates an op immediately before `anchor` and notifies the driver.
  Operation &create_before(Operation *anchor, std::string_view name,
                           std::vector<Value *> operands,
                           std::vector<Type> result_types,
                           AttrDict attributes = {}) {
    OpBuilder b(anchor->parent_block());
    b.set_insertion_point(anchor);
    Operation &op = b.create(name, std::move(operands),
                             std::move(result_types), std::move(attributes));
    on_created(&op);
    return op;
  }

  /// Single-result convenience over create_before.
  Value *create_value_before(Operation *anchor, std::string_view name,
                             std::vector<Value *> operands, Type result_type,
                             AttrDict attributes = {}) {
    return create_before(anchor, name, std::move(operands),
                         {std::move(result_type)}, std::move(attributes))
        .result(0);
  }

protected:
  /// Driver hooks. `on_replace` runs before uses are rewritten so the driver
  /// can snapshot the users that need revisiting; `on_erase` must defer the
  /// actual Block::erase until the pattern returns.
  virtual void on_created(Operation *op) = 0;
  virtual void on_replace(Operation *op,
                          const std::vector<Value *> &replacements) = 0;
  virtual void on_erase(Operation *op) = 0;
};

/// A rewrite pattern anchored on ops named `root_name` ("" matches any op).
class RewritePattern {
public:
  explicit RewritePattern(std::string_view root_name, int benefit = 1)
      : root_(root_name), benefit_(benefit) {}
  virtual ~RewritePattern() = default;

  [[nodiscard]] const std::string &root_name() const { return root_.str(); }
  /// Interned root: the worklist driver dispatches on pointer equality.
  [[nodiscard]] Symbol root_symbol() const { return root_; }
  [[nodiscard]] int benefit() const { return benefit_; }

  /// Attempts the rewrite; returns true if the IR changed.
  virtual bool match_and_rewrite(Operation &op, PatternRewriter &rewriter) = 0;

private:
  Symbol root_;
  int benefit_;
};

/// Pattern from a lambda.
class LambdaPattern final : public RewritePattern {
public:
  using Fn = std::function<bool(Operation &, PatternRewriter &)>;
  LambdaPattern(std::string_view root_name, Fn fn, int benefit = 1)
      : RewritePattern(root_name, benefit), fn_(std::move(fn)) {}
  bool match_and_rewrite(Operation &op, PatternRewriter &rewriter) override {
    return fn_(op, rewriter);
  }

private:
  Fn fn_;
};

/// Which greedy driver to run.
enum class RewriteDriver {
  Worklist,     ///< Re-enqueue only affected ops after each fire.
  LegacySweep,  ///< Re-walk the whole module every iteration.
};

/// Result of a greedy rewrite run. `iterations` counts full sweeps for the
/// legacy driver and worklist rounds for the worklist driver; `ops_visited`
/// counts pattern-dispatch attempts (the work metric the worklist driver
/// minimizes); `worklist_pushes` is zero for the legacy driver.
struct RewriteStats {
  std::size_t iterations = 0;
  std::size_t rewrites = 0;
  std::size_t ops_visited = 0;
  std::size_t worklist_pushes = 0;
  bool converged = false;
};

/// Applies patterns greedily until no pattern fires or `max_iterations`
/// rounds elapse. Non-convergence bumps the `ir.rewrite.nonconverged` obs
/// counter when a global recorder is installed.
RewriteStats apply_patterns_greedily(
    Module &module, const std::vector<std::shared_ptr<RewritePattern>> &patterns,
    std::size_t max_iterations = 32,
    RewriteDriver driver = RewriteDriver::Worklist);

/// Same, scoped to the ops nested under `root` (the root itself is not
/// matched, mirroring how the module form excludes the module op). This is
/// the form func-scoped passes use. Like every mutation of a module, it must
/// not run concurrently with another on the same module (see ir/arena.hpp).
RewriteStats apply_patterns_greedily(
    Operation &root,
    const std::vector<std::shared_ptr<RewritePattern>> &patterns,
    std::size_t max_iterations = 32,
    RewriteDriver driver = RewriteDriver::Worklist);

}  // namespace everest::ir
