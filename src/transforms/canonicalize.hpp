// everest/transforms/canonicalize.hpp
//
// Canonicalization for the EVEREST IR: greedy constant folding of arith
// expressions, block-local common-subexpression elimination over pure ops,
// broadcast-chain folding in teil, and a driver that iterates them together
// with dead-code elimination to a fixpoint. basecamp runs this between the
// frontend and the backend (visible as the "canonicalize" stage timing).
#pragma once

#include <cstddef>

#include "ir/rewrite.hpp"
#include "support/expected.hpp"

namespace everest::transforms {

/// Patterns folding arith ops with constant operands (addf/subf/mulf/divf/
/// minf/maxf/negf, cmpf, select-with-constant-condition).
std::vector<std::shared_ptr<ir::RewritePattern>> constant_fold_patterns();

/// The full canonicalization pattern set: constant folds plus teil-level
/// folds (teil.map over all-constant splats, teil.broadcast of a constant)
/// and a low-benefit dead-op elimination pattern. When `dce_fired` is
/// non-null it accumulates the number of DCE-pattern fires so callers can
/// attribute them separately from folds.
std::vector<std::shared_ptr<ir::RewritePattern>> canonicalize_patterns(
    std::size_t *dce_fired = nullptr);

/// Block-local CSE over pure single-result ops (arith, teil, esn). Returns
/// the number of ops replaced.
std::size_t common_subexpression_elimination(ir::Module &module);

/// Func-scoped CSE: same elimination, confined to the blocks nested under
/// `root` (the op itself is untouched).
std::size_t common_subexpression_elimination(ir::Operation &root);

/// Folds teil.broadcast(teil.broadcast(x)) into one composed broadcast.
/// Returns the number of chains folded.
std::size_t fold_broadcast_chains(ir::Module &module);

/// Func-scoped broadcast-chain folding under `root`.
std::size_t fold_broadcast_chains(ir::Operation &root);

/// Summary of one canonicalization run.
struct CanonicalizeStats {
  std::size_t folded_constants = 0;
  std::size_t cse_replaced = 0;
  std::size_t broadcasts_folded = 0;
  std::size_t dce_removed = 0;
  std::size_t iterations = 0;
  /// False when the run was cut off by `max_iterations` (or the inner
  /// rewrite driver hit its own bound) while changes were still landing.
  bool converged = false;
};

/// Runs fold + CSE + broadcast folding + DCE to fixpoint (bounded).
CanonicalizeStats canonicalize(
    ir::Module &module, std::size_t max_iterations = 8,
    ir::RewriteDriver driver = ir::RewriteDriver::Worklist);

/// Func-scoped canonicalization: the same fold + CSE + broadcast folding +
/// DCE fixpoint, confined to the IR nested under `func` (the func op itself
/// is never matched or mutated). This is the body of the func-anchored
/// "canonicalize" pass: the PassManager runs it once per top-level func of
/// a module, and the per-pass cache keys its result by the func's printed
/// text.
CanonicalizeStats canonicalize_func(
    ir::Operation &func, std::size_t max_iterations = 8,
    ir::RewriteDriver driver = ir::RewriteDriver::Worklist);

/// Like canonicalize_func(), surfacing non-convergence as a failed Status.
support::Status canonicalize_func_checked(
    ir::Operation &func, CanonicalizeStats *out = nullptr,
    std::size_t max_iterations = 8,
    ir::RewriteDriver driver = ir::RewriteDriver::Worklist);

/// Like canonicalize(), but surfaces non-convergence as a failed Status
/// (ErrorCode::Internal) instead of silently returning partial results.
/// `out` receives the stats when non-null.
support::Status canonicalize_checked(
    ir::Module &module, CanonicalizeStats *out = nullptr,
    std::size_t max_iterations = 8,
    ir::RewriteDriver driver = ir::RewriteDriver::Worklist);

}  // namespace everest::transforms
