#include "transforms/canonicalize.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "ir/builder.hpp"
#include "support/strings.hpp"
#include "transforms/esn_extract.hpp"  // eliminate_dead_code

namespace everest::transforms {

namespace {

using ir::Attribute;
using ir::Operation;
using ir::PatternRewriter;
using ir::Value;

/// A value's compile-time constant, if its defining op is arith.constant.
bool constant_of(const Value *v, double &out) {
  const Operation *def = v->defining_op();
  if (!def || def->name() != "arith.constant") return false;
  out = def->attr_double("value");
  return true;
}

/// Materializes a constant before `anchor` with the same result type. Goes
/// through the rewriter so the driver learns about the new op.
Value *make_constant(PatternRewriter &rw, Operation &anchor, double value) {
  return rw.create_value_before(&anchor, "arith.constant", {},
                                anchor.result(0)->type(),
                                {{"value", value}});
}

}  // namespace

std::vector<std::shared_ptr<ir::RewritePattern>> constant_fold_patterns() {
  std::vector<std::shared_ptr<ir::RewritePattern>> patterns;

  patterns.push_back(std::make_shared<ir::LambdaPattern>(
      "", [](Operation &op, PatternRewriter &rw) {
        static const std::map<std::string, double (*)(double, double)> kBinary{
            {"arith.addf", [](double a, double b) { return a + b; }},
            {"arith.subf", [](double a, double b) { return a - b; }},
            {"arith.mulf", [](double a, double b) { return a * b; }},
            {"arith.divf", [](double a, double b) { return a / b; }},
            {"arith.minf", [](double a, double b) { return std::min(a, b); }},
            {"arith.maxf", [](double a, double b) { return std::max(a, b); }},
        };
        auto it = kBinary.find(op.name());
        if (it == kBinary.end()) return false;
        double lhs = 0, rhs = 0;
        if (!constant_of(op.operand(0), lhs) ||
            !constant_of(op.operand(1), rhs))
          return false;
        Value *c = make_constant(rw, op, it->second(lhs, rhs));
        rw.replace_op(&op, {c});
        return true;
      }));

  patterns.push_back(std::make_shared<ir::LambdaPattern>(
      "", [](Operation &op, PatternRewriter &rw) {
        static const std::map<std::string, double (*)(double)> kUnary{
            {"arith.negf", [](double a) { return -a; }},
            {"arith.exp", [](double a) { return std::exp(a); }},
            {"arith.sqrt", [](double a) { return std::sqrt(a); }},
            {"arith.floor", [](double a) { return std::floor(a); }},
        };
        auto it = kUnary.find(op.name());
        if (it == kUnary.end()) return false;
        double x = 0;
        if (!constant_of(op.operand(0), x)) return false;
        Value *c = make_constant(rw, op, it->second(x));
        rw.replace_op(&op, {c});
        return true;
      }));

  patterns.push_back(std::make_shared<ir::LambdaPattern>(
      "arith.select", [](Operation &op, PatternRewriter &rw) {
        double cond = 0;
        if (!constant_of(op.operand(0), cond)) return false;
        rw.replace_op(&op, {cond != 0.0 ? op.operand(1) : op.operand(2)});
        return true;
      }));

  // Algebraic identities: x*1 = x, x+0 = x, x*0 = 0.
  patterns.push_back(std::make_shared<ir::LambdaPattern>(
      "", [](Operation &op, PatternRewriter &rw) {
        bool is_mul = op.name() == "arith.mulf";
        bool is_add = op.name() == "arith.addf";
        if (!is_mul && !is_add) return false;
        for (int side = 0; side < 2; ++side) {
          double c = 0;
          if (!constant_of(op.operand(static_cast<std::size_t>(side)), c))
            continue;
          Value *other = op.operand(static_cast<std::size_t>(1 - side));
          if (is_mul && c == 1.0) {
            rw.replace_op(&op, {other});
            return true;
          }
          if (is_add && c == 0.0) {
            rw.replace_op(&op, {other});
            return true;
          }
          if (is_mul && c == 0.0) {
            Value *zero = make_constant(rw, op, 0.0);
            rw.replace_op(&op, {zero});
            return true;
          }
        }
        return false;
      }));

  return patterns;
}

namespace {

/// A value's compile-time splat constant, if defined by teil.constant.
bool teil_constant_of(const Value *v, double &out) {
  const Operation *def = v->defining_op();
  if (!def || def->name() != "teil.constant") return false;
  out = def->attr_double("value");
  return true;
}

}  // namespace

std::vector<std::shared_ptr<ir::RewritePattern>> canonicalize_patterns(
    std::size_t *dce_fired) {
  auto patterns = constant_fold_patterns();

  // teil.map over all-constant splats folds to one splat constant (splat
  // semantics make the elementwise fn a scalar computation).
  patterns.push_back(std::make_shared<ir::LambdaPattern>(
      "teil.map", [](Operation &op, PatternRewriter &rw) {
        static const std::map<std::string, double (*)(double, double)> kBinary{
            {"add", [](double a, double b) { return a + b; }},
            {"sub", [](double a, double b) { return a - b; }},
            {"mul", [](double a, double b) { return a * b; }},
            {"div", [](double a, double b) { return a / b; }},
            {"min", [](double a, double b) { return std::min(a, b); }},
            {"max", [](double a, double b) { return std::max(a, b); }},
        };
        const std::string fn = op.attr_string("fn");
        double folded = 0;
        if (fn == "neg") {
          if (op.num_operands() != 1 || !teil_constant_of(op.operand(0), folded))
            return false;
          folded = -folded;
        } else {
          auto it = kBinary.find(fn);
          if (it == kBinary.end() || op.num_operands() != 2) return false;
          double lhs = 0, rhs = 0;
          if (!teil_constant_of(op.operand(0), lhs) ||
              !teil_constant_of(op.operand(1), rhs))
            return false;
          folded = it->second(lhs, rhs);
        }
        Value *c = rw.create_value_before(&op, "teil.constant", {},
                                          op.result(0)->type(),
                                          {{"value", folded}});
        rw.replace_op(&op, {c});
        return true;
      }));

  // Broadcasting a splat constant is the same splat at the bigger shape.
  patterns.push_back(std::make_shared<ir::LambdaPattern>(
      "teil.broadcast", [](Operation &op, PatternRewriter &rw) {
        double value = 0;
        if (!teil_constant_of(op.operand(0), value)) return false;
        Value *c = rw.create_value_before(&op, "teil.constant", {},
                                          op.result(0)->type(),
                                          {{"value", value}});
        rw.replace_op(&op, {c});
        return true;
      }));

  // Dead-op elimination as a pattern (same eligibility as
  // eliminate_dead_code): benefit 0 so folds run first on each op.
  patterns.push_back(std::make_shared<ir::LambdaPattern>(
      "",
      [dce_fired](Operation &op, PatternRewriter &rw) {
        if (op.num_results() == 0 || op.num_regions() > 0) return false;
        for (std::size_t r = 0; r < op.num_results(); ++r) {
          if (op.result(r)->has_uses()) return false;
        }
        rw.erase_op(&op);
        if (dce_fired != nullptr) ++*dce_fired;
        return true;
      },
      /*benefit=*/0));

  return patterns;
}

namespace {

bool cse_eligible(const Operation &op) {
  if (op.num_results() != 1 || op.num_regions() != 0) return false;
  std::string_view d = op.dialect();
  if (d == "arith" || d == "esn") return true;
  if (d == "teil") return op.name() != "teil.output";
  return false;
}

std::string signature(const Operation &op) {
  std::string sig = op.name();
  // Result types are part of the identity: the same inputs can produce
  // different shapes (e.g. teil.iota of different extents).
  sig += ':';
  sig += op.result(0)->type().str();
  for (const auto &[key, value] : op.attributes()) {
    sig += '|';
    sig += key.str();
    sig += '=';
    sig += value.str();
  }
  for (std::size_t i = 0; i < op.num_operands(); ++i) {
    sig += '#';
    sig += std::to_string(reinterpret_cast<std::uintptr_t>(op.operand(i)));
  }
  return sig;
}

std::size_t cse_block(ir::Block &block) {
  std::size_t replaced = 0;
  std::map<std::string, Value *> seen;
  std::vector<Operation *> to_erase;
  for (Operation &op : block.operations()) {
    // Recurse into nested regions first (their values cannot escape).
    for (std::size_t r = 0; r < op.num_regions(); ++r) {
      for (ir::Block &nested : op.region(r).blocks()) replaced += cse_block(nested);
    }
    if (!cse_eligible(op)) continue;
    std::string sig = signature(op);
    auto [it, inserted] = seen.emplace(sig, op.result(0));
    if (!inserted) {
      op.replace_all_uses_with({it->second});
      to_erase.push_back(&op);
      ++replaced;
    }
  }
  for (Operation *op : to_erase) block.erase(op);
  return replaced;
}

}  // namespace

std::size_t common_subexpression_elimination(ir::Module &module) {
  std::size_t replaced = 0;
  for (Operation &op : module.body().operations()) {
    for (std::size_t r = 0; r < op.num_regions(); ++r) {
      for (ir::Block &block : op.region(r).blocks()) replaced += cse_block(block);
    }
  }
  replaced += cse_block(module.body());
  return replaced;
}

std::size_t common_subexpression_elimination(ir::Operation &root) {
  std::size_t replaced = 0;
  for (std::size_t r = 0; r < root.num_regions(); ++r) {
    for (ir::Block &block : root.region(r).blocks())
      replaced += cse_block(block);
  }
  return replaced;
}

namespace {

std::size_t fold_broadcast_list(const std::vector<Operation *> &broadcasts) {
  std::size_t folded = 0;
  for (Operation *outer : broadcasts) {
    Operation *inner = outer->operand(0)->defining_op();
    if (!inner || inner->name() != "teil.broadcast") continue;
    // outer.map[d] selects inner dims; compose to reach inner's source.
    auto outer_map = outer->attr("map")->as_int_vector();
    auto inner_map = inner->attr("map")->as_int_vector();
    std::vector<std::int64_t> composed(outer_map.size(), -1);
    for (std::size_t d = 0; d < outer_map.size(); ++d) {
      if (outer_map[d] >= 0)
        composed[d] = inner_map[static_cast<std::size_t>(outer_map[d])];
    }
    outer->set_operand(0, inner->operand(0));
    outer->set_attr("map", Attribute::int_array(composed));
    ++folded;
  }
  return folded;
}

}  // namespace

std::size_t fold_broadcast_chains(ir::Module &module) {
  return fold_broadcast_list(module.find_all("teil.broadcast"));
}

std::size_t fold_broadcast_chains(ir::Operation &root) {
  std::vector<Operation *> broadcasts;
  for (std::size_t r = 0; r < root.num_regions(); ++r) {
    for (ir::Block &block : root.region(r).blocks()) {
      for (Operation &op : block.operations()) {
        op.walk([&](Operation &nested) {
          if (nested.name() == "teil.broadcast") broadcasts.push_back(&nested);
        });
      }
    }
  }
  return fold_broadcast_list(broadcasts);
}

CanonicalizeStats canonicalize(ir::Module &module, std::size_t max_iterations,
                               ir::RewriteDriver driver) {
  CanonicalizeStats stats;
  std::size_t dce_fired = 0;
  auto patterns = canonicalize_patterns(&dce_fired);
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    ++stats.iterations;
    std::size_t dce_before = dce_fired;
    auto rewrite = ir::apply_patterns_greedily(module, patterns,
                                               /*max_iterations=*/32, driver);
    std::size_t cse = common_subexpression_elimination(module);
    std::size_t bcast = fold_broadcast_chains(module);
    std::size_t dce = eliminate_dead_code(module);
    std::size_t pattern_dce = dce_fired - dce_before;
    stats.folded_constants += rewrite.rewrites - pattern_dce;
    stats.cse_replaced += cse;
    stats.broadcasts_folded += bcast;
    stats.dce_removed += dce + pattern_dce;
    if (!rewrite.converged) break;  // inner driver hit its bound
    if (rewrite.rewrites == 0 && cse == 0 && bcast == 0 && dce == 0) {
      stats.converged = true;
      break;
    }
  }
  return stats;
}

namespace {

/// Dead-op elimination confined to the IR nested under `root` (same
/// eligibility as eliminate_dead_code; `root` itself is never removed).
std::size_t dce_under(ir::Operation &root) {
  std::size_t removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<Operation *> dead;
    auto consider = [&](Operation &op) {
      if (&op == &root) return;
      if (op.num_results() == 0 || op.num_regions() > 0) return;
      for (std::size_t r = 0; r < op.num_results(); ++r) {
        if (op.result(r)->has_uses()) return;
      }
      dead.push_back(&op);
    };
    root.walk(consider);
    for (Operation *op : dead) {
      op->parent_block()->erase(op);
      ++removed;
      changed = true;
    }
  }
  return removed;
}

}  // namespace

CanonicalizeStats canonicalize_func(ir::Operation &func,
                                    std::size_t max_iterations,
                                    ir::RewriteDriver driver) {
  CanonicalizeStats stats;
  std::size_t dce_fired = 0;
  auto patterns = canonicalize_patterns(&dce_fired);
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    ++stats.iterations;
    std::size_t dce_before = dce_fired;
    auto rewrite = ir::apply_patterns_greedily(func, patterns,
                                               /*max_iterations=*/32, driver);
    std::size_t cse = common_subexpression_elimination(func);
    std::size_t bcast = fold_broadcast_chains(func);
    std::size_t dce = dce_under(func);
    std::size_t pattern_dce = dce_fired - dce_before;
    stats.folded_constants += rewrite.rewrites - pattern_dce;
    stats.cse_replaced += cse;
    stats.broadcasts_folded += bcast;
    stats.dce_removed += dce + pattern_dce;
    if (!rewrite.converged) break;  // inner driver hit its bound
    if (rewrite.rewrites == 0 && cse == 0 && bcast == 0 && dce == 0) {
      stats.converged = true;
      break;
    }
  }
  return stats;
}

support::Status canonicalize_func_checked(ir::Operation &func,
                                          CanonicalizeStats *out,
                                          std::size_t max_iterations,
                                          ir::RewriteDriver driver) {
  CanonicalizeStats stats = canonicalize_func(func, max_iterations, driver);
  if (out != nullptr) *out = stats;
  if (!stats.converged) {
    return support::Status::failure(
        "canonicalize: no fixpoint within " + std::to_string(max_iterations) +
            " iterations (" + std::to_string(stats.folded_constants) +
            " folds, " + std::to_string(stats.dce_removed) + " dce so far)",
        support::ErrorCode::Internal);
  }
  return support::Status::ok();
}

support::Status canonicalize_checked(ir::Module &module, CanonicalizeStats *out,
                                     std::size_t max_iterations,
                                     ir::RewriteDriver driver) {
  CanonicalizeStats stats = canonicalize(module, max_iterations, driver);
  if (out != nullptr) *out = stats;
  if (!stats.converged) {
    return support::Status::failure(
        "canonicalize: no fixpoint within " + std::to_string(max_iterations) +
            " iterations (" + std::to_string(stats.folded_constants) +
            " folds, " + std::to_string(stats.dce_removed) + " dce so far)",
        support::ErrorCode::Internal);
  }
  return support::Status::ok();
}

}  // namespace everest::transforms
