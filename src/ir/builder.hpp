// everest/ir/builder.hpp
//
// OpBuilder: the construction API used by the frontends and lowering passes.
// Maintains an insertion point (block + anchor op) and creates arena-backed
// operations. This is also where string-based op names enter the IR: the
// builder interns them eagerly, so `Operation::create` itself only ever sees
// interned Symbols.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "ir/ir.hpp"

namespace everest::ir {

/// Creates operations at a movable insertion point. New ops are allocated
/// from the insertion block's arena and spliced in before the anchor op
/// (nullptr anchor = end of block).
class OpBuilder {
public:
  explicit OpBuilder(Block *block) : block_(block) {}

  /// Positions the builder at the end of `block`.
  void set_insertion_point_to_end(Block *block) {
    block_ = block;
    before_ = nullptr;
  }

  /// Positions the builder directly before `op`.
  void set_insertion_point(Operation *op) {
    block_ = op->parent_block();
    before_ = op;
  }

  [[nodiscard]] Block *insertion_block() const { return block_; }
  [[nodiscard]] Arena &arena() const { return block_->arena(); }

  /// Creates an op at the insertion point and returns it. Operands and
  /// result types are lightweight views (braced lists and vectors convert
  /// implicitly); the pointers/types are copied straight into the op's
  /// inline arena storage without any intermediate heap buffer.
  Operation &create(Symbol name, ValueRange operands, TypeRange result_types,
                    AttrDict attributes = {}, std::size_t num_regions = 0) {
    Operation *op =
        Operation::create(block_->arena(), name, operands, result_types,
                          std::move(attributes), num_regions);
    return block_->attach_before(op, before_);
  }

  /// String-name convenience: interns eagerly and forwards to the Symbol
  /// overload (the one-line sugar that replaced the legacy
  /// `Operation::create(std::string_view, ...)`).
  Operation &create(std::string_view name, ValueRange operands,
                    TypeRange result_types, AttrDict attributes = {},
                    std::size_t num_regions = 0) {
    return create(Symbol(name), operands, result_types, std::move(attributes),
                  num_regions);
  }

  /// Creates a single-result op and returns the result value.
  Value *create_value(std::string_view name, ValueRange operands,
                      Type result_type, AttrDict attributes = {}) {
    return create(name, operands, TypeRange(&result_type, 1),
                  std::move(attributes))
        .result(0);
  }

  /// Emits `arith.constant` with a float value.
  Value *constant_f64(double v) {
    return create_value("arith.constant", {}, Type::floating(64),
                        {{"value", v}});
  }
  /// Emits `arith.constant` with an integer value.
  Value *constant_index(std::int64_t v) {
    return create_value("arith.constant", {}, Type::index(),
                        {{"value", v}});
  }

private:
  Block *block_;
  Operation *before_ = nullptr;
};

}  // namespace everest::ir
