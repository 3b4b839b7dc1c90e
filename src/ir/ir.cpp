#include "ir/ir.hpp"

#include <cassert>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>

namespace everest::ir {

namespace {

std::uint32_t grown_cap(std::uint32_t cap, std::uint32_t min_cap) {
  std::uint32_t next = cap == 0 ? 4 : cap * 2;
  while (next < min_cap) next *= 2;
  return next;
}

}  // namespace

// -------------------------------------------------------------------- Region

Block &Region::add_block() {
  Block *block = arena_->create<Block>(*arena_, this);
  if (num_blocks_ == block_cap_) {
    std::uint32_t cap = block_cap_ == 0 ? 1 : block_cap_ * 2;
    Block **fresh = arena_->allocate_array<Block *>(cap);
    if (num_blocks_ != 0)
      std::memcpy(fresh, blocks_, num_blocks_ * sizeof(Block *));
    blocks_ = fresh;
    block_cap_ = cap;
  }
  blocks_[num_blocks_++] = block;
  return *block;
}

// --------------------------------------------------------------------- Block

Operation *Block::parent_op() const {
  return parent_ ? parent_->parent_op() : nullptr;
}

Value &Block::add_argument(Type type) {
  Value *arg = arena_->create<Value>(std::move(type), this,
                                     static_cast<std::size_t>(num_arguments_));
  if (num_arguments_ == argument_cap_) {
    std::uint32_t cap = grown_cap(argument_cap_, num_arguments_ + 1);
    Value **fresh = arena_->allocate_array<Value *>(cap);
    if (num_arguments_ != 0)
      std::memcpy(fresh, arguments_, num_arguments_ * sizeof(Value *));
    arguments_ = fresh;
    argument_cap_ = cap;
  }
  arguments_[num_arguments_++] = arg;
  return *arg;
}

Operation &Block::attach_before(Operation *op, Operation *before) {
  assert(op != nullptr && "attach of null op");
  assert(op->parent_ == nullptr && "op already attached to a block");
  assert(!op->erased_ && "attach of an erased (tombstoned) op");
  op->parent_ = this;
  if (before == nullptr) {
    op->prev_ = last_;
    op->next_ = nullptr;
    if (last_ != nullptr)
      last_->next_ = op;
    else
      first_ = op;
    last_ = op;
  } else {
    assert(before->parent_ == this && "insertion anchor not in this block");
    op->next_ = before;
    op->prev_ = before->prev_;
    if (before->prev_ != nullptr)
      before->prev_->next_ = op;
    else
      first_ = op;
    before->prev_ = op;
  }
  ++size_;
  return *op;
}

void Block::detach(Operation *op) {
  assert(op->parent_ == this && "detach of op not in this block");
  if (op->prev_ != nullptr)
    op->prev_->next_ = op->next_;
  else
    first_ = op->next_;
  if (op->next_ != nullptr)
    op->next_->prev_ = op->prev_;
  else
    last_ = op->prev_;
  op->prev_ = nullptr;
  op->next_ = nullptr;
  op->parent_ = nullptr;
  --size_;
}

void Block::erase(Operation *op) {
  detach(op);
  // Tombstone the whole subtree: drop every operand use (nested ops too, so
  // no use-list entry dangles) and mark the ops erased. The memory stays
  // valid until the arena resets.
  op->walk([](Operation &dead) {
    dead.drop_all_operands();
    dead.erased_ = true;
  });
}

// ----------------------------------------------------------------- Operation

Operation *Operation::create_with_capacity(Arena &arena, Symbol name,
                                           AttrDict attributes,
                                           std::size_t operand_capacity,
                                           std::size_t result_capacity,
                                           std::size_t region_capacity) {
  // Trailing storage starts at sizeof(Operation) and holds the Use array,
  // then the result and region pointer tables. All three element types align
  // to a pointer boundary, which sizeof(Operation) is a multiple of.
  static_assert(alignof(Operation) >= alignof(Use) &&
                    alignof(Operation) >= alignof(Value *) &&
                    alignof(Operation) >= alignof(Region *),
                "trailing arrays must not be over-aligned w.r.t. Operation");
  static_assert(sizeof(Operation) % alignof(Use) == 0 &&
                    sizeof(Use) % alignof(Value *) == 0,
                "trailing arrays must start aligned");
  const std::size_t trailing = operand_capacity * sizeof(Use) +
                               result_capacity * sizeof(Value *) +
                               region_capacity * sizeof(Region *);
  Operation *op = arena.create_with_trailing<Operation>(trailing, arena, name,
                                                        std::move(attributes));
  auto *base = reinterpret_cast<unsigned char *>(op) + sizeof(Operation);
  op->operands_ = reinterpret_cast<Use *>(base);
  op->results_ =
      reinterpret_cast<Value **>(base + operand_capacity * sizeof(Use));
  op->regions_ = reinterpret_cast<Region **>(base +
                                             operand_capacity * sizeof(Use) +
                                             result_capacity * sizeof(Value *));
  op->operand_cap_ = static_cast<std::uint32_t>(operand_capacity);
  op->result_cap_ = static_cast<std::uint32_t>(result_capacity);
  op->region_cap_ = static_cast<std::uint32_t>(region_capacity);
  if (operand_capacity != 0) arena.note_use_nodes(operand_capacity);
  return op;
}

Operation *Operation::create(Arena &arena, Symbol name, ValueRange operands,
                             TypeRange result_types, AttrDict attributes,
                             std::size_t num_regions) {
  Operation *op =
      create_with_capacity(arena, name, std::move(attributes), operands.size(),
                           result_types.size(), num_regions);
  for (std::size_t i = 0; i < operands.size(); ++i) {
    assert(operands[i] != nullptr && "null operand");
    op->init_operand(static_cast<std::uint32_t>(i), operands[i]);
  }
  op->num_operands_ = static_cast<std::uint32_t>(operands.size());
  for (const Type &type : result_types) op->add_result(type);
  for (std::size_t i = 0; i < num_regions; ++i) op->add_region();
  return op;
}

// Out of line on purpose, like AttrDict::set: inlined, the by-value move
// lets GCC's -Wmaybe-uninitialized trace variant alternatives the caller
// never built.
void Operation::set_attr(std::string_view key, Attribute value) {
  attributes_.set(key, std::move(value));
}
void Operation::set_attr(Symbol key, Attribute value) {
  attributes_.set(key, std::move(value));
}

void Operation::init_operand(std::uint32_t i, Value *v) {
  Use *use = new (&operands_[i]) Use();
  use->user_ = this;
  use->index_ = i;
  use->link(v);
}

void Operation::grow_operands(std::uint32_t min_cap) {
  std::uint32_t cap = grown_cap(operand_cap_, min_cap);
  Use *fresh = arena_->allocate_array<Use>(cap);
  // Relink every live use onto a fresh slot. Unlink-then-link (rather than
  // memcpy + pointer fixup) keeps the doubly-linked invariants trivially
  // correct even when several slots of this op sit adjacently on one
  // value's list. The old array is abandoned in the arena.
  for (std::uint32_t i = 0; i < num_operands_; ++i) {
    Value *v = operands_[i].value_;
    operands_[i].unlink();
    Use *use = new (&fresh[i]) Use();
    use->user_ = this;
    use->index_ = i;
    use->link(v);
  }
  operands_ = fresh;
  operand_cap_ = cap;
  arena_->note_use_nodes(cap);
}

void Operation::grow_results(std::uint32_t min_cap) {
  std::uint32_t cap = grown_cap(result_cap_, min_cap);
  Value **fresh = arena_->allocate_array<Value *>(cap);
  if (num_results_ != 0)
    std::memcpy(fresh, results_, num_results_ * sizeof(Value *));
  results_ = fresh;
  result_cap_ = cap;
}

void Operation::grow_regions(std::uint32_t min_cap) {
  std::uint32_t cap = grown_cap(region_cap_, min_cap);
  Region **fresh = arena_->allocate_array<Region *>(cap);
  if (num_regions_ != 0)
    std::memcpy(fresh, regions_, num_regions_ * sizeof(Region *));
  regions_ = fresh;
  region_cap_ = cap;
}

Value *Operation::add_result(Type type) {
  Value *v = arena_->create<Value>(std::move(type), this,
                                   static_cast<std::size_t>(num_results_));
  if (num_results_ == result_cap_) grow_results(num_results_ + 1);
  results_[num_results_++] = v;
  return v;
}

void Operation::set_operand(std::size_t i, Value *v) {
  assert(i < num_operands_ && "operand index out of range");
  assert(v != nullptr && "null operand");
  Use &use = operands_[i];
  if (use.value_ == v) return;
  use.unlink();
  use.link(v);
}

void Operation::append_operand(Value *v) {
  assert(v != nullptr && "null operand");
  if (num_operands_ == operand_cap_) grow_operands(num_operands_ + 1);
  init_operand(num_operands_, v);
  ++num_operands_;
}

void Operation::drop_all_operands() {
  for (std::uint32_t i = 0; i < num_operands_; ++i) operands_[i].unlink();
  num_operands_ = 0;
}

std::int64_t Operation::attr_int(std::string_view key,
                                 std::int64_t fallback) const {
  const Attribute *a = attr(key);
  return a && a->is_int() ? a->as_int() : fallback;
}

double Operation::attr_double(std::string_view key, double fallback) const {
  const Attribute *a = attr(key);
  if (!a) return fallback;
  if (a->is_double() || a->is_int()) return a->as_double();
  return fallback;
}

std::string Operation::attr_string(std::string_view key,
                                   std::string fallback) const {
  const Attribute *a = attr(key);
  return a && a->is_string() ? a->as_string() : fallback;
}

Region &Operation::add_region() {
  Region *region = arena_->create<Region>(*arena_, this);
  if (num_regions_ == region_cap_) grow_regions(num_regions_ + 1);
  regions_[num_regions_++] = region;
  return *region;
}

Operation *Operation::parent_op() const {
  return parent_ ? parent_->parent_op() : nullptr;
}

void Operation::replace_all_uses_with(ValueRange replacements) {
  if (replacements.size() != num_results_)
    throw std::invalid_argument("replace_all_uses_with: result count mismatch");
  // Simultaneous substitution in two phases, no allocation: unlink every use
  // of every result first (parking it on a staged chain with value_ holding
  // the pending target), then relink. Relinking eagerly would cascade when a
  // replacement is itself one of this op's results — a use just retargeted
  // r0 -> r1 would land on r1's list and be replaced again by the r1 pass.
  Use *staged = nullptr;
  for (std::uint32_t r = 0; r < num_results_; ++r) {
    Value *from = results_[r];
    Value *to = replacements[r];
    assert(to != nullptr && "null replacement value");
    while (Use *use = from->first_use_) {
      use->unlink();
      use->value_ = to;  // pending target, not yet on any list
      use->next_ = staged;
      staged = use;
    }
  }
  while (staged != nullptr) {
    Use *use = staged;
    staged = use->next_;
    use->link(use->value_);
  }
}

void Operation::walk(const std::function<void(Operation &)> &fn) {
  fn(*this);
  for (std::uint32_t r = 0; r < num_regions_; ++r) {
    for (Block &block : regions_[r]->blocks()) {
      // Snapshot pointers: fn may erase/modify the list it's iterating.
      std::vector<Operation *> ops;
      ops.reserve(block.size());
      for (Operation &op : block) ops.push_back(&op);
      for (Operation *op : ops) op->walk(fn);
    }
  }
}

void Operation::walk(const std::function<void(const Operation &)> &fn) const {
  fn(*this);
  for (std::uint32_t r = 0; r < num_regions_; ++r) {
    for (const Block &block : regions_[r]->blocks()) {
      for (const Operation &op : block) op.walk(fn);
    }
  }
}

// -------------------------------------------------------------------- Module

Module::Module() : arena_(std::make_unique<Arena>()) {
  static const Symbol kModuleName("builtin.module");
  op_ = Operation::create(*arena_, kModuleName, {}, {}, {}, 1);
  op_->region(0).add_block();
}

void Module::walk(const std::function<void(Operation &)> &fn) {
  // Walk children only, not the module op itself.
  std::vector<Operation *> ops;
  ops.reserve(body().size());
  for (Operation &op : body()) ops.push_back(&op);
  for (Operation *op : ops) op->walk(fn);
}

void Module::walk(const std::function<void(const Operation &)> &fn) const {
  for (const Operation &op : body()) op.walk(fn);
}

Operation *Module::find_first(std::string_view name) {
  Operation *found = nullptr;
  walk([&](Operation &op) {
    if (!found && op.name() == name) found = &op;
  });
  return found;
}

std::vector<Operation *> Module::find_all(std::string_view name) {
  std::vector<Operation *> out;
  walk([&](Operation &op) {
    if (op.name() == name) out.push_back(&op);
  });
  return out;
}

std::size_t Module::op_count() const {
  std::size_t n = 0;
  walk([&](const Operation &) { ++n; });
  return n;
}

// --------------------------------------------------------------------- Clone

namespace {

/// Open-addressed pointer map from source values to their clones. One upfront
/// table allocation (plus rare doublings) replaces the per-node heap traffic
/// of an unordered_map — the difference between O(values) mallocs per clone
/// and ~one.
class CloneMap {
public:
  explicit CloneMap(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    table_ = std::make_unique<Entry[]>(cap);
    mask_ = cap - 1;
  }

  void insert(const Value *key, Value *mapped) {
    if ((count_ + 1) * 4 > (mask_ + 1) * 3) grow();
    Entry *slot = find_slot(table_.get(), mask_, key);
    if (slot->key == nullptr) ++count_;
    slot->key = key;
    slot->mapped = mapped;
  }

  [[nodiscard]] Value *lookup(const Value *key) const {
    const Entry *slot = find_slot(table_.get(), mask_, key);
    return slot->key == key ? slot->mapped : nullptr;
  }

private:
  struct Entry {
    const Value *key = nullptr;
    Value *mapped = nullptr;
  };

  static std::size_t hash(const Value *p) {
    auto x = static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p));
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }

  static Entry *find_slot(Entry *table, std::size_t mask, const Value *key) {
    std::size_t i = hash(key) & mask;
    while (table[i].key != nullptr && table[i].key != key) i = (i + 1) & mask;
    return &table[i];
  }

  void grow() {
    std::size_t cap = (mask_ + 1) * 2;
    auto fresh = std::make_unique<Entry[]>(cap);
    for (std::size_t i = 0; i <= mask_; ++i) {
      if (table_[i].key == nullptr) continue;
      *find_slot(fresh.get(), cap - 1, table_[i].key) = table_[i];
    }
    table_ = std::move(fresh);
    mask_ = cap - 1;
  }

  std::unique_ptr<Entry[]> table_;
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
};

/// Clones every op of `src` into `dst`, extending the value map as results
/// and block arguments are created. Operands must already be mapped — SSA
/// order guarantees this for in-block defs, and enclosing blocks are cloned
/// before their nested regions for cross-region uses.
///
/// Fast path: each clone is created with exact inline capacity and filled in
/// place — operand pointers map through CloneMap into the Use array, result
/// types and the attribute dictionary are COW handle copies — so nothing per
/// op touches the global heap.
void clone_block_into(const Block &src, Block &dst, CloneMap &map) {
  for (std::size_t i = 0; i < src.num_arguments(); ++i)
    map.insert(&src.argument(i), &dst.add_argument(src.argument(i).type()));

  for (const Operation &op : src) {
    Operation *cloned = Operation::create_with_capacity(
        dst.arena(), op.name_symbol(), op.attributes(), op.num_operands(),
        op.num_results(), op.num_regions());
    for (std::size_t i = 0; i < op.num_operands(); ++i) {
      Value *mapped = map.lookup(op.operand(i));
      assert(mapped != nullptr && "clone: operand not mapped");
      cloned->append_operand(mapped);
    }
    for (std::size_t i = 0; i < op.num_results(); ++i)
      map.insert(op.result(i), cloned->add_result(op.result(i)->type()));

    dst.attach(cloned);
    for (std::size_t r = 0; r < op.num_regions(); ++r) {
      Region &region = cloned->add_region();
      for (const Block &block : op.region(r).blocks())
        clone_block_into(block, region.add_block(), map);
    }
  }
}

/// Number of values (results + block arguments) defined under `op`, used to
/// size the clone map exactly instead of guessing from allocation counts.
std::size_t count_values(const Operation &op) {
  std::size_t n = 0;
  op.walk([&n](const Operation &nested) {
    n += nested.num_results();
    for (std::size_t r = 0; r < nested.num_regions(); ++r) {
      for (const Block &block : nested.region(r).blocks())
        n += block.num_arguments();
    }
  });
  return n;
}

}  // namespace

Module clone_module(const Module &module) {
  Module copy;
  copy.op().set_attributes(module.op().attributes());
  CloneMap map(count_values(module.op()));
  clone_block_into(module.body(), copy.body(), map);
  return copy;
}

Operation *clone_op_into(const Operation &src, Block &dst, Operation *before) {
  // Operands must be subtree-internal; top-level func-like ops have none.
  assert(src.num_operands() == 0 &&
         "clone_op_into: source op must be self-contained");
  CloneMap map(count_values(src));
  Operation *cloned = Operation::create_with_capacity(
      dst.arena(), src.name_symbol(), src.attributes(), 0, src.num_results(),
      src.num_regions());
  for (std::size_t i = 0; i < src.num_results(); ++i)
    map.insert(src.result(i), cloned->add_result(src.result(i)->type()));
  dst.attach_before(cloned, before);
  for (std::size_t r = 0; r < src.num_regions(); ++r) {
    Region &region = cloned->add_region();
    for (const Block &block : src.region(r).blocks())
      clone_block_into(block, region.add_block(), map);
  }
  return cloned;
}

}  // namespace everest::ir
