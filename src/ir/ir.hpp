// everest/ir/ir.hpp
//
// Core IR data structures: Value, Use, Operation, Block, Region, Module. This
// is the EVEREST SDK's analogue of MLIR's core IR (paper §V-B): operations
// carry a dialect-qualified name, typed operands/results, an attribute
// dictionary, and nested regions; SSA def-use chains are maintained
// automatically through intrusive use-lists.
//
// Ownership model: every IR object is allocated from the owning Module's
// Arena. Creation returns raw pointers (`Operation::create(arena, ...)`),
// list membership is pointer splicing (`Block::attach/attach_before/detach`),
// and erasure tombstones the op in place — the memory stays valid (reads are
// safe, e.g. for worklist deduplication) until the arena resets. The Module
// handle owns the arena; destroying or moving-from it is the only bulk
// deallocation point.
//
// Storage model: an Operation's operand/result/region arrays live inline in
// the op's own arena allocation (trailing storage); growth past the inline
// capacity spills to a fresh arena array and abandons the old one. Each
// operand slot is a Use node — {value, user, operand_index} threaded on a
// doubly-linked per-Value use-list — so there is exactly one Use per slot
// (duplicate operands included) and set_operand / drop_all_operands /
// replace_all_uses_with unlink in O(1) per use instead of scanning a users
// vector. Nothing on the build path touches the global heap. See DESIGN.md
// "IR ownership and memory model".
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ir/arena.hpp"
#include "ir/attributes.hpp"
#include "ir/interner.hpp"
#include "ir/types.hpp"

namespace everest::ir {

class Operation;
class Block;
class Region;
class Value;

/// One operand slot: records which operation uses which value at which
/// operand index, and threads itself on the value's intrusive use-list.
/// Use nodes live inline in their op's operand array (arena storage) — they
/// are never allocated individually and never freed; unlinking just splices
/// the node out of the value's list.
class Use {
public:
  Use() = default;
  Use(const Use &) = delete;
  Use &operator=(const Use &) = delete;

  /// The value occupying this operand slot (nullptr while unlinked).
  [[nodiscard]] Value *get() const { return value_; }
  /// The operation owning this slot.
  [[nodiscard]] Operation *user() const { return user_; }
  /// Which operand slot of `user()` this is.
  [[nodiscard]] std::uint32_t operand_index() const { return index_; }
  /// Next use of the same value (use-list order is most-recently-linked
  /// first; nullptr at the end).
  [[nodiscard]] const Use *next_use() const { return next_; }

private:
  friend class Operation;
  friend class Value;

  inline void link(Value *v);
  inline void unlink();

  Value *value_ = nullptr;
  Operation *user_ = nullptr;
  Use *next_ = nullptr;
  Use **prev_ = nullptr;
  std::uint32_t index_ = 0;
};

namespace detail {

/// Range over an intrusive singly-walked list of iterators whose end is a
/// default-constructed iterator (use-lists). size() is O(length).
template <typename Iter>
struct ChainRange {
  Iter first;
  [[nodiscard]] Iter begin() const { return first; }
  [[nodiscard]] Iter end() const { return Iter(); }
  [[nodiscard]] bool empty() const { return !(first != Iter()); }
  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (Iter it = first; it != Iter(); ++it) ++n;
    return n;
  }
};

}  // namespace detail

/// An SSA value: either an operation result or a block argument. Arena-owned;
/// pointer-stable for the life of the owning module.
class Value {
public:
  Value(Type type, Operation *defining_op, std::size_t index)
      : type_(std::move(type)), defining_op_(defining_op), index_(index) {}
  Value(Type type, Block *owner_block, std::size_t index)
      : type_(std::move(type)), owner_block_(owner_block), index_(index) {}

  Value(const Value &) = delete;
  Value &operator=(const Value &) = delete;

  [[nodiscard]] const Type &type() const { return type_; }
  void set_type(Type t) { type_ = std::move(t); }

  /// The op producing this value, or nullptr for block arguments.
  [[nodiscard]] Operation *defining_op() const { return defining_op_; }
  /// The block owning this argument, or nullptr for op results.
  [[nodiscard]] Block *owner_block() const { return owner_block_; }
  /// Result index or argument index.
  [[nodiscard]] std::size_t index() const { return index_; }
  [[nodiscard]] bool is_block_argument() const { return owner_block_ != nullptr; }

  /// Forward iterator over the value's Use nodes.
  class use_iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Use;
    using reference = const Use &;
    using pointer = const Use *;
    using difference_type = std::ptrdiff_t;

    explicit use_iterator(const Use *use = nullptr) : use_(use) {}
    reference operator*() const { return *use_; }
    pointer operator->() const { return use_; }
    use_iterator &operator++() {
      use_ = use_->next_use();
      return *this;
    }
    use_iterator operator++(int) {
      use_iterator copy = *this;
      ++(*this);
      return copy;
    }
    friend bool operator==(use_iterator a, use_iterator b) {
      return a.use_ == b.use_;
    }
    friend bool operator!=(use_iterator a, use_iterator b) {
      return a.use_ != b.use_;
    }

  private:
    const Use *use_;
  };

  /// Forward iterator over the using operations (one entry per use, so an op
  /// appears once per operand slot referencing this value).
  class user_iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Operation *;
    using reference = Operation *;
    using pointer = Operation *const *;
    using difference_type = std::ptrdiff_t;

    explicit user_iterator(const Use *use = nullptr) : use_(use) {}
    reference operator*() const { return use_->user(); }
    user_iterator &operator++() {
      use_ = use_->next_use();
      return *this;
    }
    user_iterator operator++(int) {
      user_iterator copy = *this;
      ++(*this);
      return copy;
    }
    friend bool operator==(user_iterator a, user_iterator b) {
      return a.use_ == b.use_;
    }
    friend bool operator!=(user_iterator a, user_iterator b) {
      return a.use_ != b.use_;
    }

  private:
    const Use *use_;
  };

  using UseRange = detail::ChainRange<use_iterator>;
  using UserRange = detail::ChainRange<user_iterator>;

  /// The value's uses as Use nodes (slot-level: user + operand index).
  [[nodiscard]] UseRange uses() const { return {use_iterator(first_use_)}; }
  /// Operations currently using this value, one entry per use (an op shows
  /// up once per operand slot). Iterable range — use has_uses()/use_count()
  /// for emptiness and counting; do not assume any particular order.
  [[nodiscard]] UserRange users() const { return {user_iterator(first_use_)}; }
  [[nodiscard]] bool has_uses() const { return first_use_ != nullptr; }
  /// Number of uses (O(uses) list walk).
  [[nodiscard]] std::size_t use_count() const { return uses().size(); }

private:
  friend class Operation;
  friend class Use;
  Type type_;
  Operation *defining_op_ = nullptr;
  Block *owner_block_ = nullptr;
  std::size_t index_ = 0;
  Use *first_use_ = nullptr;
};

inline void Use::link(Value *v) {
  value_ = v;
  next_ = v->first_use_;
  prev_ = &v->first_use_;
  if (next_ != nullptr) next_->prev_ = &next_;
  v->first_use_ = this;
}

inline void Use::unlink() {
  if (value_ == nullptr) return;
  *prev_ = next_;
  if (next_ != nullptr) next_->prev_ = prev_;
  value_ = nullptr;
  next_ = nullptr;
  prev_ = nullptr;
}

/// A non-owning view of a contiguous run of `Value *` — the operand-passing
/// currency of `Operation::create`/`OpBuilder::create`. Implicitly built from
/// braced lists and vectors so call sites read unchanged, but no
/// std::allocator runs anywhere on the path: the callee copies the pointers
/// straight into arena storage.
class ValueRange {
public:
  ValueRange() = default;
  // The view never outlives the full expression it is an argument in, so
  // pointing at the initializer_list's backing array is safe (same contract
  // as LLVM's ArrayRef); GCC cannot see that and warns.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winit-list-lifetime"
#endif
  ValueRange(std::initializer_list<Value *> values)
      : data_(values.begin()), size_(values.size()) {}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
  ValueRange(const std::vector<Value *> &values)
      : data_(values.data()), size_(values.size()) {}
  ValueRange(Value *const *data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] Value *operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] Value *const *begin() const { return data_; }
  [[nodiscard]] Value *const *end() const { return data_ + size_; }

private:
  Value *const *data_ = nullptr;
  std::size_t size_ = 0;
};

/// Non-owning view of a contiguous run of `Type` (result types at creation).
class TypeRange {
public:
  TypeRange() = default;
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winit-list-lifetime"
#endif
  TypeRange(std::initializer_list<Type> types)
      : data_(types.begin()), size_(types.size()) {}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
  TypeRange(const std::vector<Type> &types)
      : data_(types.data()), size_(types.size()) {}
  TypeRange(const Type *data, std::size_t size) : data_(data), size_(size) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const Type &operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] const Type *begin() const { return data_; }
  [[nodiscard]] const Type *end() const { return data_ + size_; }

private:
  const Type *data_ = nullptr;
  std::size_t size_ = 0;
};

namespace detail {

/// Forward iterator over an array of element pointers, dereferencing to
/// references (Region::blocks()).
template <typename T>
class DerefIterator {
public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = T;
  using reference = T &;
  using pointer = T *;
  using difference_type = std::ptrdiff_t;

  explicit DerefIterator(T *const *slot = nullptr) : slot_(slot) {}
  reference operator*() const { return **slot_; }
  pointer operator->() const { return *slot_; }
  DerefIterator &operator++() {
    ++slot_;
    return *this;
  }
  DerefIterator operator++(int) {
    DerefIterator copy = *this;
    ++slot_;
    return copy;
  }
  friend bool operator==(DerefIterator a, DerefIterator b) {
    return a.slot_ == b.slot_;
  }
  friend bool operator!=(DerefIterator a, DerefIterator b) {
    return a.slot_ != b.slot_;
  }

private:
  T *const *slot_;
};

template <typename Iter>
struct IterRange {
  Iter first, last;
  [[nodiscard]] Iter begin() const { return first; }
  [[nodiscard]] Iter end() const { return last; }
};

}  // namespace detail

/// A region: an ordered list of blocks owned by an operation. Blocks are
/// arena-allocated; `add_block` is the single insertion choke point (blocks
/// are never removed individually — they die with the arena). The block
/// pointer table itself is an arena array.
class Region {
public:
  Region(Arena &arena, Operation *parent) : arena_(&arena), parent_(parent) {}
  Region(const Region &) = delete;
  Region &operator=(const Region &) = delete;

  [[nodiscard]] Operation *parent_op() const { return parent_; }
  [[nodiscard]] Arena &arena() const { return *arena_; }
  [[nodiscard]] bool empty() const { return num_blocks_ == 0; }
  [[nodiscard]] std::size_t num_blocks() const { return num_blocks_; }

  /// Appends a new empty block and returns it. The only way blocks enter a
  /// region.
  Block &add_block();

  [[nodiscard]] Block &front() { return *blocks_[0]; }
  [[nodiscard]] const Block &front() const { return *blocks_[0]; }
  [[nodiscard]] Block &back() { return *blocks_[num_blocks_ - 1]; }
  [[nodiscard]] Block &block(std::size_t i) {
    assert(i < num_blocks_ && "block index out of range");
    return *blocks_[i];
  }
  [[nodiscard]] const Block &block(std::size_t i) const {
    assert(i < num_blocks_ && "block index out of range");
    return *blocks_[i];
  }

  using block_iterator = detail::DerefIterator<Block>;
  using const_block_iterator = detail::DerefIterator<const Block>;

  /// Iteration over blocks as `Block&` (the container itself is private).
  [[nodiscard]] detail::IterRange<block_iterator> blocks() {
    return {block_iterator(blocks_), block_iterator(blocks_ + num_blocks_)};
  }
  [[nodiscard]] detail::IterRange<const_block_iterator> blocks() const {
    auto *data = const_cast<const Block *const *>(blocks_);
    return {const_block_iterator(data),
            const_block_iterator(data + num_blocks_)};
  }

private:
  Arena *arena_;
  Operation *parent_;
  Block **blocks_ = nullptr;
  std::uint32_t num_blocks_ = 0;
  std::uint32_t block_cap_ = 0;
};

/// A basic block: typed arguments plus an intrusively linked operation list.
/// Membership changes are pointer splices; no per-op allocation happens here.
/// The argument pointer table is an arena array.
class Block {
public:
  Block(Arena &arena, Region *parent) : arena_(&arena), parent_(parent) {}
  Block(const Block &) = delete;
  Block &operator=(const Block &) = delete;

  [[nodiscard]] Region *parent_region() const { return parent_; }
  /// The operation owning the parent region (nullptr for detached blocks).
  [[nodiscard]] Operation *parent_op() const;
  /// The arena backing ops created into this block.
  [[nodiscard]] Arena &arena() const { return *arena_; }

  Value &add_argument(Type type);
  [[nodiscard]] std::size_t num_arguments() const { return num_arguments_; }
  [[nodiscard]] Value &argument(std::size_t i) {
    assert(i < num_arguments_ && "argument index out of range");
    return *arguments_[i];
  }
  [[nodiscard]] const Value &argument(std::size_t i) const {
    assert(i < num_arguments_ && "argument index out of range");
    return *arguments_[i];
  }

  template <bool Const>
  class OpIter;
  using iterator = OpIter<false>;
  using const_iterator = OpIter<true>;

  /// Lightweight range over the ops of one block, yielding `Operation&`.
  template <bool Const>
  struct OpRangeT {
    using BlockT = std::conditional_t<Const, const Block, Block>;
    BlockT *block = nullptr;
    [[nodiscard]] OpIter<Const> begin() const;
    [[nodiscard]] OpIter<Const> end() const;
    [[nodiscard]] bool empty() const { return block->empty(); }
    [[nodiscard]] std::size_t size() const { return block->size(); }
  };

  [[nodiscard]] OpRangeT<false> operations() { return {this}; }
  [[nodiscard]] OpRangeT<true> operations() const { return {this}; }
  [[nodiscard]] iterator begin();
  [[nodiscard]] iterator end();
  [[nodiscard]] const_iterator begin() const;
  [[nodiscard]] const_iterator end() const;

  [[nodiscard]] bool empty() const { return first_ == nullptr; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] Operation &front() { return *first_; }
  [[nodiscard]] const Operation &front() const { return *first_; }
  [[nodiscard]] Operation &back() { return *last_; }
  [[nodiscard]] const Operation &back() const { return *last_; }

  /// Splices a detached op onto the end of this block.
  Operation &attach(Operation *op) { return attach_before(op, nullptr); }
  /// Splices a detached op before `before` (nullptr appends).
  Operation &attach_before(Operation *op, Operation *before);
  /// Unlinks `op` from this block without tombstoning it (the op can be
  /// re-attached elsewhere). Its operand uses are kept.
  void detach(Operation *op);
  /// Unlinks `op` and tombstones it and everything nested in it: operand
  /// uses are dropped, `Operation::erased()` turns true, and the memory
  /// stays valid (but must not be reattached) until the arena resets. The
  /// op's results must be unused.
  void erase(Operation *op);

private:
  friend class Operation;
  Arena *arena_;
  Region *parent_;
  Value **arguments_ = nullptr;
  std::uint32_t num_arguments_ = 0;
  std::uint32_t argument_cap_ = 0;
  Operation *first_ = nullptr;
  Operation *last_ = nullptr;
  std::size_t size_ = 0;
};

/// A generic operation. Ops are identified by an interned "dialect.mnemonic"
/// name and are extensible via attributes and regions; dialects attach
/// verifiers through the Context registry. Arena-owned and pointer-stable.
///
/// Operand/result/region storage lives inline after the Operation object in
/// its arena allocation, sized exactly at creation; `append_operand`/
/// `add_result`/`add_region` past the inline capacity spill to fresh arena
/// arrays (the parser's create-then-add pattern). Operand slots are Use
/// nodes threaded on each operand value's use-list.
class Operation {
public:
  /// Creates a detached operation in `arena`. Use Block::attach / OpBuilder
  /// to place it. String-based creation is an OpBuilder convenience that
  /// interns eagerly — there is deliberately no string_view overload here.
  static Operation *create(Arena &arena, Symbol name, ValueRange operands,
                           TypeRange result_types, AttrDict attributes = {},
                           std::size_t num_regions = 0);

  /// Low-level creation: pre-sizes the inline operand/result/region storage
  /// but fills nothing in (operands are appended, results/regions added
  /// afterwards without spilling). The clone fast path builds ops this way
  /// to map operands in place with no intermediate buffers; everyone else
  /// should call create().
  static Operation *create_with_capacity(Arena &arena, Symbol name,
                                         AttrDict attributes,
                                         std::size_t operand_capacity,
                                         std::size_t result_capacity,
                                         std::size_t region_capacity);

  Operation(const Operation &) = delete;
  Operation &operator=(const Operation &) = delete;

  [[nodiscard]] const std::string &name() const { return name_.str(); }
  /// The interned name: pattern dispatch compares these by pointer.
  [[nodiscard]] Symbol name_symbol() const { return name_; }
  /// Dialect prefix of the name ("ekl" for "ekl.contract"). The split is
  /// computed once when the name is interned; this never allocates.
  [[nodiscard]] std::string_view dialect() const { return name_.dialect(); }
  /// Mnemonic suffix of the name ("contract" for "ekl.contract").
  [[nodiscard]] std::string_view mnemonic() const { return name_.mnemonic(); }

  /// The arena this op (and everything it references) lives in.
  [[nodiscard]] Arena &arena() const { return *arena_; }
  /// True once the op has been erased (tombstoned). The object stays
  /// readable until the arena resets; rewrite drivers use this to skip
  /// stale worklist entries.
  [[nodiscard]] bool erased() const { return erased_; }

  [[nodiscard]] std::size_t num_operands() const { return num_operands_; }
  [[nodiscard]] Value *operand(std::size_t i) const {
    assert(i < num_operands_ && "operand index out of range");
    return operands_[i].get();
  }
  /// The Use node for operand slot `i` (user back-pointer + slot index).
  [[nodiscard]] const Use &operand_use(std::size_t i) const {
    assert(i < num_operands_ && "operand index out of range");
    return operands_[i];
  }

  /// Iterator over operand slots yielding `Value *`.
  class operand_iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Value *;
    using reference = Value *;
    using pointer = Value *const *;
    using difference_type = std::ptrdiff_t;

    explicit operand_iterator(const Use *slot = nullptr) : slot_(slot) {}
    reference operator*() const { return slot_->get(); }
    operand_iterator &operator++() {
      ++slot_;
      return *this;
    }
    operand_iterator operator++(int) {
      operand_iterator copy = *this;
      ++slot_;
      return copy;
    }
    friend bool operator==(operand_iterator a, operand_iterator b) {
      return a.slot_ == b.slot_;
    }
    friend bool operator!=(operand_iterator a, operand_iterator b) {
      return a.slot_ != b.slot_;
    }

  private:
    const Use *slot_;
  };

  /// Indexable range over operand values. Replaces the old
  /// `const std::vector<Value*>&` accessor — same range-for call sites, but
  /// the storage behind it is the inline Use array.
  struct OperandRange {
    const Use *slots = nullptr;
    std::size_t count = 0;
    [[nodiscard]] operand_iterator begin() const {
      return operand_iterator(slots);
    }
    [[nodiscard]] operand_iterator end() const {
      return operand_iterator(slots + count);
    }
    [[nodiscard]] std::size_t size() const { return count; }
    [[nodiscard]] bool empty() const { return count == 0; }
    [[nodiscard]] Value *operator[](std::size_t i) const {
      return slots[i].get();
    }
  };

  [[nodiscard]] OperandRange operands() const {
    return {operands_, num_operands_};
  }
  void set_operand(std::size_t i, Value *v);
  void append_operand(Value *v);
  void drop_all_operands();

  [[nodiscard]] std::size_t num_results() const { return num_results_; }
  [[nodiscard]] Value *result(std::size_t i = 0) {
    assert(i < num_results_ && "result index out of range");
    return results_[i];
  }
  [[nodiscard]] const Value *result(std::size_t i = 0) const {
    assert(i < num_results_ && "result index out of range");
    return results_[i];
  }
  /// Appends a result value (parser use: results become known only after the
  /// signature is read). Returns the new value.
  Value *add_result(Type type);

  [[nodiscard]] const AttrDict &attributes() const { return attributes_; }
  /// Replaces the whole dictionary (clone path: one COW handoff instead of
  /// per-key set calls).
  void set_attributes(AttrDict attributes) {
    attributes_ = std::move(attributes);
  }
  void set_attr(std::string_view key, Attribute value);
  void set_attr(Symbol key, Attribute value);
  [[nodiscard]] bool has_attr(std::string_view key) const {
    return attributes_.contains(key);
  }
  /// Returns the attribute or nullptr when absent.
  [[nodiscard]] const Attribute *attr(std::string_view key) const {
    return attributes_.find(key);
  }
  [[nodiscard]] const Attribute *attr(Symbol key) const {
    return attributes_.find(key);
  }
  /// Typed attribute getters with fallback defaults.
  [[nodiscard]] std::int64_t attr_int(std::string_view key,
                                      std::int64_t fallback = 0) const;
  [[nodiscard]] double attr_double(std::string_view key,
                                   double fallback = 0.0) const;
  [[nodiscard]] std::string attr_string(std::string_view key,
                                        std::string fallback = "") const;

  [[nodiscard]] std::size_t num_regions() const { return num_regions_; }
  [[nodiscard]] Region &region(std::size_t i = 0) {
    assert(i < num_regions_ && "region index out of range");
    return *regions_[i];
  }
  [[nodiscard]] const Region &region(std::size_t i = 0) const {
    assert(i < num_regions_ && "region index out of range");
    return *regions_[i];
  }
  Region &add_region();

  [[nodiscard]] Block *parent_block() const { return parent_; }
  /// The op owning the region this op lives in (nullptr at module level).
  [[nodiscard]] Operation *parent_op() const;
  /// Intrusive-list neighbours within the parent block (nullptr at ends).
  [[nodiscard]] Operation *next_in_block() const { return next_; }
  [[nodiscard]] Operation *prev_in_block() const { return prev_; }

  /// Replaces every use of this op's results with `replacements` (one value
  /// per result), as a simultaneous substitution: uses are all unlinked
  /// before any relink, so a replacement that is itself one of this op's
  /// results (r0 -> r1) is not chased through the later r1 pass.
  void replace_all_uses_with(ValueRange replacements);

  /// Pre-order walk over this op and all nested ops.
  void walk(const std::function<void(Operation &)> &fn);
  void walk(const std::function<void(const Operation &)> &fn) const;

  /// Prints the op in generic textual form (see printer.cpp).
  [[nodiscard]] std::string str() const;

private:
  friend class Arena;
  friend class Block;
  Operation(Arena &arena, Symbol name, AttrDict attributes)
      : name_(name), attributes_(std::move(attributes)), arena_(&arena) {}

  /// Placement-initializes operand slot `i` (caller manages num_operands_).
  void init_operand(std::uint32_t i, Value *v);
  void grow_operands(std::uint32_t min_cap);
  void grow_results(std::uint32_t min_cap);
  void grow_regions(std::uint32_t min_cap);

  Symbol name_;
  AttrDict attributes_;
  Arena *arena_;
  Block *parent_ = nullptr;
  Operation *prev_ = nullptr;
  Operation *next_ = nullptr;
  Use *operands_ = nullptr;
  Value **results_ = nullptr;
  Region **regions_ = nullptr;
  std::uint32_t num_operands_ = 0;
  std::uint32_t operand_cap_ = 0;
  std::uint32_t num_results_ = 0;
  std::uint32_t result_cap_ = 0;
  std::uint32_t num_regions_ = 0;
  std::uint32_t region_cap_ = 0;
  bool erased_ = false;
};

template <bool Const>
class Block::OpIter {
public:
  using OpT = std::conditional_t<Const, const Operation, Operation>;
  using iterator_category = std::forward_iterator_tag;
  using value_type = OpT;
  using reference = OpT &;
  using pointer = OpT *;
  using difference_type = std::ptrdiff_t;

  explicit OpIter(OpT *op = nullptr) : op_(op) {}
  reference operator*() const { return *op_; }
  pointer operator->() const { return op_; }
  OpIter &operator++() {
    op_ = op_->next_in_block();
    return *this;
  }
  OpIter operator++(int) {
    OpIter copy = *this;
    op_ = op_->next_in_block();
    return copy;
  }
  friend bool operator==(OpIter a, OpIter b) { return a.op_ == b.op_; }
  friend bool operator!=(OpIter a, OpIter b) { return a.op_ != b.op_; }

private:
  OpT *op_;
};

template <bool Const>
Block::OpIter<Const> Block::OpRangeT<Const>::begin() const {
  return OpIter<Const>(block->empty() ? nullptr : &block->front());
}
template <bool Const>
Block::OpIter<Const> Block::OpRangeT<Const>::end() const {
  return OpIter<Const>(nullptr);
}

inline Block::iterator Block::begin() { return operations().begin(); }
inline Block::iterator Block::end() { return operations().end(); }
inline Block::const_iterator Block::begin() const {
  return operations().begin();
}
inline Block::const_iterator Block::end() const { return operations().end(); }

/// The top-level container: an arena plus an op named "builtin.module" with
/// one region holding one block. The Module is the owning handle — move-only;
/// destroying it resets the arena and with it every op/value/block/region.
class Module {
public:
  Module();
  Module(Module &&other) noexcept
      : arena_(std::move(other.arena_)), op_(other.op_) {
    other.op_ = nullptr;
  }
  Module &operator=(Module &&other) noexcept {
    if (this != &other) {
      arena_ = std::move(other.arena_);
      op_ = other.op_;
      other.op_ = nullptr;
    }
    return *this;
  }
  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;

  /// The arena owning all IR reachable from this module.
  [[nodiscard]] Arena &arena() const { return *arena_; }

  [[nodiscard]] Operation &op() { return *op_; }
  [[nodiscard]] const Operation &op() const { return *op_; }
  [[nodiscard]] Block &body() { return op_->region(0).front(); }
  [[nodiscard]] const Block &body() const { return op_->region(0).front(); }

  /// Pre-order walk over all ops in the module (excluding the module op).
  void walk(const std::function<void(Operation &)> &fn);
  void walk(const std::function<void(const Operation &)> &fn) const;

  /// Finds the first op with the given name, or nullptr.
  [[nodiscard]] Operation *find_first(std::string_view name);
  /// Collects all ops with the given name.
  [[nodiscard]] std::vector<Operation *> find_all(std::string_view name);

  /// Total number of ops in the module (excluding the module op itself).
  [[nodiscard]] std::size_t op_count() const;

  /// Prints the whole module in generic textual form.
  [[nodiscard]] std::string str() const;

private:
  std::unique_ptr<Arena> arena_;
  Operation *op_ = nullptr;
};

/// Deep-copies a module into a fresh arena-owning Module handle: new
/// operations, values, blocks, and regions with identical structure, names,
/// types, and attributes. The clone prints byte-identically to the original,
/// so a caller that must rewrite a shared (immutable) module can take a
/// private copy without a print/parse round trip. Fast path: per-op storage
/// is rebuilt arena-to-arena through pre-sized inline arrays and a single
/// open-addressed value map — amortized zero global-heap allocations per
/// cloned op.
[[nodiscard]] Module clone_module(const Module &module);

/// Deep-copies one operation (with nested regions) into `dst`'s arena,
/// splicing the clone before `before` (nullptr appends). `src` must be
/// self-contained: its operands may only reference values defined inside the
/// cloned subtree (true for func-like ops, which is what the per-pass
/// incremental cache clones). Returns the clone.
Operation *clone_op_into(const Operation &src, Block &dst,
                         Operation *before = nullptr);

}  // namespace everest::ir
