// everest/ir/arena.hpp
//
// Bump allocator backing one Module's IR objects (operations, values,
// regions, blocks). All allocations share a slab list owned by the arena;
// individual objects are never freed — erased ops are tombstoned in place —
// and the whole module tears down in one sweep when the arena is destroyed
// or reset. Objects with non-trivial destructors register a destructor
// record (itself arena-allocated) so reset() can run them in reverse
// construction order before recycling the slabs.
//
// Threading contract: one thread mutates a module's arena at a time, and any
// number of threads may read a const module concurrently. The arena takes no
// lock; a module is never shared while it is being built or rewritten
// (compile_many gives each kernel its own module, and cache masters and
// served graphs are only read once published).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace everest::ir {

class Arena {
public:
  struct Stats {
    std::size_t bytes_used = 0;      ///< Bytes handed out since last reset.
    std::size_t bytes_reserved = 0;  ///< Total slab capacity held.
    std::size_t allocations = 0;     ///< allocate() calls since last reset.
    std::size_t slabs = 0;           ///< Live slab count.
    std::size_t resets = 0;          ///< Lifetime reset() count.
    std::size_t high_water = 0;      ///< Lifetime peak of bytes_used.
    std::size_t use_nodes = 0;       ///< Use-list slots allocated since reset.
  };

  explicit Arena(std::size_t slab_bytes = kDefaultSlabBytes)
      : slab_bytes_(slab_bytes < kMinSlabBytes ? kMinSlabBytes : slab_bytes) {}

  ~Arena() { destroy_objects(); }

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Raw aligned allocation. The memory stays valid until reset()/destruction.
  void *allocate(std::size_t size, std::size_t align) {
    if (size == 0) size = 1;
    if (!slabs_.empty()) {
      Slab &top = slabs_.back();
      std::size_t at = aligned_offset(top, align);
      if (at + size <= top.cap) return bump(top, at, size);
    }
    std::size_t cap = slab_bytes_;
    if (size + align > cap) cap = size + align;
    Slab slab;
    slab.data = std::make_unique<unsigned char[]>(cap);
    slab.cap = cap;
    slabs_.push_back(std::move(slab));
    stats_.bytes_reserved += cap;
    stats_.slabs = slabs_.size();
    Slab &top = slabs_.back();
    return bump(top, aligned_offset(top, align), size);
  }

  /// Constructs a T in the arena. Non-trivially-destructible types get a
  /// destructor record so reset() can tear them down in reverse order.
  template <typename T, typename... Args>
  T *create(Args &&...args) {
    return create_with_trailing<T>(0, std::forward<Args>(args)...);
  }

  /// Constructs a T with `trailing_bytes` of uninitialized storage appended
  /// in the same bump allocation, starting at `(char *)obj + sizeof(T)`.
  /// Operation uses this for its inline operand/result/region arrays: one
  /// allocation, one cache-friendly span, no per-array bookkeeping. Callers
  /// must guarantee the trailing element types need no more alignment than
  /// T itself (static_asserted at the call sites).
  template <typename T, typename... Args>
  T *create_with_trailing(std::size_t trailing_bytes, Args &&...args) {
    void *mem = allocate(sizeof(T) + trailing_bytes, alignof(T));
    DtorRecord *record = nullptr;
    if constexpr (!std::is_trivially_destructible_v<T>)
      record = static_cast<DtorRecord *>(
          allocate(sizeof(DtorRecord), alignof(DtorRecord)));
    T *obj = new (mem) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      record->object = obj;
      record->dtor = [](void *p) { static_cast<T *>(p)->~T(); };
      record->prev = dtors_;
      dtors_ = record;
    }
    return obj;
  }

  /// Uninitialized array of a trivially-destructible element type (operand
  /// spill arrays, result/region pointer tables). The array is never freed
  /// individually — growth abandons the old array in place.
  template <typename T>
  T *allocate_array(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena arrays never run element destructors");
    return static_cast<T *>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Accounts `count` freshly allocated use-list slots (Stats::use_nodes).
  void note_use_nodes(std::size_t count) { stats_.use_nodes += count; }

  /// Destroys every object (reverse construction order) and recycles the
  /// slabs. Every pointer previously handed out — including tombstoned
  /// ops — is invalid afterwards.
  void reset() {
    destroy_objects();
    if (slabs_.size() > 1) slabs_.resize(1);
    if (!slabs_.empty()) slabs_.front().used = 0;
    stats_.bytes_used = 0;
    stats_.allocations = 0;
    stats_.use_nodes = 0;
    stats_.slabs = slabs_.size();
    stats_.bytes_reserved = slabs_.empty() ? 0 : slabs_.front().cap;
    ++stats_.resets;
  }

  [[nodiscard]] Stats stats() const { return stats_; }

private:
  static constexpr std::size_t kDefaultSlabBytes = 64 * 1024;
  static constexpr std::size_t kMinSlabBytes = 4 * 1024;

  struct Slab {
    std::unique_ptr<unsigned char[]> data;
    std::size_t cap = 0;
    std::size_t used = 0;
  };

  struct DtorRecord {
    void (*dtor)(void *) = nullptr;
    void *object = nullptr;
    DtorRecord *prev = nullptr;
  };

  /// Hands out `size` bytes at offset `at` of `slab` (the top slab).
  void *bump(Slab &slab, std::size_t at, std::size_t size) {
    slab.used = at + size;
    stats_.bytes_used += size;
    if (stats_.bytes_used > stats_.high_water)
      stats_.high_water = stats_.bytes_used;
    ++stats_.allocations;
    return slab.data.get() + at;
  }

  void destroy_objects() {
    DtorRecord *record = dtors_;
    dtors_ = nullptr;
    while (record != nullptr) {
      record->dtor(record->object);
      record = record->prev;
    }
  }

  static std::size_t align_up(std::size_t n, std::size_t align) {
    return (n + align - 1) & ~(align - 1);
  }

  /// Offset into `slab` at which the next allocation is `align`-aligned in
  /// actual address terms. Aligning the offset alone is not enough: operator
  /// new[] only guarantees __STDCPP_DEFAULT_NEW_ALIGNMENT__ for the slab
  /// base, so over-aligned types must account for the base address too.
  static std::size_t aligned_offset(const Slab &slab, std::size_t align) {
    auto base = reinterpret_cast<std::uintptr_t>(slab.data.get());
    return align_up(base + slab.used, align) - base;
  }

  std::vector<Slab> slabs_;
  DtorRecord *dtors_ = nullptr;
  Stats stats_;
  std::size_t slab_bytes_;
};

}  // namespace everest::ir
