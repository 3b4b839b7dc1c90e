// everest/sdk/compile_cache.hpp
//
// Content-addressed cache of Basecamp backend artifacts. The authoritative
// store is keyed by a stable FNV-1a hash of (canonicalized TeIL module text,
// CompileOptions, target device) and holds everything the backend produces
// past that point: the HLS schedule/resource report, the Olympus estimate
// and generated system IR, and the lowered loop IR. A ccache-style "direct"
// tier additionally memoizes a frontend fingerprint (source text + input
// shapes/extents + options + target) to the content key, so a repeat compile
// of identical source skips even the lowering needed to recompute the
// canonical text.
//
// Cached IR is kept both as printed text (the on-disk form under
// `--cache-dir`) and as parsed master modules; lookups hand out private
// deep clones (ir::clone_module), which print byte-identically to the
// originals — a fresh compile and a cache hit yield the same CompileResult.
//
// The cache is thread-safe; hit/miss/eviction/corruption counts are mirrored
// onto an attached obs::TraceRecorder ("sdk.cache.*").
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "hls/scheduler.hpp"
#include "ir/ir.hpp"
#include "ir/pass.hpp"
#include "obs/trace.hpp"
#include "olympus/olympus.hpp"
#include "sdk/options.hpp"
#include "support/expected.hpp"

namespace everest::sdk {

/// One cached backend result. Modules handed to store() are cloned in, and
/// lookup() returns fresh clones, so entries are immune to caller mutation.
struct CompileCacheEntry {
  std::shared_ptr<ir::Module> teil_ir;    // canonical TeIL, base2-annotated
  std::shared_ptr<ir::Module> loop_ir;
  std::shared_ptr<ir::Module> system_ir;  // olympus + evp deployment ops
  hls::KernelReport kernel;
  olympus::SystemEstimate estimate;
  int datapath_bits = 64;
};

/// Per-pass incremental tier, plugged into ir::PassManager::set_pass_cache.
/// Keys are ir::pass_fingerprint(pass name, printed func text); values are
/// the post-pass funcs, each held as a self-contained immutable module so
/// the arena that owns the cached op lives as long as the entry or any
/// handed-out hit. A lookup hit means "this exact func already went through
/// this exact pass": on a one-kernel edit only the edited kernel's
/// fingerprint changes, so only its passes re-run. Thread-safe; when the
/// entry count exceeds the capacity the tier resets wholesale, which a
/// worker still cloning from an evicted hit never notices.
class PassResultCache : public ir::PassCache {
public:
  explicit PassResultCache(std::size_t capacity = 1024)
      : capacity_(capacity) {}

  PassResultCache(const PassResultCache &) = delete;
  PassResultCache &operator=(const PassResultCache &) = delete;

  [[nodiscard]] std::shared_ptr<const ir::Module> lookup(
      std::uint64_t key) override;
  void store(std::uint64_t key, const ir::Operation &func) override;

  /// Mirrors hits/misses onto sdk.cache.pass.hit / .miss counters.
  void attach_recorder(obs::TraceRecorder *recorder);

  [[nodiscard]] std::int64_t hits() const;
  [[nodiscard]] std::int64_t misses() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  // Each holds one func op.
  std::map<std::uint64_t, std::shared_ptr<const ir::Module>> entries_;
  obs::TraceRecorder *recorder_ = nullptr;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

class CompileCache {
public:
  /// Memory-only cache.
  CompileCache() = default;
  /// Memory cache backed by a directory: store() persists each entry as
  /// `<dir>/<016x-key>.json`, and lookup() falls back to disk on a memory
  /// miss. The directory is created on first store.
  explicit CompileCache(std::string dir);

  CompileCache(const CompileCache &) = delete;
  CompileCache &operator=(const CompileCache &) = delete;

  /// Deterministic fingerprint of every CompileOptions field that affects
  /// backend output. Part of both the content key and direct fingerprints.
  [[nodiscard]] static std::string options_fingerprint(
      const CompileOptions &options);

  /// The content key: FNV-1a over (canonicalized IR text, options, target).
  [[nodiscard]] static std::uint64_t key(const std::string &canonical_ir,
                                         const CompileOptions &options,
                                         const std::string &target);

  /// Returns a private copy of the entry, NotFound on a miss, or a coded
  /// error (InvalidArgument) when a persisted entry exists but is corrupt —
  /// callers treat both failure kinds as "compile fresh".
  [[nodiscard]] support::Expected<CompileCacheEntry> lookup(std::uint64_t key);

  /// Inserts (or refreshes) an entry, evicting least-recently-used entries
  /// beyond the capacity, and persists it when a directory is configured.
  void store(std::uint64_t key, const CompileCacheEntry &entry);

  /// Direct tier: maps a frontend fingerprint to a content key, plus (in
  /// memory) the parsed frontend module, so a repeat compile of identical
  /// source skips the frontend parse along with the backend. The frontend
  /// lives beside the fingerprint — not in the content entry — because EKL
  /// and CFDlang sources lowering to the same TeIL share one content entry
  /// but have different frontends.
  struct DirectHit {
    std::uint64_t key = 0;
    std::shared_ptr<ir::Module> frontend;  // private clone; null if unknown
  };
  [[nodiscard]] std::optional<std::uint64_t> direct_lookup(
      const std::string &fingerprint);
  [[nodiscard]] std::optional<DirectHit> direct_lookup_full(
      const std::string &fingerprint);
  void direct_store(const std::string &fingerprint, std::uint64_t key,
                    std::shared_ptr<const ir::Module> frontend = nullptr);

  /// Per-pass incremental tier; hand it to
  /// ir::PassManager::set_pass_cache so unchanged funcs skip their passes.
  [[nodiscard]] PassResultCache &pass_tier() { return pass_tier_; }

  /// Mirrors cache events onto `recorder` counters: sdk.cache.hit / .miss /
  /// .eviction / .corrupt, plus the sdk.cache.entries gauge.
  void attach_recorder(obs::TraceRecorder *recorder);

  /// Bounds the number of in-memory entries (0 = unbounded, the default).
  void set_capacity(std::size_t max_entries);

  [[nodiscard]] std::int64_t hits() const;
  [[nodiscard]] std::int64_t misses() const;
  [[nodiscard]] std::int64_t evictions() const;
  [[nodiscard]] std::int64_t corruptions() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const std::string &directory() const { return dir_; }

private:
  struct Master {
    CompileCacheEntry entry;                    // owns the master modules
    std::list<std::uint64_t>::iterator lru_it;  // position in lru_
  };

  [[nodiscard]] static std::string entry_path(const std::string &dir,
                                              std::uint64_t key);
  /// Loads and validates a persisted entry; coded error on corruption.
  [[nodiscard]] support::Expected<CompileCacheEntry> load_from_disk(
      std::uint64_t key) const;
  void persist(std::uint64_t key, const CompileCacheEntry &entry) const;
  void insert_locked(std::uint64_t key, CompileCacheEntry master);
  void count(const char *event);
  void update_entries_gauge();

  mutable std::mutex mu_;
  std::string dir_;
  PassResultCache pass_tier_;
  struct DirectEntry {
    std::uint64_t key = 0;
    std::shared_ptr<const ir::Module> frontend;  // master; null if unknown
  };

  std::map<std::uint64_t, Master> entries_;
  std::list<std::uint64_t> lru_;  // front = most recently used
  std::map<std::uint64_t, DirectEntry> direct_;  // fp hash -> content key
  std::size_t capacity_ = 0;
  obs::TraceRecorder *recorder_ = nullptr;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t corruptions_ = 0;
};

}  // namespace everest::sdk
