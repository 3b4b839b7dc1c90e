#include "sdk/compile_cache.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ir/parser.hpp"
#include "support/strings.hpp"

namespace everest::sdk {

using support::Error;
using support::Expected;
using support::Json;

namespace {

std::string hex16(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(key));
  return buf;
}

Json resources_to_json(const hls::Resources &a) {
  auto j = Json::object();
  j.set("luts", a.luts);
  j.set("ffs", a.ffs);
  j.set("dsps", a.dsps);
  j.set("brams", a.brams);
  return j;
}

hls::Resources resources_from_json(const Json &j) {
  return hls::Resources{j["luts"].as_int(), j["ffs"].as_int(),
                        j["dsps"].as_int(), j["brams"].as_int()};
}

Json estimate_to_json(const olympus::SystemEstimate &e) {
  auto j = Json::object();
  j.set("compute_us", e.compute_us);
  j.set("memory_us", e.memory_us);
  j.set("total_us", e.total_us);
  j.set("effective_bandwidth_gbps", e.effective_bandwidth_gbps);
  j.set("packing_efficiency", e.packing_efficiency);
  j.set("replicas", e.replicas);
  j.set("channels_per_replica", e.channels_per_replica);
  j.set("tiles", e.tiles);
  j.set("area", resources_to_json(e.area));
  j.set("fits", e.fits);
  j.set("utilization", e.utilization);
  return j;
}

olympus::SystemEstimate estimate_from_json(const Json &j) {
  olympus::SystemEstimate e;
  e.compute_us = j["compute_us"].as_number();
  e.memory_us = j["memory_us"].as_number();
  e.total_us = j["total_us"].as_number();
  e.effective_bandwidth_gbps = j["effective_bandwidth_gbps"].as_number();
  e.packing_efficiency = j["packing_efficiency"].as_number();
  e.replicas = static_cast<int>(j["replicas"].as_int());
  e.channels_per_replica = static_cast<int>(j["channels_per_replica"].as_int());
  e.tiles = j["tiles"].as_int();
  e.area = resources_from_json(j["area"]);
  e.fits = j["fits"].as_bool();
  e.utilization = j["utilization"].as_number();
  return e;
}

}  // namespace

// ------------------------------------------------------------ pass tier

std::shared_ptr<const ir::Module> PassResultCache::lookup(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    if (recorder_) recorder_->counter("sdk.cache.pass.miss").add(1);
    return nullptr;
  }
  ++hits_;
  if (recorder_) recorder_->counter("sdk.cache.pass.hit").add(1);
  return it->second;
}

void PassResultCache::store(std::uint64_t key, const ir::Operation &func) {
  auto holder = std::make_shared<ir::Module>();
  ir::clone_op_into(func, holder->body());
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ > 0 && entries_.size() >= capacity_ && !entries_.count(key))
    entries_.clear();  // wholesale reset; handed-out holders stay alive
  entries_.insert_or_assign(key, std::move(holder));
}

void PassResultCache::attach_recorder(obs::TraceRecorder *recorder) {
  std::lock_guard<std::mutex> lock(mu_);
  recorder_ = recorder;
}

std::int64_t PassResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}
std::int64_t PassResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}
std::size_t PassResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}
void PassResultCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

CompileCache::CompileCache(std::string dir) : dir_(std::move(dir)) {}

std::string CompileCache::options_fingerprint(const CompileOptions &o) {
  std::ostringstream fp;
  fp << "target=" << o.target << ";format=" << o.number_format
     << ";canon=" << o.canonicalize << ";esn=" << o.optimize_einsum_order
     << ";hls=" << o.hls.clock_mhz << ',' << o.hls.datapath_bits << ','
     << o.hls.mem_read_ports << ',' << o.hls.mem_write_ports << ','
     << o.hls.enable_pipelining << ";oly=" << o.olympus.replicas << ','
     << o.olympus.double_buffering << ',' << o.olympus.dataflow_pipelining
     << ',' << o.olympus.pack_data << ',' << o.olympus.element_bits << ','
     << o.olympus.bus_bits << ',' << o.olympus.plm_tile_bytes;
  return fp.str();
}

std::uint64_t CompileCache::key(const std::string &canonical_ir,
                                const CompileOptions &options,
                                const std::string &target) {
  std::uint64_t hash = support::fnv1a(canonical_ir);
  hash = support::fnv1a(options_fingerprint(options), hash);
  hash = support::fnv1a(target, hash);
  return hash;
}

void CompileCache::attach_recorder(obs::TraceRecorder *recorder) {
  pass_tier_.attach_recorder(recorder);
  std::lock_guard<std::mutex> lock(mu_);
  recorder_ = recorder;
}

void CompileCache::set_capacity(std::size_t max_entries) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = max_entries;
  while (capacity_ > 0 && entries_.size() > capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
    if (recorder_) recorder_->counter("sdk.cache.eviction").add(1);
  }
  update_entries_gauge();
}

void CompileCache::count(const char *event) {
  // Callers hold mu_.
  if (recorder_)
    recorder_->counter(std::string("sdk.cache.") + event).add(1);
}

void CompileCache::update_entries_gauge() {
  if (recorder_)
    recorder_->gauge("sdk.cache.entries")
        .set(static_cast<double>(entries_.size()));
}

std::string CompileCache::entry_path(const std::string &dir,
                                     std::uint64_t key) {
  return dir + "/" + hex16(key) + ".json";
}

Expected<CompileCacheEntry> CompileCache::load_from_disk(
    std::uint64_t key) const {
  std::ifstream file(entry_path(dir_, key));
  if (!file)
    return Error::not_found("compile cache: no entry " + hex16(key));
  std::stringstream text;
  text << file.rdbuf();
  auto json = Json::parse(text.str());
  if (!json)
    return Error::invalid_argument("compile cache: corrupt entry " +
                                   hex16(key) + ": " + json.error().message);
  if (!json->is_object() || !(*json)["teil_ir"].is_string() ||
      !(*json)["loop_ir"].is_string() || !(*json)["system_ir"].is_string() ||
      !(*json)["kernel"].is_object() || !(*json)["estimate"].is_object())
    return Error::invalid_argument("compile cache: corrupt entry " +
                                   hex16(key) + ": missing fields");
  CompileCacheEntry entry;
  auto teil = ir::parse_module((*json)["teil_ir"].as_string());
  auto loops = ir::parse_module((*json)["loop_ir"].as_string());
  auto system = ir::parse_module((*json)["system_ir"].as_string());
  if (!teil || !loops || !system)
    return Error::invalid_argument("compile cache: corrupt entry " +
                                   hex16(key) + ": unparsable IR");
  auto kernel = hls::report_from_json((*json)["kernel"]);
  if (!kernel)
    return Error::invalid_argument("compile cache: corrupt entry " +
                                   hex16(key) + ": " + kernel.error().message);
  entry.teil_ir = *teil;
  entry.loop_ir = *loops;
  entry.system_ir = *system;
  entry.kernel = *kernel;
  entry.estimate = estimate_from_json((*json)["estimate"]);
  entry.datapath_bits = static_cast<int>((*json)["datapath_bits"].as_int());
  return entry;
}

void CompileCache::persist(std::uint64_t key,
                           const CompileCacheEntry &entry) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return;  // persistence is best-effort; the memory tier still works
  auto json = Json::object();
  json.set("teil_ir", entry.teil_ir->str());
  json.set("loop_ir", entry.loop_ir->str());
  json.set("system_ir", entry.system_ir->str());
  json.set("kernel", hls::report_to_json(entry.kernel));
  json.set("estimate", estimate_to_json(entry.estimate));
  json.set("datapath_bits", entry.datapath_bits);
  std::ofstream file(entry_path(dir_, key));
  file << json.dump(2);
}

Expected<CompileCacheEntry> CompileCache::lookup(std::uint64_t key) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      ++hits_;
      count("hit");
      return it->second.entry;
    }
  }
  if (!dir_.empty()) {
    auto loaded = load_from_disk(key);
    if (loaded) {
      std::lock_guard<std::mutex> lock(mu_);
      // Another thread may have raced the same disk entry in; either copy
      // is equivalent, so last insert wins.
      insert_locked(key, *loaded);
      ++hits_;
      count("hit");
      update_entries_gauge();
      return loaded;
    }
    if (loaded.error().code_enum() != support::ErrorCode::NotFound) {
      std::lock_guard<std::mutex> lock(mu_);
      ++corruptions_;
      ++misses_;
      count("corrupt");
      count("miss");
      return loaded.error();
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++misses_;
  count("miss");
  return Error::not_found("compile cache: no entry " + hex16(key));
}

void CompileCache::insert_locked(std::uint64_t key,
                                 const CompileCacheEntry &entry) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    it->second.entry = entry;
    return;
  }
  lru_.push_front(key);
  entries_.emplace(key, Slot{entry, lru_.begin()});
  while (capacity_ > 0 && entries_.size() > capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
    count("eviction");
  }
}

void CompileCache::store(std::uint64_t key, const CompileCacheEntry &entry) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    insert_locked(key, entry);
    count("store");
    update_entries_gauge();
  }
  if (!dir_.empty()) persist(key, entry);
}

std::optional<CompileCache::DirectHit> CompileCache::direct_lookup(
    const std::string &fingerprint) {
  std::uint64_t fp = support::fnv1a(fingerprint);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = direct_.find(fp);
    if (it != direct_.end()) return it->second;
  }
  if (dir_.empty()) return std::nullopt;
  std::ifstream file(dir_ + "/direct-" + hex16(fp) + ".json");
  if (!file) return std::nullopt;
  std::stringstream text;
  text << file.rdbuf();
  auto json = Json::parse(text.str());
  if (!json || !(*json)["key"].is_string()) return std::nullopt;
  DirectHit hit;
  hit.key = std::strtoull((*json)["key"].as_string().c_str(), nullptr, 16);
  if ((*json)["frontend_ir"].is_string()) {
    // Optional field; older entries (or hand-edited files) simply fall back
    // to re-parsing the source on a hit.
    if (auto parsed = ir::parse_module((*json)["frontend_ir"].as_string()))
      hit.frontend = *parsed;
  }
  std::lock_guard<std::mutex> lock(mu_);
  direct_.emplace(fp, hit);
  return hit;
}

void CompileCache::direct_store(const std::string &fingerprint,
                                std::uint64_t key,
                                std::shared_ptr<const ir::Module> frontend) {
  std::uint64_t fp = support::fnv1a(fingerprint);
  {
    std::lock_guard<std::mutex> lock(mu_);
    DirectHit &entry = direct_[fp];
    entry.key = key;
    if (frontend) entry.frontend = frontend;
  }
  if (dir_.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return;
  auto json = Json::object();
  json.set("key", hex16(key));
  if (frontend) json.set("frontend_ir", frontend->str());
  std::ofstream file(dir_ + "/direct-" + hex16(fp) + ".json");
  file << json.dump();
}

std::int64_t CompileCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}
std::int64_t CompileCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}
std::int64_t CompileCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}
std::int64_t CompileCache::corruptions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return corruptions_;
}
std::size_t CompileCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace everest::sdk
