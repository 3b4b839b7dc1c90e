#include "obs/trace.hpp"

#include <atomic>

namespace everest::obs {

double TraceRecorder::Span::end() {
  if (!recorder_) return 0.0;
  TraceRecorder *recorder = recorder_;
  recorder_ = nullptr;
  event_.duration_us = recorder->now_us() - event_.start_us;
  double duration = event_.duration_us;
  recorder->record(std::move(event_));
  return duration;
}

TraceRecorder::Span TraceRecorder::span(std::string name, std::string category,
                                        std::string track) {
  TraceEvent event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.track = std::move(track);
  event.start_us = now_us();
  return Span(this, std::move(event));
}

void TraceRecorder::record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

Counter &TraceRecorder::counter(const std::string &name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto &slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge &TraceRecorder::gauge(const std::string &name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto &slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram &TraceRecorder::histogram(const std::string &name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto &slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::int64_t TraceRecorder::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

namespace {

/// Calls `fn(name, metric)` for every entry of `metrics` (a name-sorted map)
/// whose name starts with `prefix`.
template <typename Map, typename Fn>
void for_each_prefixed(const Map &metrics, std::string_view prefix, Fn fn) {
  for (auto it = metrics.lower_bound(std::string(prefix));
       it != metrics.end() && it->first.starts_with(prefix); ++it)
    fn(it->first, *it->second);
}

}  // namespace

std::vector<std::pair<std::string, std::int64_t>> TraceRecorder::counters(
    std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::int64_t>> out;
  for_each_prefixed(counters_, prefix,
                    [&](const std::string &name, const Counter &counter) {
                      out.emplace_back(name, counter.value());
                    });
  return out;
}

std::vector<std::pair<std::string, double>> TraceRecorder::gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto &[name, gauge] : gauges_) out.emplace_back(name, gauge->value());
  return out;
}

std::vector<std::pair<std::string, Histogram::Summary>>
TraceRecorder::histograms(std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Histogram::Summary>> out;
  for_each_prefixed(histograms_, prefix,
                    [&](const std::string &name, const Histogram &histogram) {
                      out.emplace_back(name, histogram.summarize());
                    });
  return out;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

namespace {
std::atomic<TraceRecorder *> g_recorder{nullptr};
}  // namespace

TraceRecorder *global_recorder() {
  return g_recorder.load(std::memory_order_acquire);
}

void set_global_recorder(TraceRecorder *recorder) {
  g_recorder.store(recorder, std::memory_order_release);
}

}  // namespace everest::obs
