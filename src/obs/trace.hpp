// everest/obs/trace.hpp
//
// The tracing substrate shared by the whole SDK: a thread-safe TraceRecorder
// collecting named, categorized spans on wall-clock or simulated timelines,
// plus the typed metrics of metrics.hpp under one registry. Every layer of
// the Fig. 2 flow writes here — basecamp pipeline stages, resource-manager
// task placements, dfg executor workers, and device DMA/kernel activity —
// so one recorder yields an end-to-end Chrome trace (see export.hpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace everest::obs {

/// One completed span. `track` names the logical timeline the event sits on
/// (pipeline, cluster node, worker thread, device); the Chrome exporter maps
/// each track to a named thread row. Timestamps are microseconds — since
/// recorder construction for wall-clock spans, or simulation time for events
/// recorded with explicit timestamps.
struct TraceEvent {
  std::string name;
  std::string category;
  std::string track = "main";
  double start_us = 0.0;
  double duration_us = 0.0;
  std::vector<std::pair<std::string, std::string>> args;
};

/// Monotonic wall clock: microseconds since construction. The time base of
/// every TraceRecorder, and all the serving layer needs for its deadlines.
class Clock {
public:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

private:
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// Thread-safe recorder for spans and metrics.
class TraceRecorder {
public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder &) = delete;
  TraceRecorder &operator=(const TraceRecorder &) = delete;

  /// RAII scope over a wall-clock span. Move-only; records the event on
  /// destruction (or on an explicit end(), which returns the duration).
  class Span {
  public:
    Span(Span &&other) noexcept { *this = std::move(other); }
    Span &operator=(Span &&other) noexcept {
      recorder_ = other.recorder_;
      event_ = std::move(other.event_);
      other.recorder_ = nullptr;
      return *this;
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    ~Span() { end(); }

    /// Attaches a key=value argument shown in the trace viewer.
    void arg(std::string key, std::string value) {
      event_.args.emplace_back(std::move(key), std::move(value));
    }

    /// Closes the span and records it; idempotent. Returns the measured
    /// duration in microseconds (0 when already closed).
    double end();

  private:
    friend class TraceRecorder;
    Span(TraceRecorder *recorder, TraceEvent event)
        : recorder_(recorder), event_(std::move(event)) {}

    TraceRecorder *recorder_ = nullptr;
    TraceEvent event_;
  };

  /// Opens a wall-clock span on the monotonic clock.
  [[nodiscard]] Span span(std::string name, std::string category,
                          std::string track = "main");

  /// Records an event with explicit timestamps (simulated timelines: the
  /// resource-manager schedule, the device clock).
  void record(TraceEvent event);

  /// Microseconds of monotonic wall time since recorder construction.
  [[nodiscard]] double now_us() const { return clock_.now_us(); }

  /// Metrics registry: created on first use, shared by name thereafter.
  Counter &counter(const std::string &name);
  Gauge &gauge(const std::string &name);
  Histogram &histogram(const std::string &name);

  /// Snapshot of all recorded events (copy under lock).
  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::size_t event_count() const;

  /// Current value of counter `name`; 0 (and nothing created) when no one
  /// has bumped it.
  [[nodiscard]] std::int64_t counter_value(std::string_view name) const;

  /// Metric snapshots, sorted by name. A non-empty `prefix` keeps only the
  /// metrics whose names start with it (a component reading back its own
  /// stats), so unrelated histograms are not summarized.
  [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> counters(
      std::string_view prefix = {}) const;
  [[nodiscard]] std::vector<std::pair<std::string, double>> gauges() const;
  [[nodiscard]] std::vector<std::pair<std::string, Histogram::Summary>>
  histograms(std::string_view prefix = {}) const;

  /// Drops all events and metrics.
  void clear();

private:
  Clock clock_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Process-wide optional recorder. Layers that are not handed a recorder
/// explicitly may fall back to this one; it is null unless installed.
[[nodiscard]] TraceRecorder *global_recorder();
/// Installs (non-owning) or clears (nullptr) the global recorder.
void set_global_recorder(TraceRecorder *recorder);

/// Installs a global recorder for the current scope, restoring the previous
/// one on destruction.
class ScopedGlobalRecorder {
public:
  explicit ScopedGlobalRecorder(TraceRecorder *recorder)
      : previous_(global_recorder()) {
    set_global_recorder(recorder);
  }
  ~ScopedGlobalRecorder() { set_global_recorder(previous_); }
  ScopedGlobalRecorder(const ScopedGlobalRecorder &) = delete;
  ScopedGlobalRecorder &operator=(const ScopedGlobalRecorder &) = delete;

private:
  TraceRecorder *previous_;
};

}  // namespace everest::obs
