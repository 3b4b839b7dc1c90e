// everest/serve/server.hpp
//
// The everest::serve request server: a thread-safe admission queue feeding
// dispatcher threads that coalesce compatible requests into batches
// (dynamic batching: dispatch when max_batch fills or the oldest request
// has waited max_wait_us) and run them through the backend chain with
// failover. Per-tenant QoS — token-bucket rate limits, weighted-fair
// dequeue, bounded queues with load shedding — lives in qos.hpp; this file
// owns the threading, the batch lifecycle, the resilience wiring (retry
// per backend attempt, circuit breaker per backend, deadline shedding),
// and the observability surface (serve.* counters/gauges/histograms plus
// one span per dispatched batch).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "resil/policy.hpp"
#include "serve/backend.hpp"
#include "serve/batcher.hpp"
#include "serve/qos.hpp"
#include "serve/request.hpp"

namespace everest::serve {

struct ServerOptions {
  BatcherOptions batch;
  /// Dispatcher (batch-forming/executing) threads.
  int dispatchers = 1;
  /// Default per-tenant queue bound (TenantConfig::queue_bound overrides).
  std::size_t queue_bound = 1024;
  /// Pre-configured tenants; unknown tenants get default QoS on first use.
  std::map<std::string, TenantConfig> tenants;
  /// Retry budget per backend per batch (retryable errors only).
  resil::RetryPolicy retry;
  /// Circuit-breaker options, one breaker instantiated per backend.
  resil::CircuitBreaker::Options breaker;
  /// Default latency budget (us) applied at admission when a request
  /// carries no deadline; < 0 means no default deadline.
  double default_deadline_budget_us = -1.0;
};

/// One tenant's serving statistics, read from the tenant's metrics.
struct TenantStats {
  std::int64_t completed = 0;  // latency_us.count
  std::int64_t failed = 0;     // serve.tenant.failed.<tenant>
  std::int64_t shed = 0;       // serve.tenant.shed.<tenant>
  obs::Histogram::Summary latency_us;  // serve.latency_us.<tenant>
};

/// Serving statistics: a snapshot Server::stats() builds from the server's
/// serve.* metrics. The registry is the only place the server counts, so
/// every field is a metric (named alongside) or derived from metrics.
struct ServerStats {
  /// admitted + shed_rate + shed_queue + shed_drain: every submit that
  /// passed input validation on a running server.
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;       // serve.admitted
  std::int64_t completed = 0;      // serve.completed
  std::int64_t failed = 0;         // serve.failed
  std::int64_t shed_queue = 0;     // serve.shed.queue
  std::int64_t shed_rate = 0;      // serve.shed.rate
  std::int64_t shed_deadline = 0;  // serve.shed.deadline
  /// serve.shed.drain: submits rejected because the server was draining.
  /// drain() flushes the requests admitted before it began; concurrent
  /// submitters are shed with Unavailable instead of being allowed to
  /// livelock the drain.
  std::int64_t shed_drain = 0;
  std::int64_t batches = 0;        // serve.batches
  /// serve.failover.batches: batches served by a non-primary backend. (Each
  /// failed backend attempt that passed a batch on counts separately, as
  /// serve.failover.attempts.)
  std::int64_t failovers = 0;
  std::int64_t breaker_rejections = 0;  // serve.breaker.rejected
  obs::Histogram::Summary batch_size;   // serve.batch_size
  std::map<std::string, TenantStats> tenants;
};

/// Multi-tenant request server over a backend chain.
///
/// Lifecycle: construct (validated via create()), start(), submit() from any
/// number of client threads, drain() to flush, stop() (also run by the
/// destructor). Backends are tried in order per batch; each is guarded by
/// its own circuit breaker and retried per `options.retry`; a batch that
/// exhausts every backend fails all its requests with the last error.
/// Requests served by a non-primary backend report `degraded = true`.
class Server {
public:
  static support::Expected<std::unique_ptr<Server>> create(
      std::vector<std::unique_ptr<Backend>> backends, ServerOptions options,
      obs::TraceRecorder *recorder = nullptr);

  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Spawns the dispatcher threads. Idempotent.
  void start();

  /// Submits a request. On admission returns a future resolving to the
  /// Response (which itself may carry a shed/failed status, e.g.
  /// DeadlineExceeded discovered at dispatch). Requests shed *at admission*
  /// (queue bound, rate limit, server draining or stopped) fail fast here
  /// with Unavailable instead.
  support::Expected<std::future<Response>> submit(Request request);

  /// Blocks until the queue is empty and no batch is in flight, flushing
  /// partial batches immediately. Submits racing a drain are shed with
  /// Unavailable (otherwise a sustained submitter could keep the queue
  /// non-empty forever and livelock the drain); submitting resumes once
  /// drain() returns.
  void drain();

  /// Drains, then joins the dispatcher threads. Further submits fail.
  void stop();

  /// Microseconds since server construction — the clock `deadline_us` is
  /// measured on.
  [[nodiscard]] double now_us() const { return clock_.now_us(); }

  /// Snapshot of the serve.* metrics in the server's recorder. A recorder
  /// shared with another Server, or clear()ed, shows that in the snapshot.
  [[nodiscard]] ServerStats stats() const;
  /// Requests currently waiting for a batch (the serve.queue_depth gauge).
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] const std::vector<std::unique_ptr<Backend>> &backends() const {
    return backends_;
  }

private:
  Server(std::vector<std::unique_ptr<Backend>> backends, ServerOptions options,
         obs::TraceRecorder *recorder);

  void dispatcher_loop(int worker_index);
  void execute_batch(std::vector<PendingRequest> batch, std::uint64_t batch_id,
                     int worker_index);
  void finish_shed(PendingRequest pending, support::Error error);
  Response base_response(const PendingRequest &pending, double finish) const;

  std::vector<std::unique_ptr<Backend>> backends_;
  ServerOptions options_;
  DynamicBatcher batcher_;
  /// Where every serve.* stat lives: the caller's recorder, or a private
  /// one when none was given, so recorder_ is never null.
  std::unique_ptr<obs::TraceRecorder> own_recorder_;
  obs::TraceRecorder *recorder_;
  /// Private wall clock so deadlines are well-defined without a recorder.
  obs::Clock clock_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // queue gained work / state changed
  std::condition_variable idle_cv_;   // queue drained / batch finished
  AdmissionQueue queue_;
  std::vector<resil::CircuitBreaker> breakers_;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t next_batch_id_ = 1;
  int in_flight_batches_ = 0;
  bool started_ = false;
  bool draining_ = false;
  bool stopping_ = false;

  std::vector<std::thread> dispatchers_;
};

/// Builds a server over a dfg serving graph. The host-CPU dfg backend is
/// always present; when `device` is non-null an ElasticDeviceBackend over
/// that one device (a one-VF group, `kernel` already loaded) is placed in
/// front of it, so device faults fail over to the host path. Each Server
/// attempt is one launch; `launch_deadline_us` is its watchdog (< 0
/// disables). serve.* metrics and batch spans go to `recorder` (null gives
/// the server a private one). The returned server is not started; call
/// start() (and stop()/drain() per its lifecycle).
support::Expected<std::unique_ptr<Server>> make_server(
    std::shared_ptr<const ir::Module> graph,
    std::shared_ptr<const runtime::NodeRegistry> registry,
    obs::TraceRecorder *recorder, ServerOptions options = {},
    platform::Device *device = nullptr, const std::string &kernel = {},
    double launch_deadline_us = -1.0);

}  // namespace everest::serve
