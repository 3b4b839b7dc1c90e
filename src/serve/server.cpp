#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <cstring>
#include <sstream>

namespace everest::serve {

namespace {

std::string join_names(const std::vector<std::string> &names) {
  std::ostringstream out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out << ", ";
    out << names[i];
  }
  return out.str();
}

// Per-tenant metric families: "<prefix><tenant>".
constexpr const char *kLatencyPrefix = "serve.latency_us.";
constexpr const char *kShedPrefix = "serve.tenant.shed.";
constexpr const char *kFailedPrefix = "serve.tenant.failed.";

}  // namespace

support::Expected<std::unique_ptr<Server>> Server::create(
    std::vector<std::unique_ptr<Backend>> backends, ServerOptions options,
    obs::TraceRecorder *recorder) {
  if (backends.empty()) {
    return support::Error::invalid_argument("serve: server needs >= 1 backend");
  }
  for (const auto &b : backends) {
    if (!b) return support::Error::invalid_argument("serve: null backend");
  }
  // Failover only makes sense when every backend serves the same graph.
  const auto &reference = backends.front()->input_names();
  for (std::size_t i = 1; i < backends.size(); ++i) {
    if (backends[i]->input_names() != reference) {
      return support::Error::invalid_argument(
          "serve: backend '" + backends[i]->name() +
          "' serves different input streams than '" +
          backends.front()->name() + "'");
    }
  }
  if (options.dispatchers < 1) options.dispatchers = 1;
  if (options.queue_bound == 0) options.queue_bound = 1024;
  return std::unique_ptr<Server>(
      new Server(std::move(backends), std::move(options), recorder));
}

Server::Server(std::vector<std::unique_ptr<Backend>> backends,
               ServerOptions options, obs::TraceRecorder *recorder)
    : backends_(std::move(backends)), options_(std::move(options)),
      batcher_(options_.batch),
      own_recorder_(recorder ? nullptr
                             : std::make_unique<obs::TraceRecorder>()),
      recorder_(recorder ? recorder : own_recorder_.get()),
      queue_(options_.queue_bound) {
  for (const auto &[name, config] : options_.tenants) {
    queue_.configure_tenant(name, config);
  }
  breakers_.reserve(backends_.size());
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    breakers_.emplace_back(options_.breaker);
  }
}

Server::~Server() { stop(); }

void Server::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_ || stopping_) return;
  started_ = true;
  dispatchers_.reserve(static_cast<std::size_t>(options_.dispatchers));
  for (int i = 0; i < options_.dispatchers; ++i) {
    dispatchers_.emplace_back([this, i] { dispatcher_loop(i); });
  }
}

support::Expected<std::future<Response>> Server::submit(Request request) {
  // Validate the payload against the serving graph before queueing.
  const auto &expected_inputs = backends_.front()->input_names();
  if (request.inputs.size() != expected_inputs.size()) {
    return support::Error::invalid_argument(
        "serve: request carries " + std::to_string(request.inputs.size()) +
        " inputs, serving graph expects {" + join_names(expected_inputs) + "}");
  }
  for (const auto &name : expected_inputs) {
    if (request.inputs.find(name) == request.inputs.end()) {
      return support::Error::invalid_argument(
          "serve: request is missing input stream '" + name + "'");
    }
  }
  if (request.tenant.empty()) request.tenant = "default";

  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) {
    return support::Error::unavailable("serve: server is stopped");
  }
  if (draining_) {
    // Admitting here would keep the queue non-empty and livelock drain()'s
    // idle predicate under sustained load; shed instead.
    recorder_->counter("serve.shed.drain").add(1);
    recorder_->counter(kShedPrefix + request.tenant).add(1);
    return support::Error::unavailable("serve: server is draining");
  }
  double now = clock_.now_us();
  if (request.deadline_us < 0.0 && options_.default_deadline_budget_us >= 0.0) {
    request.deadline_us = now + options_.default_deadline_budget_us;
  }
  PendingRequest pending;
  pending.id = next_request_id_++;
  pending.request = std::move(request);
  pending.admit_us = now;
  // admit() moves `pending` into the queue on success (and leaves it alone
  // on a shed), so the future is taken first.
  std::future<Response> future = pending.promise.get_future();

  ShedReason reason = ShedReason::None;
  auto admitted = queue_.admit(pending, now, &reason);
  if (!admitted.is_ok()) {
    recorder_
        ->counter(reason == ShedReason::RateLimit ? "serve.shed.rate"
                                                  : "serve.shed.queue")
        .add(1);
    recorder_->counter(kShedPrefix + pending.request.tenant)
        .add(1);
    return admitted.error();
  }
  recorder_->counter("serve.admitted").add(1);
  recorder_->gauge("serve.queue_depth").set(static_cast<double>(queue_.size()));
  lock.unlock();
  work_cv_.notify_one();
  return future;
}

void Server::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!started_) {
    // No dispatchers will ever run: fail queued requests instead of hanging.
    double now = clock_.now_us();
    while (auto pending = queue_.pop(now)) {
      PendingRequest p = std::move(*pending);
      lock.unlock();
      finish_shed(std::move(p),
                  support::Error::unavailable("serve: server never started"));
      lock.lock();
    }
    return;
  }
  draining_ = true;
  work_cv_.notify_all();
  idle_cv_.wait(lock, [&] { return queue_.empty() && in_flight_batches_ == 0; });
  draining_ = false;
}

void Server::stop() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) {
      lock.unlock();
    } else {
      stopping_ = true;
      lock.unlock();
      work_cv_.notify_all();
    }
  }
  for (auto &t : dispatchers_) {
    if (t.joinable()) t.join();
  }
  dispatchers_.clear();
  // Whatever is still queued (server never started, or raced into the queue
  // during shutdown) fails cleanly rather than dangling its promise.
  std::unique_lock<std::mutex> lock(mu_);
  double now = clock_.now_us();
  while (auto pending = queue_.pop(now)) {
    PendingRequest p = std::move(*pending);
    lock.unlock();
    finish_shed(std::move(p),
                support::Error::unavailable("serve: server is stopped"));
    lock.lock();
  }
}

void Server::dispatcher_loop(int worker_index) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    // Dynamic batching: hold the batch open until it fills, the oldest
    // request's wait budget expires, or the server drains/stops.
    while (!stopping_ && !draining_) {
      double now = clock_.now_us();
      if (batcher_.should_dispatch(queue_.size(), queue_.oldest_admit_us(),
                                   now, /*draining=*/false,
                                   queue_.earliest_deadline_us())) {
        break;
      }
      double budget = batcher_.wait_budget_us(queue_.oldest_admit_us(), now,
                                              queue_.earliest_deadline_us());
      auto status = work_cv_.wait_for(
          lock, std::chrono::duration<double, std::micro>(budget));
      if (queue_.empty()) break;  // another dispatcher took the work
      if (status == std::cv_status::timeout) break;
    }
    if (queue_.empty()) continue;

    double now = clock_.now_us();
    std::vector<PendingRequest> batch;
    std::vector<PendingRequest> expired;
    while (batch.size() < batcher_.max_batch() && !queue_.empty()) {
      auto pending = queue_.pop(now);
      if (!pending) break;
      if (pending->request.deadline_us >= 0.0 &&
          now > pending->request.deadline_us) {
        expired.push_back(std::move(*pending));
      } else {
        batch.push_back(std::move(*pending));
      }
    }
    recorder_->gauge("serve.queue_depth")
        .set(static_cast<double>(queue_.size()));
    if (!expired.empty()) {
      recorder_->counter("serve.shed.deadline")
          .add(static_cast<std::int64_t>(expired.size()));
      for (const auto &p : expired)
        recorder_->counter(kShedPrefix + p.request.tenant)
            .add(1);
    }
    std::uint64_t batch_id = batch.empty() ? 0 : next_batch_id_++;
    ++in_flight_batches_;
    lock.unlock();

    for (auto &p : expired) {
      double waited = clock_.now_us() - p.admit_us;
      finish_shed(std::move(p),
                  support::Error::deadline_exceeded(
                      "serve: request waited " + std::to_string(waited) +
                      " us, past its deadline"));
    }
    if (!batch.empty()) {
      execute_batch(std::move(batch), batch_id, worker_index);
    }

    lock.lock();
    --in_flight_batches_;
    if (queue_.empty() && in_flight_batches_ == 0) idle_cv_.notify_all();
  }
}

Response Server::base_response(const PendingRequest &pending,
                               double finish) const {
  Response r;
  r.request_id = pending.id;
  r.tenant = pending.request.tenant;
  r.admit_us = pending.admit_us;
  r.finish_us = finish;
  r.latency_us = finish - pending.admit_us;
  return r;
}

void Server::finish_shed(PendingRequest pending, support::Error error) {
  Response r = base_response(pending, clock_.now_us());
  r.status = support::Status(std::move(error));
  pending.promise.set_value(std::move(r));
}

void Server::execute_batch(std::vector<PendingRequest> batch,
                           std::uint64_t batch_id, int worker_index) {
  // Coalesce: one stream element per request, in batch (fair-dequeue) order.
  const auto &input_names = backends_.front()->input_names();
  std::map<std::string, runtime::Stream> inputs;
  for (const auto &name : input_names) inputs[name].reserve(batch.size());
  std::set<std::string> tenants_in_batch;
  for (auto &p : batch) {
    for (const auto &name : input_names) {
      inputs[name].push_back(p.request.inputs.at(name));
    }
    tenants_in_batch.insert(p.request.tenant);
  }

  auto span = recorder_->span("batch-" + std::to_string(batch_id),
                               "serve.batch",
                               "serve.dispatcher-" +
                                   std::to_string(worker_index));
  span.arg("batch_size", std::to_string(batch.size()));
  span.arg("tenants", std::to_string(tenants_in_batch.size()));

  // Backend chain: breaker gate -> retry policy -> next backend on failure.
  std::map<std::string, runtime::Stream> outputs;
  bool ok = false;
  std::size_t used_backend = 0;
  std::int64_t breaker_rejections = 0;
  support::Error last_error =
      support::Error::unavailable("serve: no backend accepted the batch");
  auto wall_wait = [](double us) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(us));
  };
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!breakers_[i].allow(clock_.now_us())) {
        ++breaker_rejections;
        last_error = support::Error::unavailable(
            "serve: circuit breaker open for backend '" +
            backends_[i]->name() + "'");
        continue;
      }
    }
    auto result = resil::with_retry(
        options_.retry, [&] { return backends_[i]->run_batch(inputs); },
        wall_wait, recorder_, "serve." + backends_[i]->name());
    std::lock_guard<std::mutex> lock(mu_);
    if (result) {
      breakers_[i].on_success();
      // A malformed backend (wrong stream lengths) must not fan garbage out
      // to the clients.
      bool shape_ok = true;
      for (const auto &[name, stream] : *result) {
        if (stream.size() != batch.size()) shape_ok = false;
      }
      if (!shape_ok) {
        // A malformed result is a backend failure like any other: trip the
        // breaker so a persistently malformed backend stops being retried
        // first on every batch, and fail over to the next backend.
        breakers_[i].on_failure(clock_.now_us());
        last_error = support::Error::internal(
            "serve: backend '" + backends_[i]->name() +
            "' returned streams whose length differs from the batch size");
        if (i + 1 < backends_.size())
          recorder_->counter("serve.failover.attempts").add(1);
        continue;
      }
      outputs = std::move(*result);
      ok = true;
      used_backend = i;
      break;
    }
    breakers_[i].on_failure(clock_.now_us());
    last_error = result.error();
    if (i + 1 < backends_.size())
      recorder_->counter("serve.failover.attempts").add(1);
  }

  double finish = clock_.now_us();
  span.arg("backend", ok ? backends_[used_backend]->name() : "none");
  span.end();

  // Fan the batch result back out to per-request responses.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Response r = base_response(batch[i], finish);
    r.batch_id = batch_id;
    r.batch_size = batch.size();
    if (ok) {
      r.backend = backends_[used_backend]->name();
      r.degraded = used_backend > 0;
      for (const auto &[name, stream] : outputs) {
        r.outputs[name] = stream[i];
      }
    } else {
      r.status = support::Status(
          last_error.with_context("serve: batch " + std::to_string(batch_id)));
    }
    batch[i].promise.set_value(std::move(r));
  }

  // Metrics: the registry is the server's only record of the batch.
  const auto size = static_cast<std::int64_t>(batch.size());
  recorder_->counter("serve.batches").add(1);
  recorder_->histogram("serve.batch_size").record(static_cast<double>(size));
  if (breaker_rejections > 0)
    recorder_->counter("serve.breaker.rejected").add(breaker_rejections);
  if (!ok) {
    recorder_->counter("serve.failed").add(size);
    for (const auto &p : batch)
      recorder_->counter(kFailedPrefix + p.request.tenant)
          .add(1);
    return;
  }
  if (used_backend > 0) recorder_->counter("serve.failover.batches").add(1);
  recorder_->counter("serve.completed").add(size);
  for (const auto &p : batch)
    recorder_->histogram(kLatencyPrefix + p.request.tenant)
        .record(finish - p.admit_us);
}

ServerStats Server::stats() const {
  const obs::TraceRecorder &r = *recorder_;
  ServerStats s;
  s.admitted = r.counter_value("serve.admitted");
  s.completed = r.counter_value("serve.completed");
  s.failed = r.counter_value("serve.failed");
  s.shed_queue = r.counter_value("serve.shed.queue");
  s.shed_rate = r.counter_value("serve.shed.rate");
  s.shed_deadline = r.counter_value("serve.shed.deadline");
  s.shed_drain = r.counter_value("serve.shed.drain");
  s.batches = r.counter_value("serve.batches");
  s.failovers = r.counter_value("serve.failover.batches");
  s.breaker_rejections = r.counter_value("serve.breaker.rejected");
  // Every submit that got past validation was admitted or shed.
  s.submitted = s.admitted + s.shed_rate + s.shed_queue + s.shed_drain;
  for (const auto &[name, summary] : r.histograms("serve.batch_size"))
    if (name == "serve.batch_size") s.batch_size = summary;

  auto tenant = [&](const std::string &name, const char *prefix) -> auto & {
    return s.tenants[name.substr(std::strlen(prefix))];
  };
  for (const auto &[name, summary] : r.histograms(kLatencyPrefix)) {
    TenantStats &t = tenant(name, kLatencyPrefix);
    t.latency_us = summary;
    t.completed = static_cast<std::int64_t>(summary.count);
  }
  for (const auto &[name, value] : r.counters(kShedPrefix))
    tenant(name, kShedPrefix).shed = value;
  for (const auto &[name, value] : r.counters(kFailedPrefix))
    tenant(name, kFailedPrefix).failed = value;
  return s;
}

std::size_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

support::Expected<std::unique_ptr<Server>> make_server(
    std::shared_ptr<const ir::Module> graph,
    std::shared_ptr<const runtime::NodeRegistry> registry,
    obs::TraceRecorder *recorder, ServerOptions options,
    platform::Device *device, const std::string &kernel,
    double launch_deadline_us) {
  std::vector<std::unique_ptr<Backend>> backends;
  if (device != nullptr) {
    auto device_compute = DfgBackend::create(graph, registry, {}, recorder);
    if (!device_compute)
      return device_compute.error().with_context("serve make_server");
    // One launch per Server attempt: the Server's retry policy and breaker
    // already govern this backend.
    resil::FailoverOptions launch;
    launch.retry.max_attempts = 1;
    launch.deadline.deadline_us = launch_deadline_us;
    auto fpga = ElasticDeviceBackend::create(device->spec().name, {device},
                                             kernel, std::move(*device_compute),
                                             launch, recorder);
    if (!fpga) return fpga.error().with_context("serve make_server");
    backends.push_back(std::move(*fpga));
  }
  auto host = DfgBackend::create(std::move(graph), std::move(registry), {},
                                 recorder);
  if (!host) return host.error().with_context("serve make_server");
  backends.push_back(std::move(*host));
  auto server =
      Server::create(std::move(backends), std::move(options), recorder);
  if (!server) return server.error().with_context("serve make_server");
  return std::move(*server);
}

}  // namespace everest::serve
