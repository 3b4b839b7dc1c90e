// everest::serve tests: QoS primitives (token bucket, weighted-fair
// admission queue), the dynamic batcher policy, backend validation, and the
// end-to-end server — batching byte-identity across dispatcher/batch-size
// sweeps, tenant fairness, deadline and load shedding, and device failover.
// Labeled "concurrency" + "serving" so the tsan preset races the dispatcher
// threads against client submitters.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "frontend/condrust_parser.hpp"
#include "platform/fault_injector.hpp"
#include "platform/xrt.hpp"
#include "runtime/dfg_executor.hpp"
#include "sdk/basecamp.hpp"
#include "serve/backend.hpp"
#include "serve/batcher.hpp"
#include "serve/qos.hpp"
#include "serve/server.hpp"

namespace es = everest::serve;
namespace er = everest::runtime;
namespace ep = everest::platform;
namespace eh = everest::hls;
namespace eo = everest::obs;
namespace esup = everest::support;

namespace {

constexpr const char *kPipe = R"(
fn serve_pipe(xs: Stream<f64>) -> Stream<f64> {
    let scaled = mul2(xs);
    let biased = add1(scaled);
    return biased;
}
)";

std::shared_ptr<er::NodeRegistry> pipe_registry() {
  auto registry = std::make_shared<er::NodeRegistry>();
  registry->register_node("mul2",
                          [](const std::vector<const er::Record *> &in) {
                            er::Record out = *in.at(0);
                            for (double &v : out) v *= 2.0;
                            return out;
                          });
  registry->register_node("add1",
                          [](const std::vector<const er::Record *> &in) {
                            er::Record out = *in.at(0);
                            for (double &v : out) v += 1.0;
                            return out;
                          });
  return registry;
}

std::shared_ptr<const everest::ir::Module> pipe_graph() {
  auto parsed = everest::frontend::parse_condrust(kPipe);
  if (!parsed) {
    ADD_FAILURE() << parsed.error().message;
    return nullptr;
  }
  return *parsed;
}

es::PendingRequest make_pending(std::uint64_t id, const std::string &tenant,
                                int priority = 0, double admit_us = 0.0) {
  es::PendingRequest pending;
  pending.id = id;
  pending.request.tenant = tenant;
  pending.request.priority = priority;
  pending.request.inputs["xs"] = {static_cast<double>(id)};
  pending.admit_us = admit_us;
  return pending;
}

std::unique_ptr<es::Server> make_pipe_server(es::ServerOptions options,
                                             eo::TraceRecorder *recorder,
                                             er::DfgExecOptions exec = {}) {
  auto backend =
      es::DfgBackend::create(pipe_graph(), pipe_registry(), exec, recorder);
  EXPECT_TRUE(backend.has_value());
  std::vector<std::unique_ptr<es::Backend>> backends;
  backends.push_back(std::move(*backend));
  auto server = es::Server::create(std::move(backends), options, recorder);
  EXPECT_TRUE(server.has_value());
  return std::move(*server);
}

eh::KernelReport tiny_kernel(const std::string &name, std::int64_t cycles) {
  eh::KernelReport r;
  r.name = name;
  r.area = {10'000, 10'000, 10, 10};
  r.total_cycles = cycles;
  r.dataflow_cycles = cycles;
  return r;
}

}  // namespace

// ----------------------------------------------------------- token bucket

TEST(TokenBucket, EnforcesRateAndBurst) {
  es::TokenBucket bucket(/*rate_per_s=*/2.0, /*burst=*/2.0);
  EXPECT_TRUE(bucket.try_take(0.0));
  EXPECT_TRUE(bucket.try_take(0.0));
  EXPECT_FALSE(bucket.try_take(0.0)) << "burst exhausted";
  EXPECT_FALSE(bucket.try_take(100'000.0)) << "0.2 tokens refilled, need 1";
  EXPECT_TRUE(bucket.try_take(500'000.0)) << "one token back after 500 ms";
  EXPECT_FALSE(bucket.try_take(500'000.0));
}

TEST(TokenBucket, NonPositiveRateIsUnlimited) {
  es::TokenBucket bucket(0.0, 1.0);
  for (int i = 0; i < 1'000; ++i) EXPECT_TRUE(bucket.try_take(0.0));
}

TEST(TokenBucket, RefillCapsAtBurst) {
  es::TokenBucket bucket(1'000.0, 3.0);
  EXPECT_TRUE(bucket.try_take(0.0));
  // Hours of idle refill cannot exceed the burst.
  EXPECT_DOUBLE_EQ(bucket.available(3.6e9), 3.0);
}

// ------------------------------------------------------- admission queue

TEST(AdmissionQueue, WeightedFairDequeueIsDeterministic) {
  es::AdmissionQueue queue(16);
  es::TenantConfig heavy;
  heavy.weight = 2.0;
  queue.configure_tenant("a", heavy);  // b stays at weight 1
  std::uint64_t id = 1;
  for (int i = 0; i < 6; ++i) {
    auto pa = make_pending(id++, "a");
    ASSERT_TRUE(queue.admit(pa, 0.0).is_ok());
  }
  for (int i = 0; i < 3; ++i) {
    auto pb = make_pending(id++, "b");
    ASSERT_TRUE(queue.admit(pb, 0.0).is_ok());
  }
  // Stride scheduling at weights 2:1 serves a twice per b, ties broken by
  // name: a b a a b a a b a.
  std::string order;
  while (auto p = queue.pop(0.0)) order += p->request.tenant;
  EXPECT_EQ(order, "abaabaaba");
}

TEST(AdmissionQueue, IdleTenantDoesNotBankCredit) {
  es::AdmissionQueue queue(16);
  // b drains 4 requests while a is idle; a joining afterwards must resume
  // at the global virtual time, not replay its arrears.
  for (int i = 0; i < 4; ++i) {
    auto pb = make_pending(static_cast<std::uint64_t>(i), "b");
    ASSERT_TRUE(queue.admit(pb, 0.0).is_ok());
    queue.pop(0.0);
  }
  auto pa = make_pending(100, "a");
  auto pb = make_pending(101, "b");
  ASSERT_TRUE(queue.admit(pa, 0.0).is_ok());
  ASSERT_TRUE(queue.admit(pb, 0.0).is_ok());
  std::string order;
  while (auto p = queue.pop(0.0)) order += p->request.tenant;
  EXPECT_EQ(order, "ab") << "a is not owed 4 back-to-back pops";
}

TEST(AdmissionQueue, PriorityOrdersWithinTenantStably) {
  es::AdmissionQueue queue(16);
  auto p0 = make_pending(1, "t", /*priority=*/0);
  auto p5 = make_pending(2, "t", /*priority=*/5);
  auto p1 = make_pending(3, "t", /*priority=*/1);
  auto p5b = make_pending(4, "t", /*priority=*/5);
  for (auto *p : {&p0, &p5, &p1, &p5b}) {
    ASSERT_TRUE(queue.admit(*p, 0.0).is_ok());
  }
  std::vector<std::uint64_t> ids;
  while (auto p = queue.pop(0.0)) ids.push_back(p->id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{2, 4, 3, 1}));
}

TEST(AdmissionQueue, QueueBoundShedsWithUnavailable) {
  es::AdmissionQueue queue(/*default_bound=*/2);
  auto p1 = make_pending(1, "t");
  auto p2 = make_pending(2, "t");
  auto p3 = make_pending(3, "t");
  ASSERT_TRUE(queue.admit(p1, 0.0).is_ok());
  ASSERT_TRUE(queue.admit(p2, 0.0).is_ok());
  es::ShedReason reason = es::ShedReason::None;
  auto shed = queue.admit(p3, 0.0, &reason);
  ASSERT_FALSE(shed.is_ok());
  EXPECT_EQ(shed.error().code_enum(), esup::ErrorCode::Unavailable);
  EXPECT_EQ(reason, es::ShedReason::QueueBound);
  // The shed request still owns its promise (caller reports the error).
  EXPECT_EQ(p3.request.tenant, "t");
  EXPECT_EQ(queue.size(), 2u);
}

TEST(AdmissionQueue, RateLimitShedsWithUnavailable) {
  es::AdmissionQueue queue(16);
  es::TenantConfig limited;
  limited.rate_per_s = 1e-9;  // effectively never refills
  limited.burst = 2.0;
  queue.configure_tenant("t", limited);
  auto p1 = make_pending(1, "t");
  auto p2 = make_pending(2, "t");
  auto p3 = make_pending(3, "t");
  ASSERT_TRUE(queue.admit(p1, 0.0).is_ok());
  ASSERT_TRUE(queue.admit(p2, 0.0).is_ok());
  es::ShedReason reason = es::ShedReason::None;
  auto shed = queue.admit(p3, 0.0, &reason);
  ASSERT_FALSE(shed.is_ok());
  EXPECT_EQ(shed.error().code_enum(), esup::ErrorCode::Unavailable);
  EXPECT_EQ(reason, es::ShedReason::RateLimit);
}

// ------------------------------------------------------------- batcher

TEST(DynamicBatcher, DispatchPolicy) {
  es::DynamicBatcher batcher({/*max_batch=*/4, /*max_wait_us=*/100.0});
  EXPECT_FALSE(batcher.should_dispatch(0, 0.0, 1e9, false)) << "empty queue";
  EXPECT_TRUE(batcher.should_dispatch(4, 0.0, 0.0, false)) << "batch full";
  EXPECT_TRUE(batcher.should_dispatch(7, 0.0, 0.0, false));
  EXPECT_FALSE(batcher.should_dispatch(2, 50.0, 100.0, false))
      << "oldest waited 50 us of its 100 us budget";
  EXPECT_TRUE(batcher.should_dispatch(2, 50.0, 150.0, false))
      << "oldest aged out";
  EXPECT_TRUE(batcher.should_dispatch(1, 0.0, 0.0, true)) << "draining";
  EXPECT_DOUBLE_EQ(batcher.wait_budget_us(50.0, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(batcher.wait_budget_us(0.0, 500.0), 0.0);
}

// ------------------------------------------------------------- backends

TEST(DfgBackend, ServesFoldGraphsPerRequest) {
  // A fold collapses its stream, so a concatenated batch would fuse the
  // requests' data into one fold state. The backend must instead run fold
  // graphs per request and return batch-ordered, batch-length outputs that
  // are byte-identical to unbatched execution.
  auto parsed = everest::frontend::parse_condrust(R"(
fn agg(xs: Stream<f64>) -> Stream<f64> {
    let doubled = mul2(xs);
    let total = fold acc(doubled);
    return total;
}
)");
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  auto registry = pipe_registry();
  registry->register_fold("acc", {10.0},
                          [](const er::Record &state,
                             const std::vector<const er::Record *> &in) {
                            return er::Record{state[0] + in.at(0)->at(0)};
                          });
  auto backend = es::DfgBackend::create(*parsed, registry);
  ASSERT_TRUE(backend.has_value()) << backend.error().message;

  er::Stream batch;
  for (int i = 0; i < 5; ++i) batch.push_back({static_cast<double>(i)});
  auto batched = (*backend)->run_batch({{"xs", batch}});
  ASSERT_TRUE(batched.has_value()) << batched.error().message;
  ASSERT_EQ(batched->at("total").size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    // Each request folds only its own record from the initial state.
    er::Record expected{10.0 + 2.0 * batch[i][0]};
    EXPECT_EQ(batched->at("total")[i], expected) << "request " << i;
    auto single = (*backend)->run_batch({{"xs", er::Stream{batch[i]}}});
    ASSERT_TRUE(single.has_value());
    EXPECT_EQ(single->at("total").front(), batched->at("total")[i])
        << "batched result diverged from unbatched, request " << i;
  }
}

TEST(DfgBackend, RejectsUnregisteredFoldCallees) {
  auto parsed = everest::frontend::parse_condrust(R"(
fn agg(xs: Stream<f64>) -> Stream<f64> {
    let total = fold acc(xs);
    return total;
}
)");
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  auto backend = es::DfgBackend::create(*parsed, pipe_registry());
  ASSERT_FALSE(backend.has_value());
  EXPECT_EQ(backend.error().code_enum(), esup::ErrorCode::NotFound);
}

TEST(DfgBackend, RejectsUnregisteredCallees) {
  auto backend =
      es::DfgBackend::create(pipe_graph(), std::make_shared<er::NodeRegistry>());
  ASSERT_FALSE(backend.has_value());
  EXPECT_EQ(backend.error().code_enum(), esup::ErrorCode::NotFound);
}

TEST(DfgBackend, ExposesInputNames) {
  auto backend = es::DfgBackend::create(pipe_graph(), pipe_registry());
  ASSERT_TRUE(backend.has_value());
  EXPECT_EQ((*backend)->input_names(), std::vector<std::string>{"xs"});
}

// ------------------------------------------------------------- server

TEST(Server, BatchedOutputsAreByteIdenticalAcrossConfigs) {
  auto graph = pipe_graph();
  auto registry = pipe_registry();
  const int kRequests = 24;

  // Reference: unbatched single-request executions.
  std::vector<er::Record> reference;
  for (int i = 0; i < kRequests; ++i) {
    std::map<std::string, er::Stream> single;
    single["xs"] = {{static_cast<double>(i), i * 0.25, -i * 3.5}};
    auto direct = er::execute_dfg(*graph, *registry, single, {.workers = 1});
    ASSERT_TRUE(direct.has_value());
    reference.push_back(direct->at("biased").at(0));
  }

  for (int dispatchers : {1, 2, 4}) {
    for (std::size_t max_batch : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}}) {
      es::ServerOptions options;
      options.dispatchers = dispatchers;
      options.batch.max_batch = max_batch;
      options.batch.max_wait_us = 100.0;
      auto server = make_pipe_server(options, nullptr);
      server->start();
      std::vector<std::future<es::Response>> futures;
      for (int i = 0; i < kRequests; ++i) {
        es::Request req;
        req.tenant = i % 2 == 0 ? "even" : "odd";
        req.inputs["xs"] = {static_cast<double>(i), i * 0.25, -i * 3.5};
        auto submitted = server->submit(std::move(req));
        ASSERT_TRUE(submitted.has_value());
        futures.push_back(std::move(*submitted));
      }
      server->drain();
      for (int i = 0; i < kRequests; ++i) {
        es::Response response = futures[static_cast<std::size_t>(i)].get();
        ASSERT_TRUE(response.status.is_ok()) << response.status.message();
        ASSERT_EQ(response.outputs.count("biased"), 1u);
        EXPECT_EQ(response.outputs.at("biased"),
                  reference[static_cast<std::size_t>(i)])
            << "request " << i << " dispatchers " << dispatchers
            << " max_batch " << max_batch;
        EXPECT_EQ(response.backend, "host-cpu");
        EXPECT_FALSE(response.degraded);
      }
      server->stop();
    }
  }
}

TEST(Server, CoalescesQueuedRequestsIntoBatches) {
  es::ServerOptions options;
  options.dispatchers = 1;
  options.batch.max_batch = 4;
  auto server = make_pipe_server(options, nullptr);
  // Queue everything before starting the dispatcher: the batcher must then
  // cut ceil(10/4) = 3 batches deterministically.
  std::vector<std::future<es::Response>> futures;
  for (int i = 0; i < 10; ++i) {
    es::Request req;
    req.inputs["xs"] = {static_cast<double>(i)};
    auto submitted = server->submit(std::move(req));
    ASSERT_TRUE(submitted.has_value());
    futures.push_back(std::move(*submitted));
  }
  server->start();
  server->drain();
  std::map<std::uint64_t, std::size_t> batch_sizes;
  for (auto &future : futures) {
    es::Response response = future.get();
    ASSERT_TRUE(response.status.is_ok());
    batch_sizes[response.batch_id] = response.batch_size;
  }
  auto stats = server->stats();
  EXPECT_EQ(stats.batches, 3);
  EXPECT_EQ(batch_sizes.size(), 3u);
  std::size_t total = 0;
  for (const auto &[id, size] : batch_sizes) {
    EXPECT_LE(size, 4u);
    total += size;
  }
  // Batch sizes from the per-response view must cover all 10 requests
  // (4 + 4 + 2).
  EXPECT_EQ(stats.batch_size.max, 4.0);
  EXPECT_EQ(stats.completed, 10);
}

TEST(Server, WeightedFairShareAcrossTenantsWithinBatches) {
  es::ServerOptions options;
  options.dispatchers = 1;
  options.batch.max_batch = 4;
  auto server = make_pipe_server(options, nullptr);
  // 8 requests per tenant, queued before the dispatcher starts: every batch
  // of 4 must carry 2 of each tenant (equal weights alternate a,b,a,b).
  std::vector<std::future<es::Response>> futures;
  for (int i = 0; i < 8; ++i) {
    for (const char *tenant : {"a", "b"}) {
      es::Request req;
      req.tenant = tenant;
      req.inputs["xs"] = {static_cast<double>(i)};
      auto submitted = server->submit(std::move(req));
      ASSERT_TRUE(submitted.has_value());
      futures.push_back(std::move(*submitted));
    }
  }
  server->start();
  server->drain();
  std::map<std::uint64_t, std::map<std::string, int>> batch_tenants;
  for (auto &future : futures) {
    es::Response response = future.get();
    ASSERT_TRUE(response.status.is_ok());
    ++batch_tenants[response.batch_id][response.tenant];
  }
  ASSERT_EQ(batch_tenants.size(), 4u);
  for (const auto &[id, counts] : batch_tenants) {
    EXPECT_EQ(counts.at("a"), 2) << "batch " << id;
    EXPECT_EQ(counts.at("b"), 2) << "batch " << id;
  }
}

TEST(Server, ExpiredDeadlinesAreShedNotExecuted) {
  eo::TraceRecorder recorder;
  es::ServerOptions options;
  options.dispatchers = 1;
  options.batch.max_batch = 8;
  auto server = make_pipe_server(options, &recorder);
  std::vector<std::future<es::Response>> futures;
  for (int i = 0; i < 4; ++i) {
    es::Request req;
    req.inputs["xs"] = {static_cast<double>(i)};
    // Absolute deadline 0 on the server clock: already in the past by the
    // time any dispatcher sees it.
    if (i % 2 == 0) req.deadline_us = 0.0;
    auto submitted = server->submit(std::move(req));
    ASSERT_TRUE(submitted.has_value());
    futures.push_back(std::move(*submitted));
  }
  server->start();
  server->drain();
  int shed = 0, served = 0;
  for (auto &future : futures) {
    es::Response response = future.get();
    if (response.status.is_ok()) {
      ++served;
    } else {
      EXPECT_EQ(response.status.error().code_enum(),
                esup::ErrorCode::DeadlineExceeded);
      ++shed;
    }
  }
  EXPECT_EQ(shed, 2);
  EXPECT_EQ(served, 2);
  EXPECT_EQ(server->stats().shed_deadline, 2);
}

TEST(Server, QueueBoundShedsAtAdmission) {
  es::ServerOptions options;
  options.queue_bound = 2;
  auto server = make_pipe_server(options, nullptr);
  std::vector<std::future<es::Response>> futures;
  for (int i = 0; i < 3; ++i) {
    es::Request req;
    req.inputs["xs"] = {static_cast<double>(i)};
    auto submitted = server->submit(std::move(req));
    if (i < 2) {
      ASSERT_TRUE(submitted.has_value());
      futures.push_back(std::move(*submitted));
    } else {
      ASSERT_FALSE(submitted.has_value());
      EXPECT_EQ(submitted.error().code_enum(), esup::ErrorCode::Unavailable);
    }
  }
  server->start();
  server->drain();
  for (auto &future : futures) {
    EXPECT_TRUE(future.get().status.is_ok());
  }
  auto stats = server->stats();
  EXPECT_EQ(stats.shed_queue, 1);
  EXPECT_EQ(stats.completed, 2);
}

TEST(Server, RateLimitShedsAtAdmission) {
  es::ServerOptions options;
  es::TenantConfig limited;
  limited.rate_per_s = 1e-9;
  limited.burst = 2.0;
  options.tenants["t"] = limited;
  auto server = make_pipe_server(options, nullptr);
  int shed = 0;
  std::vector<std::future<es::Response>> futures;
  for (int i = 0; i < 5; ++i) {
    es::Request req;
    req.tenant = "t";
    req.inputs["xs"] = {1.0};
    auto submitted = server->submit(std::move(req));
    if (submitted.has_value()) {
      futures.push_back(std::move(*submitted));
    } else {
      EXPECT_EQ(submitted.error().code_enum(), esup::ErrorCode::Unavailable);
      ++shed;
    }
  }
  EXPECT_EQ(shed, 3) << "burst of 2, then rate-limited";
  server->start();
  server->drain();
  EXPECT_EQ(server->stats().shed_rate, 3);
}

TEST(Server, RejectsRequestsWithWrongInputs) {
  auto server = make_pipe_server({}, nullptr);
  es::Request missing;
  auto r1 = server->submit(missing);
  ASSERT_FALSE(r1.has_value());
  EXPECT_EQ(r1.error().code_enum(), esup::ErrorCode::InvalidArgument);
  es::Request wrong;
  wrong.inputs["ys"] = {1.0};
  auto r2 = server->submit(wrong);
  ASSERT_FALSE(r2.has_value());
  EXPECT_EQ(r2.error().code_enum(), esup::ErrorCode::InvalidArgument);
}

TEST(Server, ConcurrentSubmittersAllComplete) {
  es::ServerOptions options;
  options.dispatchers = 4;
  options.batch.max_batch = 8;
  options.batch.max_wait_us = 50.0;
  auto server = make_pipe_server(options, nullptr);
  server->start();
  const int kThreads = 4, kPerThread = 32;
  std::vector<std::thread> clients;
  std::vector<std::vector<std::future<es::Response>>> futures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        es::Request req;
        req.tenant = "client-" + std::to_string(t);
        req.inputs["xs"] = {static_cast<double>(t), static_cast<double>(i)};
        auto submitted = server->submit(std::move(req));
        ASSERT_TRUE(submitted.has_value());
        futures[static_cast<std::size_t>(t)].push_back(std::move(*submitted));
      }
    });
  }
  for (auto &c : clients) c.join();
  server->drain();
  for (int t = 0; t < kThreads; ++t) {
    for (auto &future : futures[static_cast<std::size_t>(t)]) {
      es::Response response = future.get();
      ASSERT_TRUE(response.status.is_ok());
      // mul2 then add1: [t, i] -> [2t + 1, 2i + 1].
      ASSERT_EQ(response.outputs.at("biased").size(), 2u);
    }
  }
  auto stats = server->stats();
  EXPECT_EQ(stats.completed, kThreads * kPerThread);
  EXPECT_EQ(stats.failed, 0);
}

TEST(Server, DeviceFaultsFailOverToHostCpu) {
  eo::TraceRecorder recorder;
  ep::Device device(ep::alveo_u55c());
  ASSERT_TRUE(
      device.load_kernel("serve_pipe", tiny_kernel("serve_pipe", 3'000))
          .is_ok());
  ep::FaultPlan plan;
  plan.kernel_timeout_rate = 1.0;  // every launch hangs
  plan.kernel_timeout_multiplier = 100.0;
  ep::FaultInjector injector(11, plan);
  device.attach_fault_injector(&injector);

  es::ServerOptions options;
  options.dispatchers = 1;
  options.batch.max_batch = 4;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_us = 1.0;
  options.breaker.failure_threshold = 1;
  options.breaker.open_us = 1e12;  // stays open for the whole test
  // The card is a one-device group in front of the host-cpu backend.
  auto server = es::make_server(pipe_graph(), pipe_registry(), &recorder,
                                options, &device, "serve_pipe",
                                /*launch_deadline_us=*/50.0);
  ASSERT_TRUE(server.has_value()) << server.error().message;
  ASSERT_EQ((*server)->backends().size(), 2u);

  std::vector<std::future<es::Response>> futures;
  for (int i = 0; i < 8; ++i) {
    es::Request req;
    req.inputs["xs"] = {static_cast<double>(i)};
    auto submitted = (*server)->submit(std::move(req));
    ASSERT_TRUE(submitted.has_value());
    futures.push_back(std::move(*submitted));
  }
  (*server)->start();
  (*server)->drain();
  for (auto &future : futures) {
    es::Response response = future.get();
    ASSERT_TRUE(response.status.is_ok()) << response.status.message();
    EXPECT_EQ(response.backend, "host-cpu");
    EXPECT_TRUE(response.degraded) << "served by the failover backend";
  }
  auto stats = (*server)->stats();
  EXPECT_EQ(stats.completed, 8);
  EXPECT_GE(stats.failovers, 1);
  // The first batch trips the breaker (threshold 1); later batches are
  // rejected at the breaker instead of burning device retries.
  EXPECT_GE(stats.breaker_rejections, 1);
  (*server)->stop();
}

TEST(Server, StopFailsQueuedRequestsCleanly) {
  auto server = make_pipe_server({}, nullptr);
  es::Request req;
  req.inputs["xs"] = {1.0};
  auto submitted = server->submit(std::move(req));
  ASSERT_TRUE(submitted.has_value());
  server->stop();  // never started: the queued request must not dangle
  es::Response response = submitted->get();
  ASSERT_FALSE(response.status.is_ok());
  EXPECT_EQ(response.status.error().code_enum(),
            esup::ErrorCode::Unavailable);
  auto rejected = server->submit(es::Request{});
  EXPECT_FALSE(rejected.has_value());
}

// ------------------------------------------------------------- basecamp

TEST(Basecamp, MakeServerServesWithDeviceAndRecordsMetrics) {
  everest::sdk::Basecamp basecamp;
  ep::Device device(ep::alveo_u55c());
  device.attach_recorder(&basecamp.recorder());
  ASSERT_TRUE(
      device.load_kernel("serve_pipe", tiny_kernel("serve_pipe", 2'000))
          .is_ok());
  es::ServerOptions options;
  options.batch.max_batch = 4;
  options.dispatchers = 2;
  auto server = es::make_server(pipe_graph(), pipe_registry(),
                                &basecamp.recorder(), options, &device,
                                "serve_pipe");
  ASSERT_TRUE(server.has_value()) << server.error().message;
  ASSERT_EQ((*server)->backends().size(), 2u);
  EXPECT_EQ((*server)->backends()[0]->name(), "alveo-u55c");
  EXPECT_EQ((*server)->backends()[1]->name(), "host-cpu");
  (*server)->start();
  std::vector<std::future<es::Response>> futures;
  for (int i = 0; i < 12; ++i) {
    es::Request req;
    req.tenant = i % 3 == 0 ? "gold" : "free";
    req.inputs["xs"] = {static_cast<double>(i)};
    auto submitted = (*server)->submit(std::move(req));
    ASSERT_TRUE(submitted.has_value());
    futures.push_back(std::move(*submitted));
  }
  (*server)->drain();
  for (auto &future : futures) {
    es::Response response = future.get();
    ASSERT_TRUE(response.status.is_ok());
    EXPECT_EQ(response.backend, "alveo-u55c");
    EXPECT_FALSE(response.degraded);
  }
  (*server)->stop();
  // serve.* metrics and batch spans landed on the basecamp recorder.
  bool found_batches = false, found_latency = false, found_span = false;
  for (const auto &[name, value] : basecamp.recorder().counters()) {
    if (name == "serve.batches") found_batches = value > 0;
  }
  for (const auto &[name, summary] : basecamp.recorder().histograms()) {
    if (name == "serve.latency_us.gold") found_latency = summary.count == 4;
  }
  for (const auto &event : basecamp.recorder().events()) {
    if (event.category == "serve.batch") found_span = true;
  }
  EXPECT_TRUE(found_batches);
  EXPECT_TRUE(found_latency);
  EXPECT_TRUE(found_span);
  EXPECT_GT(device.stats().kernel_launches, 0);
}

TEST(Basecamp, MakeServerServesFoldGraphs) {
  everest::sdk::Basecamp basecamp;
  auto parsed = everest::frontend::parse_condrust(R"(
fn agg(xs: Stream<f64>) -> Stream<f64> {
    let total = fold acc(xs);
    return total;
}
)");
  ASSERT_TRUE(parsed.has_value());
  auto registry = pipe_registry();
  registry->register_fold("acc", {0.0},
                          [](const er::Record &state,
                             const std::vector<const er::Record *> &in) {
                            return er::Record{state[0] + in.at(0)->at(0)};
                          });
  es::ServerOptions options;
  options.batch.max_batch = 4;
  auto server = es::make_server(*parsed, registry, &basecamp.recorder(),
                                options);
  ASSERT_TRUE(server.has_value()) << server.error().message;
  (*server)->start();
  std::vector<std::future<es::Response>> futures;
  for (int i = 0; i < 8; ++i) {
    es::Request req;
    req.inputs["xs"] = {static_cast<double>(i)};
    auto submitted = (*server)->submit(std::move(req));
    ASSERT_TRUE(submitted.has_value());
    futures.push_back(std::move(*submitted));
  }
  (*server)->drain();
  for (int i = 0; i < 8; ++i) {
    es::Response response = futures[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(response.status.is_ok()) << response.status.error().message;
    // Batching must not fuse fold states across requests.
    EXPECT_EQ(response.outputs.at("total"),
              er::Record{static_cast<double>(i)});
  }
  (*server)->stop();
}

// ------------------------------------------------- satellite regressions

// The queue's oldest-admit / earliest-deadline views are maintained as
// running minima by admit()/pop(). Differential check against shadow
// multisets across a deterministic interleaving of admits and pops.
TEST(AdmissionQueue, RunningMinimaMatchShadowAccounting) {
  es::AdmissionQueue queue(256);
  std::multiset<double> admits;
  std::multiset<double> deadlines;
  auto check = [&] {
    EXPECT_EQ(queue.oldest_admit_us(),
              admits.empty() ? 0.0 : *admits.begin());
    EXPECT_EQ(queue.earliest_deadline_us(),
              deadlines.empty() ? -1.0 : *deadlines.begin());
  };
  std::uint64_t lcg = 42;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>((lcg >> 33) % 10'000);
  };
  double now = 0.0;
  for (int round = 0; round < 200; ++round) {
    now += 1.0;
    if (round % 3 != 2) {
      auto pending =
          make_pending(static_cast<std::uint64_t>(round),
                       "tenant-" + std::to_string(round % 5), round % 3, now);
      // Roughly half the requests carry a deadline.
      pending.request.deadline_us = round % 2 == 0 ? now + next() : -1.0;
      double admit_us = pending.admit_us;
      double deadline_us = pending.request.deadline_us;
      ASSERT_TRUE(queue.admit(pending, now).is_ok());
      admits.insert(admit_us);
      if (deadline_us >= 0.0) deadlines.insert(deadline_us);
    } else {
      auto popped = queue.pop(now);
      if (popped.has_value()) {
        admits.erase(admits.find(popped->admit_us));
        if (popped->request.deadline_us >= 0.0)
          deadlines.erase(deadlines.find(popped->request.deadline_us));
      }
    }
    check();
  }
  while (auto popped = queue.pop(now)) {
    admits.erase(admits.find(popped->admit_us));
    if (popped->request.deadline_us >= 0.0)
      deadlines.erase(deadlines.find(popped->request.deadline_us));
    check();
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.oldest_admit_us(), 0.0);
  EXPECT_EQ(queue.earliest_deadline_us(), -1.0);
}

TEST(DynamicBatcher, DeadlineCapsWaitBudgetAndForcesDispatch) {
  es::DynamicBatcher batcher({/*max_batch=*/8, /*max_wait_us=*/100.0});
  // A pending deadline already in the past forces an immediate cut even
  // though neither the batch is full nor the oldest request aged out.
  EXPECT_TRUE(batcher.should_dispatch(1, /*oldest=*/0.0, /*now=*/10.0,
                                      /*draining=*/false,
                                      /*earliest_deadline_us=*/5.0));
  // A future deadline does not dispatch early...
  EXPECT_FALSE(batcher.should_dispatch(1, 0.0, 10.0, false, 50.0));
  // ...but it caps the wait budget: 30 us to the deadline beats the 90 us
  // left on the batch-age budget.
  EXPECT_EQ(batcher.wait_budget_us(0.0, 10.0, 40.0), 30.0);
  // No deadline pending: the full batch-age budget applies.
  EXPECT_EQ(batcher.wait_budget_us(0.0, 10.0, -1.0), 90.0);
  EXPECT_EQ(batcher.wait_budget_us(0.0, 10.0), 90.0);
  // Expired deadline: never sleep on it.
  EXPECT_EQ(batcher.wait_budget_us(0.0, 10.0, 5.0), 0.0);
}

// Regression: with a huge max_wait_us and a non-full batch, an expired
// deadline must still be shed eagerly. Before the earliest-deadline cap the
// dispatcher would sleep out the full batch-age budget (5 s here) with the
// expired request stuck in the queue.
TEST(Server, ExpiredDeadlineIsShedEagerlyNotAfterMaxWait) {
  es::ServerOptions options;
  options.dispatchers = 1;
  options.batch.max_batch = 64;
  options.batch.max_wait_us = 5e6;  // 5 s: far beyond the test's patience
  auto server = make_pipe_server(options, nullptr);
  server->start();
  es::Request req;
  req.inputs["xs"] = {1.0};
  req.deadline_us = 0.0;  // already expired on the server clock
  auto submitted = server->submit(std::move(req));
  ASSERT_TRUE(submitted.has_value());
  ASSERT_EQ(submitted->wait_for(std::chrono::seconds(2)),
            std::future_status::ready)
      << "expired request sat in the queue behind the batch-age budget";
  es::Response response = submitted->get();
  ASSERT_FALSE(response.status.is_ok());
  EXPECT_EQ(response.status.error().code_enum(),
            esup::ErrorCode::DeadlineExceeded);
  server->stop();
}

namespace {

// Backend that blocks inside run_batch until released; used to hold a batch
// in flight while a drain is pending.
class GatedEchoBackend final : public es::Backend {
public:
  [[nodiscard]] const std::string &name() const override { return name_; }
  [[nodiscard]] const std::vector<std::string> &input_names() const override {
    return inputs_;
  }

  esup::Expected<std::map<std::string, er::Stream>> run_batch(
      const std::map<std::string, er::Stream> &inputs) override {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    entered_cv_.notify_all();
    released_cv_.wait(lock, [this] { return released_; });
    return inputs;
  }

  void wait_entered() {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait(lock, [this] { return entered_; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    released_cv_.notify_all();
  }

private:
  std::string name_ = "gated-echo";
  std::vector<std::string> inputs_{"xs"};
  std::mutex mu_;
  std::condition_variable entered_cv_;
  std::condition_variable released_cv_;
  bool entered_ = false;
  bool released_ = false;
};

}  // namespace

// Regression: submits racing a drain() must be shed with Unavailable. Before
// the draining_ check in submit(), a sustained submitter could keep the
// queue non-empty forever and livelock the drain; racing admits during the
// flush were also silently accepted and then flushed, making drain()'s
// completion point meaningless.
TEST(Server, SubmitDuringDrainIsShedWithUnavailable) {
  auto gated = std::make_unique<GatedEchoBackend>();
  GatedEchoBackend *gate = gated.get();
  std::vector<std::unique_ptr<es::Backend>> backends;
  backends.push_back(std::move(gated));
  es::ServerOptions options;
  options.dispatchers = 1;
  options.batch.max_batch = 1;
  auto server = es::Server::create(std::move(backends), options, nullptr);
  ASSERT_TRUE(server.has_value());
  (*server)->start();

  es::Request first;
  first.inputs["xs"] = {1.0};
  auto in_flight = (*server)->submit(std::move(first));
  ASSERT_TRUE(in_flight.has_value());
  gate->wait_entered();  // the batch is now stuck inside the backend

  std::thread drainer([&] { (*server)->drain(); });
  // The drain is blocked on the in-flight batch; concurrent submits must be
  // shed with Unavailable instead of queueing behind the drain.
  bool shed_during_drain = false;
  for (int i = 0; i < 5'000 && !shed_during_drain; ++i) {
    es::Request racing;
    racing.inputs["xs"] = {2.0};
    auto submitted = (*server)->submit(std::move(racing));
    if (!submitted.has_value()) {
      EXPECT_EQ(submitted.error().code_enum(), esup::ErrorCode::Unavailable);
      EXPECT_NE(submitted.error().message.find("drain"), std::string::npos);
      shed_during_drain = true;
    } else {
      // Raced ahead of the drain flag: the request was admitted and will be
      // flushed by the drain.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_TRUE(shed_during_drain);
  gate->release();
  drainer.join();
  EXPECT_TRUE(in_flight->get().status.is_ok());
  EXPECT_GE((*server)->stats().shed_drain, 1);
  (*server)->stop();
}

namespace {

// Backend that returns streams one element short of the batch — the
// wrong-length contract violation the Server must treat as a failure.
class TruncatingBackend final : public es::Backend {
public:
  [[nodiscard]] const std::string &name() const override { return name_; }
  [[nodiscard]] const std::vector<std::string> &input_names() const override {
    return inputs_;
  }

  esup::Expected<std::map<std::string, er::Stream>> run_batch(
      const std::map<std::string, er::Stream> &inputs) override {
    ++calls;
    std::map<std::string, er::Stream> out = inputs;
    for (auto &[key, stream] : out)
      if (!stream.empty()) stream.pop_back();
    return out;
  }

  int calls = 0;

private:
  std::string name_ = "truncating";
  std::vector<std::string> inputs_{"xs"};
};

}  // namespace

// Regression: a backend returning wrong-length streams previously failed the
// batch over to the next backend WITHOUT tripping its circuit breaker, so a
// persistently malformed backend was retried first on every single batch.
TEST(Server, MalformedBackendTripsItsBreaker) {
  auto truncating = std::make_unique<TruncatingBackend>();
  TruncatingBackend *malformed = truncating.get();
  auto host = es::DfgBackend::create(pipe_graph(), pipe_registry(), {}, nullptr);
  ASSERT_TRUE(host.has_value());
  std::vector<std::unique_ptr<es::Backend>> backends;
  backends.push_back(std::move(truncating));
  backends.push_back(std::move(*host));
  es::ServerOptions options;
  options.dispatchers = 1;
  options.batch.max_batch = 2;
  options.breaker.failure_threshold = 1;
  options.breaker.open_us = 1e12;  // stays open for the rest of the test
  auto server = es::Server::create(std::move(backends), options, nullptr);
  ASSERT_TRUE(server.has_value());

  auto run_batch_of_two = [&] {
    std::vector<std::future<es::Response>> futures;
    for (int i = 0; i < 2; ++i) {
      es::Request req;
      req.inputs["xs"] = {static_cast<double>(i)};
      auto submitted = (*server)->submit(std::move(req));
      ASSERT_TRUE(submitted.has_value());
      futures.push_back(std::move(*submitted));
    }
    (*server)->start();
    (*server)->drain();
    for (auto &future : futures) {
      es::Response response = future.get();
      ASSERT_TRUE(response.status.is_ok());
      EXPECT_EQ(response.backend, "host-cpu") << "must fail over";
      EXPECT_TRUE(response.degraded);
    }
  };

  run_batch_of_two();
  EXPECT_EQ(malformed->calls, 1);
  run_batch_of_two();
  // The breaker tripped by the malformed first batch must have skipped the
  // backend entirely on the second one.
  EXPECT_EQ(malformed->calls, 1);
  auto stats = (*server)->stats();
  EXPECT_GE(stats.breaker_rejections, 1);
  EXPECT_EQ(stats.completed, 4);
}

// Regression guard: a tenant configured with burst < 1 must still be able to
// admit one request at a time — the burst is clamped to >= 1 at
// configure_tenant (and defensively in TokenBucket itself). An unclamped
// sub-1 burst could never accumulate a whole token, permanently shedding the
// tenant.
TEST(Server, ConfigureTenantClampsSubUnityBurst) {
  es::ServerOptions options;
  es::TenantConfig tiny;
  tiny.rate_per_s = 1e-9;  // effectively no refill within the test
  tiny.burst = 0.25;
  options.tenants["t"] = tiny;
  auto server = make_pipe_server(options, nullptr);
  es::Request first;
  first.tenant = "t";
  first.inputs["xs"] = {1.0};
  auto a = server->submit(std::move(first));
  ASSERT_TRUE(a.has_value()) << "burst must clamp to 1, not shed forever";
  es::Request second;
  second.tenant = "t";
  second.inputs["xs"] = {2.0};
  auto b = server->submit(std::move(second));
  ASSERT_FALSE(b.has_value()) << "exactly one token at burst 1";
  EXPECT_EQ(b.error().code_enum(), esup::ErrorCode::Unavailable);
  server->start();
  server->drain();
  EXPECT_TRUE(a->get().status.is_ok());
}

namespace {

// Failing primary backend. On its first batch, which the dispatcher runs
// inside drain(), it submits into its own server until a submit is shed for
// draining; every batch then fails with a retryable error, so the batches
// fail over to the host backend behind it.
class DrainProbeBackend final : public es::Backend {
public:
  [[nodiscard]] const std::string &name() const override { return name_; }
  [[nodiscard]] const std::vector<std::string> &input_names() const override {
    return inputs_;
  }

  esup::Expected<std::map<std::string, er::Stream>> run_batch(
      const std::map<std::string, er::Stream> &) override {
    for (int i = 0; i < 5'000 && server != nullptr && !probed; ++i) {
      es::Request request;
      request.tenant = "late-comer";
      request.inputs["xs"] = {3.0};
      auto submitted = server->submit(std::move(request));
      if (!submitted.has_value()) {
        probed = true;  // shed: the drain has begun
      } else {
        admitted.push_back(std::move(*submitted));  // raced ahead of drain()
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return esup::Error::unavailable("probe: primary backend is down");
  }

  es::Server *server = nullptr;
  bool probed = false;
  std::vector<std::future<es::Response>> admitted;

private:
  std::string name_ = "probe";
  std::vector<std::string> inputs_{"xs"};
};

// Drives one server through every way a request ends: a rate shed, a queue
// shed, a deadline shed and a drain shed, and batches that fail over from a
// failing primary to the host. Returns the stopped server.
std::unique_ptr<es::Server> run_mixed_workload(eo::TraceRecorder *recorder) {
  auto probe = std::make_unique<DrainProbeBackend>();
  DrainProbeBackend *primary = probe.get();
  auto host =
      es::DfgBackend::create(pipe_graph(), pipe_registry(), {}, nullptr);
  EXPECT_TRUE(host.has_value());
  std::vector<std::unique_ptr<es::Backend>> backends;
  backends.push_back(std::move(probe));
  backends.push_back(std::move(*host));
  es::ServerOptions options;
  options.dispatchers = 1;
  options.batch.max_batch = 4;
  options.retry.max_attempts = 1;
  options.breaker.failure_threshold = 1;
  options.breaker.open_us = 1e12;  // the primary stays shed once it trips
  es::TenantConfig rated;
  rated.rate_per_s = 1e-9;
  rated.burst = 2.0;
  options.tenants["rated"] = rated;
  es::TenantConfig bounded;
  bounded.queue_bound = 2;
  options.tenants["bounded"] = bounded;
  auto created = es::Server::create(std::move(backends), options, recorder);
  EXPECT_TRUE(created.has_value());
  std::unique_ptr<es::Server> server = std::move(*created);
  primary->server = server.get();

  std::vector<std::future<es::Response>> futures;
  auto submit = [&](const std::string &tenant, double deadline_us) {
    es::Request request;
    request.tenant = tenant;
    request.inputs["xs"] = {1.0};
    request.deadline_us = deadline_us;
    auto submitted = server->submit(std::move(request));
    if (submitted.has_value()) futures.push_back(std::move(*submitted));
  };
  for (int i = 0; i < 3; ++i) submit("rated", -1.0);    // burst 2, then shed
  for (int i = 0; i < 3; ++i) submit("bounded", -1.0);  // bound 2, then shed
  submit("late", 0.0);  // past its deadline when popped
  for (int i = 0; i < 4; ++i) submit("steady", -1.0);
  server->start();
  server->drain();
  for (auto &future : futures) future.get();
  for (auto &future : primary->admitted) future.get();
  server->stop();
  EXPECT_TRUE(primary->probed) << "no submit was shed by the drain";
  return server;
}

}  // namespace

// Server::stats() is a snapshot of the server's serve.* metrics: every field
// equals its metric in the recorder, the derived ones obey their identities,
// and a server given no recorder counts into a private one.
TEST(Server, StatsAreASnapshotOfTheRegistry) {
  eo::TraceRecorder recorder;
  auto server = run_mixed_workload(&recorder);
  const es::ServerStats stats = server->stats();
  auto metric = [&](const std::string &name) {
    return recorder.counter_value(name);
  };
  EXPECT_EQ(stats.admitted, metric("serve.admitted"));
  EXPECT_EQ(stats.completed, metric("serve.completed"));
  EXPECT_EQ(stats.failed, metric("serve.failed"));
  EXPECT_EQ(stats.shed_rate, metric("serve.shed.rate"));
  EXPECT_EQ(stats.shed_queue, metric("serve.shed.queue"));
  EXPECT_EQ(stats.shed_deadline, metric("serve.shed.deadline"));
  EXPECT_EQ(stats.shed_drain, metric("serve.shed.drain"));
  EXPECT_EQ(stats.batches, metric("serve.batches"));
  EXPECT_EQ(stats.failovers, metric("serve.failover.batches"));
  EXPECT_EQ(stats.breaker_rejections, metric("serve.breaker.rejected"));
  std::map<std::string, eo::Histogram::Summary> histograms;
  for (const auto &[name, summary] : recorder.histograms("serve."))
    histograms[name] = summary;
  EXPECT_EQ(stats.batch_size.count, histograms["serve.batch_size"].count);
  EXPECT_EQ(stats.batch_size.sum, histograms["serve.batch_size"].sum);
  EXPECT_EQ(stats.batch_size.max, histograms["serve.batch_size"].max);

  // The workload reached every path once.
  EXPECT_EQ(stats.shed_rate, 1);
  EXPECT_EQ(stats.shed_queue, 1);
  EXPECT_EQ(stats.shed_deadline, 1);
  EXPECT_EQ(stats.shed_drain, 1);
  EXPECT_GE(stats.failovers, 1);
  EXPECT_GE(stats.breaker_rejections, 1);
  EXPECT_EQ(metric("serve.failover.attempts"), 1) << "the primary failed once";

  // Identities: every validated submit was admitted or shed at admission,
  // and every admitted request ended by now.
  EXPECT_EQ(stats.submitted, stats.admitted + stats.shed_rate +
                                 stats.shed_queue + stats.shed_drain);
  EXPECT_EQ(stats.admitted,
            stats.completed + stats.failed + stats.shed_deadline);
  EXPECT_EQ(stats.batches, static_cast<std::int64_t>(stats.batch_size.count));
  EXPECT_EQ(stats.completed, static_cast<std::int64_t>(stats.batch_size.sum));

  std::int64_t completed = 0, failed = 0, shed = 0;
  for (const auto &[tenant, t] : stats.tenants) {
    EXPECT_EQ(t.completed, static_cast<std::int64_t>(
                               histograms["serve.latency_us." + tenant].count))
        << tenant;
    EXPECT_EQ(t.latency_us.p99, histograms["serve.latency_us." + tenant].p99)
        << tenant;
    EXPECT_EQ(t.shed, metric("serve.tenant.shed." + tenant)) << tenant;
    EXPECT_EQ(t.failed, metric("serve.tenant.failed." + tenant)) << tenant;
    completed += t.completed;
    failed += t.failed;
    shed += t.shed;
  }
  EXPECT_EQ(completed, stats.completed);
  EXPECT_EQ(failed, stats.failed);
  EXPECT_EQ(shed, stats.shed_rate + stats.shed_queue + stats.shed_deadline +
                      stats.shed_drain);
  for (const char *tenant : {"rated", "bounded", "late", "late-comer"})
    EXPECT_EQ(stats.tenants.at(tenant).shed, 1) << tenant;
  EXPECT_EQ(stats.tenants.at("steady").completed, 4);

  // No recorder given: the server still reports the same run.
  auto bare = run_mixed_workload(nullptr);
  const es::ServerStats own = bare->stats();
  EXPECT_EQ(own.shed_rate, 1);
  EXPECT_EQ(own.shed_queue, 1);
  EXPECT_EQ(own.shed_deadline, 1);
  EXPECT_EQ(own.shed_drain, 1);
  EXPECT_GE(own.failovers, 1);
  EXPECT_EQ(own.submitted,
            own.admitted + own.shed_rate + own.shed_queue + own.shed_drain);
  EXPECT_EQ(own.admitted, own.completed + own.shed_deadline);
  EXPECT_EQ(own.tenants.at("steady").completed, 4);
}
