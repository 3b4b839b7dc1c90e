// everest::serve::Cluster tests: consistent-hash ring determinism, balance
// and minimal reshuffle; byte-identity of sharded serving against a single
// node; load-aware forwarding priced through the network model; front-door
// failover when nodes shed; and VF elasticity via autoscale(). Labeled
// "concurrency" + "serving" so the tsan and asan presets both run the
// cluster's dispatcher threads and concurrent submitters.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "frontend/condrust_parser.hpp"
#include "platform/network.hpp"
#include "serve/cluster.hpp"

namespace es = everest::serve;
namespace eo = everest::obs;
namespace er = everest::runtime;
namespace ep = everest::platform;
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

std::unique_ptr<es::Cluster> make_cluster(es::ClusterOptions options) {
  auto cluster = es::Cluster::create(pipe_graph(), pipe_registry(), options);
  EXPECT_TRUE(cluster.has_value())
      << (cluster ? "" : cluster.error().message);
  return cluster ? std::move(*cluster) : nullptr;
}

es::Request make_request(const std::string &tenant, double value) {
  es::Request request;
  request.tenant = tenant;
  request.inputs["xs"] = {value, value * 0.5};
  return request;
}

}  // namespace

// --------------------------------------------------------------- hash ring

TEST(HashRing, RoutingIsDeterministic) {
  es::HashRing a(8, 96);
  es::HashRing b(8, 96);
  for (int t = 0; t < 64; ++t) {
    const std::string tenant = "tenant-" + std::to_string(t);
    EXPECT_EQ(a.route(tenant), b.route(tenant));
    EXPECT_EQ(a.replicas(tenant, 3), b.replicas(tenant, 3));
  }
}

TEST(HashRing, ReplicasAreDistinctAndLedByThePrimary) {
  es::HashRing ring(8, 96);
  for (int t = 0; t < 64; ++t) {
    const std::string tenant = "tenant-" + std::to_string(t);
    auto replicas = ring.replicas(tenant, 3);
    ASSERT_EQ(replicas.size(), 3u);
    EXPECT_EQ(replicas.front(), ring.route(tenant));
    std::sort(replicas.begin(), replicas.end());
    EXPECT_EQ(std::unique(replicas.begin(), replicas.end()), replicas.end());
  }
  // Asking for more candidates than nodes clamps to the node count.
  EXPECT_EQ(ring.replicas("tenant-0", 99).size(), 8u);
  EXPECT_EQ(es::HashRing(1, 16).replicas("tenant-0", 3).size(), 1u);
}

TEST(HashRing, SpreadsTenantsAcrossAllNodes) {
  es::HashRing ring(8, 96);
  std::map<int, int> primaries;
  const int kTenants = 512;
  for (int t = 0; t < kTenants; ++t)
    primaries[ring.route("tenant-" + std::to_string(t))]++;
  ASSERT_EQ(primaries.size(), 8u) << "every node must own some tenants";
  for (const auto &[node, count] : primaries) {
    EXPECT_GT(count, kTenants / 8 / 4)
        << "node " << node << " owns far too few tenants";
    EXPECT_LT(count, kTenants / 8 * 4)
        << "node " << node << " owns far too many tenants";
  }
}

TEST(HashRing, GrowingTheClusterOnlyRemapsToTheNewNode) {
  // Consistent hashing's defining property: adding node N to an N-node ring
  // only moves the tenants whose arc the new node's points claim — every
  // tenant either keeps its primary or moves to the NEW node, never between
  // old nodes.
  es::HashRing before(7, 96);
  es::HashRing after(8, 96);
  int moved = 0;
  const int kTenants = 512;
  for (int t = 0; t < kTenants; ++t) {
    const std::string tenant = "tenant-" + std::to_string(t);
    const int old_node = before.route(tenant);
    const int new_node = after.route(tenant);
    if (old_node != new_node) {
      EXPECT_EQ(new_node, 7) << "tenant moved between pre-existing nodes";
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kTenants / 4) << "reshuffle should be ~1/8 of tenants";
}

// ----------------------------------------------------------------- cluster

TEST(Cluster, ShardedOutputsAreByteIdenticalToSingleNode) {
  const int kTenants = 16;
  const int kPerTenant = 4;
  std::map<int, std::map<std::string, er::Record>> reference;
  for (int nodes : {1, 4}) {
    es::ClusterOptions options;
    options.nodes = nodes;
    options.replicas = 2;
    options.server.batch.max_batch = 4;
    auto cluster = make_cluster(options);
    ASSERT_NE(cluster, nullptr);
    std::vector<std::pair<int, std::future<es::Response>>> futures;
    for (int r = 0; r < kPerTenant; ++r) {
      for (int t = 0; t < kTenants; ++t) {
        const int index = r * kTenants + t;
        auto submitted = cluster->submit(make_request(
            "tenant-" + std::to_string(t), static_cast<double>(index)));
        ASSERT_TRUE(submitted.has_value());
        futures.emplace_back(index, std::move(*submitted));
      }
    }
    cluster->start();
    cluster->drain();
    std::map<int, std::map<std::string, er::Record>> outputs;
    for (auto &[index, future] : futures) {
      es::Response response = future.get();
      ASSERT_TRUE(response.status.is_ok()) << response.status.error().message;
      outputs[index] = response.outputs;
    }
    cluster->stop();
    if (nodes == 1) {
      reference = std::move(outputs);
    } else {
      EXPECT_EQ(outputs, reference)
          << "sharded outputs differ from the single-node run";
    }
  }
}

TEST(Cluster, ForwardingIsPricedByTheNetworkModel) {
  es::ClusterOptions options;
  options.nodes = 4;
  auto cluster = make_cluster(options);
  ASSERT_NE(cluster, nullptr);
  // The forward price is the model's round trip: request out, response back.
  const double one_way =
      ep::message_seconds(options.network, options.request_bytes) * 1e6;
  EXPECT_DOUBLE_EQ(cluster->forward_cost_us(options.request_bytes),
                   2.0 * one_way);
  EXPECT_GT(cluster->forward_cost_us(options.request_bytes),
            2.0 * options.network.latency_us);
  // More bytes cost more fabric time.
  EXPECT_GT(cluster->forward_cost_us(1 << 20),
            cluster->forward_cost_us(4'096));
  cluster->stop();
}

TEST(Cluster, BackloggedPrimarySpillsToReplicasAndBooksTheFabricTime) {
  es::ClusterOptions options;
  options.nodes = 2;
  options.replicas = 2;
  options.server.batch.max_batch = 4;
  // Make queueing expensive relative to the fabric round trip so a single
  // hot tenant spills from its primary onto the replica.
  options.service_estimate_us = 500.0;
  auto cluster = make_cluster(options);
  ASSERT_NE(cluster, nullptr);
  const std::string tenant = "hot-tenant";
  const int primary = cluster->primary_node(tenant);
  std::vector<std::future<es::Response>> futures;
  for (int i = 0; i < 64; ++i) {
    auto submitted =
        cluster->submit(make_request(tenant, static_cast<double>(i)));
    ASSERT_TRUE(submitted.has_value());
    futures.push_back(std::move(*submitted));
  }
  cluster->start();
  cluster->drain();
  for (auto &future : futures) EXPECT_TRUE(future.get().status.is_ok());
  auto stats = cluster->stats();
  cluster->stop();
  EXPECT_GT(stats.forwarded, 0) << "hot tenant never spilled off its primary";
  std::int64_t forwarded_in = 0;
  double forward_net_us = 0.0;
  for (const auto &node : stats.nodes) {
    forwarded_in += node.forwarded_in;
    forward_net_us += node.forward_net_us;
  }
  EXPECT_EQ(forwarded_in, stats.forwarded);
  EXPECT_EQ(stats.nodes.at(static_cast<std::size_t>(primary)).forwarded_in, 0)
      << "nothing forwards INTO the tenant's own primary";
  // Every forward is booked at exactly the model's round-trip price.
  EXPECT_DOUBLE_EQ(
      forward_net_us,
      static_cast<double>(stats.forwarded) *
          cluster->forward_cost_us(options.request_bytes));
}

TEST(Cluster, FailsOverAcrossNodesAndShedsOnlyWhenAllCandidatesDo) {
  es::ClusterOptions options;
  options.nodes = 2;
  options.replicas = 2;
  options.server.queue_bound = 4;  // per tenant per node
  // Keep the breaker out of the way: this test is about queue-bound sheds.
  options.node_breaker.failure_threshold = 1'000;
  auto cluster = make_cluster(options);
  ASSERT_NE(cluster, nullptr);
  const std::string tenant = "bounded-tenant";
  int admitted = 0;
  int shed = 0;
  esup::Error last_error = esup::Error::internal("no shed seen");
  for (int i = 0; i < 16; ++i) {
    auto submitted =
        cluster->submit(make_request(tenant, static_cast<double>(i)));
    if (submitted.has_value()) {
      ++admitted;
    } else {
      ++shed;
      last_error = submitted.error();
    }
  }
  // Two nodes x queue_bound 4: the front door fails over to the replica
  // before shedding, so exactly both bounds fill before anything sheds.
  EXPECT_EQ(admitted, 8);
  EXPECT_EQ(shed, 8);
  EXPECT_EQ(last_error.code_enum(), esup::ErrorCode::Unavailable);
  EXPECT_NE(last_error.message.find("every candidate"), std::string::npos)
      << last_error.message;
  auto stats = cluster->stats();
  EXPECT_EQ(stats.admitted, 8);
  EXPECT_EQ(stats.shed, 8);
  EXPECT_EQ(stats.submitted, 16);
  for (const auto &node : stats.nodes)
    EXPECT_EQ(node.routed, 4) << node.name << " queue bound not respected";
  cluster->stop();
}

TEST(Cluster, AutoscaleFollowsTheQueueDepthGauge) {
  es::ClusterOptions options;
  options.nodes = 1;
  options.min_vfs = 1;
  options.max_vfs = 3;
  options.scale_up_depth = 8.0;
  options.scale_down_depth = 1.0;
  auto cluster = make_cluster(options);
  ASSERT_NE(cluster, nullptr);
  EXPECT_EQ(cluster->stats().nodes.at(0).vfs, 1);

  // No backlog: no scale-up.
  auto idle = cluster->autoscale();
  EXPECT_EQ(idle.attached, 0);

  std::vector<std::future<es::Response>> futures;
  for (int i = 0; i < 32; ++i) {
    auto submitted =
        cluster->submit(make_request("tenant-" + std::to_string(i % 4),
                                     static_cast<double>(i)));
    ASSERT_TRUE(submitted.has_value());
    futures.push_back(std::move(*submitted));
  }
  // Backlog of 32 >= watermark 8: one VF plugs per pass up to max_vfs.
  EXPECT_EQ(cluster->autoscale().attached, 1);
  EXPECT_EQ(cluster->autoscale().attached, 1);
  EXPECT_EQ(cluster->autoscale().attached, 0) << "max_vfs reached";
  EXPECT_EQ(cluster->stats().nodes.at(0).vfs, 3);

  cluster->start();
  cluster->drain();
  for (auto &future : futures) EXPECT_TRUE(future.get().status.is_ok());

  // Queue drained: scale back down to the floor, one VF per pass.
  EXPECT_EQ(cluster->autoscale().detached, 1);
  EXPECT_EQ(cluster->autoscale().detached, 1);
  EXPECT_EQ(cluster->autoscale().detached, 0) << "min_vfs is the floor";
  auto stats = cluster->stats();
  EXPECT_EQ(stats.nodes.at(0).vfs, 1);
  EXPECT_EQ(stats.scale_ups, 2);
  EXPECT_EQ(stats.scale_downs, 2);

  // Serving still works on the shrunk replica ring.
  auto after = cluster->submit(make_request("tenant-0", 7.0));
  ASSERT_TRUE(after.has_value());
  cluster->drain();
  EXPECT_TRUE(after->get().status.is_ok());
  cluster->stop();
}

TEST(Cluster, ConcurrentSubmittersAcrossNodesAllComplete) {
  es::ClusterOptions options;
  options.nodes = 4;
  options.replicas = 2;
  options.server.batch.max_batch = 8;
  options.server.batch.max_wait_us = 50.0;
  auto cluster = make_cluster(options);
  ASSERT_NE(cluster, nullptr);
  cluster->start();
  const int kThreads = 4, kPerThread = 32;
  std::vector<std::thread> clients;
  std::vector<std::vector<std::future<es::Response>>> futures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto submitted = cluster->submit(
            make_request("tenant-" + std::to_string((t * kPerThread + i) % 8),
                         static_cast<double>(i)));
        if (submitted.has_value())
          futures[static_cast<std::size_t>(t)].push_back(
              std::move(*submitted));
      }
    });
  }
  for (auto &client : clients) client.join();
  cluster->drain();
  std::size_t completed = 0;
  for (auto &lane : futures) {
    for (auto &future : lane) {
      if (future.get().status.is_ok()) ++completed;
    }
  }
  cluster->stop();
  EXPECT_EQ(completed, static_cast<std::size_t>(kThreads * kPerThread));
  auto stats = cluster->stats();
  EXPECT_EQ(stats.admitted, kThreads * kPerThread);
  EXPECT_EQ(stats.shed, 0);
}

TEST(Cluster, CreateValidatesItsOptions) {
  es::ClusterOptions bad_nodes;
  bad_nodes.nodes = 0;
  EXPECT_FALSE(
      es::Cluster::create(pipe_graph(), pipe_registry(), bad_nodes).has_value());
  es::ClusterOptions bad_vfs;
  bad_vfs.min_vfs = 3;
  bad_vfs.max_vfs = 2;
  EXPECT_FALSE(
      es::Cluster::create(pipe_graph(), pipe_registry(), bad_vfs).has_value());

  // The device backend every node runs validates its own inputs.
  ep::Device device(ep::alveo_u55c());
  auto compute = [] {
    auto created = es::DfgBackend::create(pipe_graph(), pipe_registry());
    EXPECT_TRUE(created.has_value());
    return std::move(*created);
  };
  auto null_device = es::ElasticDeviceBackend::create(
      "fpga", {&device, nullptr}, "serve_pipe", compute());
  ASSERT_FALSE(null_device.has_value());
  EXPECT_EQ(null_device.error().code_enum(),
            esup::ErrorCode::InvalidArgument);
  auto no_devices =
      es::ElasticDeviceBackend::create("fpga", {}, "serve_pipe", compute());
  ASSERT_FALSE(no_devices.has_value());
  EXPECT_EQ(no_devices.error().code_enum(), esup::ErrorCode::InvalidArgument);
  auto no_compute = es::ElasticDeviceBackend::create("fpga", {&device},
                                                     "serve_pipe", nullptr);
  ASSERT_FALSE(no_compute.has_value());
  EXPECT_EQ(no_compute.error().code_enum(), esup::ErrorCode::InvalidArgument);
  EXPECT_TRUE(es::ElasticDeviceBackend::create("fpga", {&device},
                                               "serve_pipe", compute())
                  .has_value());
}

// ------------------------------------------------------ stats from metrics

namespace {

/// A request whose first record value is kHold stops inside mul2 until the
/// gate opens: it keeps one batch in flight so a drain can be raced.
constexpr double kHold = -1.0;

struct HoldGate {
  std::mutex mu;
  std::condition_variable cv;
  bool held = false;
  bool open = false;
};

std::shared_ptr<er::NodeRegistry> gated_registry(
    const std::shared_ptr<HoldGate> &gate) {
  auto registry = pipe_registry();
  registry->register_node(
      "mul2", [gate](const std::vector<const er::Record *> &in) {
        er::Record out = *in.at(0);
        if (!out.empty() && out.front() == kHold) {
          std::unique_lock<std::mutex> lock(gate->mu);
          gate->held = true;
          gate->cv.notify_all();
          gate->cv.wait(lock, [&] { return gate->open; });
        }
        for (double &v : out) v *= 2.0;
        return out;
      });
  return registry;
}

// Drives a 2-node cluster through a rate shed, a queue shed and a deadline
// shed on both nodes, a drain shed that the front door forwards past, and
// device launches that overrun their watchdog and fail over to the host.
// Returns the stopped cluster.
std::unique_ptr<es::Cluster> run_mixed_cluster(eo::TraceRecorder *recorder) {
  auto gate = std::make_shared<HoldGate>();
  es::ClusterOptions options;
  options.nodes = 2;
  options.replicas = 2;
  options.service_estimate_us = 0.0;  // always try the primary first
  options.node_breaker.failure_threshold = 1'000;
  options.server.dispatchers = 1;
  options.server.batch.max_batch = 4;
  options.server.retry.max_attempts = 1;
  options.server.breaker.failure_threshold = 1;
  options.server.breaker.open_us = 1e12;
  options.vf_failover.retry.max_attempts = 1;
  options.vf_failover.deadline.deadline_us = 0.5;  // every launch overruns
  es::TenantConfig rated;
  rated.rate_per_s = 1e-9;
  rated.burst = 2.0;
  options.server.tenants["rated"] = rated;
  es::TenantConfig bounded;
  bounded.queue_bound = 2;
  options.server.tenants["bounded"] = bounded;
  auto created = es::Cluster::create(pipe_graph(), gated_registry(gate),
                                     options, recorder);
  EXPECT_TRUE(created.has_value());
  std::unique_ptr<es::Cluster> cluster = std::move(*created);

  std::vector<std::future<es::Response>> futures;
  auto submit = [&](const std::string &tenant, double value,
                    double deadline_us = -1.0) {
    es::Request request = make_request(tenant, value);
    request.deadline_us = deadline_us;
    auto submitted = cluster->submit(std::move(request));
    if (submitted.has_value()) futures.push_back(std::move(*submitted));
  };
  // Queued before start: 2 per node fit, the fifth is shed by both nodes.
  for (int i = 0; i < 5; ++i) submit("rated", i);
  for (int i = 0; i < 5; ++i) submit("bounded", i);
  submit("late", 1.0, /*deadline_us=*/0.0);  // past its deadline when popped
  cluster->start();

  // Hold a batch in flight on the tenant's primary, so that node's drain
  // stays open while submits race it.
  const std::string tenant = "held";
  const auto primary = static_cast<std::size_t>(cluster->primary_node(tenant));
  submit(tenant, kHold);
  {
    std::unique_lock<std::mutex> lock(gate->mu);
    gate->cv.wait(lock, [&] { return gate->held; });
  }
  std::thread drainer([&] { cluster->drain(); });
  for (int i = 0; i < 5'000; ++i) {
    if (cluster->stats().nodes.at(primary).server.shed_drain > 0) break;
    submit(tenant, static_cast<double>(i));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(gate->mu);
    gate->open = true;
  }
  gate->cv.notify_all();
  drainer.join();
  cluster->drain();  // the requests forwarded past the drain
  for (auto &future : futures) future.get();
  cluster->stop();
  return cluster;
}

}  // namespace

// Cluster::stats() is a snapshot of the cluster recorder's cluster.*
// counters and each node recorder's serve.* and cluster.node.* metrics.
TEST(Cluster, StatsAreASnapshotOfTheRegistries) {
  eo::TraceRecorder recorder;
  auto cluster = run_mixed_cluster(&recorder);
  const es::ClusterStats stats = cluster->stats();
  EXPECT_EQ(stats.shed, recorder.counter_value("cluster.shed"));
  EXPECT_EQ(stats.scale_ups, recorder.counter_value("cluster.scale_up"));
  EXPECT_EQ(stats.scale_downs, recorder.counter_value("cluster.scale_down"));

  const double forward_us = cluster->forward_cost_us(4'096);
  std::int64_t admitted = 0, forwarded = 0, ended = 0;
  es::ServerStats total;
  for (std::size_t n = 0; n < stats.nodes.size(); ++n) {
    const es::ClusterNodeStats &node = stats.nodes[n];
    const eo::TraceRecorder &metrics =
        cluster->node_recorder(static_cast<int>(n));
    const es::ServerStats &server = node.server;
    EXPECT_EQ(node.routed, metrics.counter_value("serve.admitted"));
    EXPECT_EQ(node.forwarded_in,
              metrics.counter_value("cluster.node.forwarded_in"));
    EXPECT_EQ(node.shed, metrics.counter_value("cluster.node.shed"));
    EXPECT_DOUBLE_EQ(node.forward_net_us,
                     static_cast<double>(node.forwarded_in) * forward_us);
    EXPECT_EQ(server.completed, metrics.counter_value("serve.completed"));
    EXPECT_EQ(server.shed_rate, metrics.counter_value("serve.shed.rate"));
    EXPECT_EQ(server.shed_queue, metrics.counter_value("serve.shed.queue"));
    EXPECT_EQ(server.shed_deadline,
              metrics.counter_value("serve.shed.deadline"));
    EXPECT_EQ(server.shed_drain, metrics.counter_value("serve.shed.drain"));
    EXPECT_EQ(server.failovers,
              metrics.counter_value("serve.failover.batches"));
    EXPECT_EQ(server.submitted, server.admitted + server.shed_rate +
                                    server.shed_queue + server.shed_drain);
    // The front door's view of a node's sheds is the node's own.
    EXPECT_EQ(node.shed, server.submitted - server.admitted) << node.name;
    admitted += node.routed;
    forwarded += node.forwarded_in;
    ended += server.completed + server.failed + server.shed_deadline;
    total.shed_rate += server.shed_rate;
    total.shed_queue += server.shed_queue;
    total.shed_deadline += server.shed_deadline;
    total.shed_drain += server.shed_drain;
    total.failovers += server.failovers;
  }
  EXPECT_EQ(stats.admitted, admitted);
  EXPECT_EQ(stats.forwarded, forwarded);
  EXPECT_EQ(stats.submitted, stats.admitted + stats.shed);
  EXPECT_EQ(ended, stats.admitted) << "every admitted request ended";

  // The run reached every path. The primary of "rated" and of "bounded"
  // sheds their third to fifth requests, the replica only the fifth, which
  // the front door sheds; the drain shed was forwarded past; and the VF
  // launches failed over to the host.
  EXPECT_EQ(stats.shed, 2);
  EXPECT_EQ(total.shed_rate, 4);
  EXPECT_EQ(total.shed_queue, 4);
  EXPECT_EQ(total.shed_deadline, 1);
  EXPECT_GE(total.shed_drain, 1);
  EXPECT_GE(stats.forwarded, 1);
  EXPECT_GE(total.failovers, 1);

  // No recorder given: the cluster counts into a private one.
  auto bare = run_mixed_cluster(nullptr);
  const es::ClusterStats own = bare->stats();
  EXPECT_EQ(own.shed, 2);
  EXPECT_EQ(own.submitted, own.admitted + own.shed);
  EXPECT_GE(own.forwarded, 1);
}
