// everest/serve/cluster.hpp
//
// The cluster front door of the serving layer: shards `everest::serve`
// across N simulated FPGA nodes (the paper's cloudFPGA deployment and the
// 1st-CLaaS "FPGA-webserver" shape — many clients, one cluster-wide front
// door, per-node accelerator pools). Each node owns its own
// AdmissionQueue/DynamicBatcher/Device-backed Server; the front door
// consistent-hash routes tenants to a primary node, load-aware-forwards to
// replica nodes when the primary is backlogged — with the forward priced
// through the ZRLMPI/cloudFPGA network model, so the PCIe-vs-10Gb latency
// asymmetry genuinely shapes routing — and fails over across replicas when
// a node sheds (per-node resil::CircuitBreaker). Elastic capacity comes
// from everest::virt: each node's FPGA replica set is a group of SR-IOV
// virtual functions hot-plugged in and out by autoscale(), driven by the
// node's serve.queue_depth gauge.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hls/scheduler.hpp"
#include "obs/trace.hpp"
#include "platform/device.hpp"
#include "platform/network.hpp"
#include "serve/backend.hpp"
#include "serve/server.hpp"
#include "virt/virt.hpp"

namespace everest::serve {

/// Consistent-hash ring: each node contributes `vnodes` virtual points, a
/// tenant maps to the first point clockwise of its hash. Deterministic
/// (FNV-1a), and adding/removing a node only remaps the tenants whose arc
/// it owns — the property that makes cluster resizes cheap.
class HashRing {
public:
  HashRing(int nodes, int vnodes_per_node);

  /// The tenant's primary node.
  [[nodiscard]] int route(const std::string &tenant) const;
  /// The primary plus the next `count - 1` distinct nodes clockwise —
  /// the tenant's failover/forwarding candidates, primary first.
  [[nodiscard]] std::vector<int> replicas(const std::string &tenant,
                                          int count) const;

private:
  int nodes_;
  std::vector<std::pair<std::uint64_t, int>> ring_;  // sorted (hash, node)
};

struct ClusterOptions {
  /// Simulated nodes behind the front door.
  int nodes = 2;
  /// Routing candidates per tenant (primary + replicas - 1 failover
  /// targets). Clamped to [1, nodes].
  int replicas = 2;
  /// Virtual points per node on the consistent-hash ring.
  int vnodes_per_node = 96;
  /// Per-node Server template (batching, dispatchers, QoS, retry, breaker).
  ServerOptions server;
  /// FPGA card per node; an empty name defaults to alveo_u55c().
  platform::DeviceSpec card;
  /// SR-IOV VF pool: every node starts with min_vfs attached, autoscale()
  /// plugs up to max_vfs (the card's static PF limit).
  int min_vfs = 1;
  int max_vfs = 4;
  /// autoscale() watermarks on the node's serve.queue_depth gauge.
  double scale_up_depth = 16.0;
  double scale_down_depth = 2.0;
  /// The serving kernel charged per batch launch on a VF's simulated clock.
  std::string kernel = "serve-graph";
  std::int64_t kernel_cycles = 2'000;
  /// Per-node VF replica-group policy: retry budget, launch watchdog
  /// (`deadline`), breakers. Host fallback is the Server's backend chain.
  resil::FailoverOptions vf_failover;
  /// The 10 Gb data-center fabric forwarding rides on, and the payload a
  /// forwarded request carries (request out + response back are priced).
  platform::NetworkSpec network;
  std::int64_t request_bytes = 4'096;
  /// Load-aware routing: estimated service time per queued request. The
  /// front door forwards to a replica only when
  ///   primary_depth * estimate > replica_depth * estimate + forward_cost,
  /// i.e. the 10 Gb round trip must pay for itself in queueing delay.
  double service_estimate_us = 40.0;
  /// Front-door health per node: repeated admission sheds trip the breaker
  /// and routing prefers the other replicas while it cools down.
  resil::CircuitBreaker::Options node_breaker{8, 5'000.0};
};

/// One node's slice of ClusterStats. The counts are the node recorder's
/// metrics (named alongside) or derived from them.
struct ClusterNodeStats {
  std::string name;
  std::int64_t routed = 0;        // admissions on this node: server.admitted
  std::int64_t forwarded_in = 0;  //  ... of which another node was primary:
                                  //  cluster.node.forwarded_in
  std::int64_t shed = 0;  // admission failures the front door saw:
                          // cluster.node.shed
  int vfs = 0;
  /// Max simulated compute time across the node's VF devices — the node's
  /// accelerator busy time under the parallel-VF capacity model.
  double device_busy_us = 0.0;
  /// Simulated fabric time charged to forwards:
  /// forwarded_in x Cluster::forward_cost_us(request_bytes).
  double forward_net_us = 0.0;
  std::size_t queue_depth = 0;
  ServerStats server;
};

/// Cluster-wide snapshot. shed/scale_ups/scale_downs are the cluster
/// recorder's cluster.shed/scale_up/scale_down counters; admitted and
/// forwarded sum the nodes' routed and forwarded_in, and submitted is
/// admitted + shed (every submit is one or the other).
struct ClusterStats {
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t forwarded = 0;
  std::int64_t shed = 0;
  std::int64_t scale_ups = 0;
  std::int64_t scale_downs = 0;
  std::vector<ClusterNodeStats> nodes;
};

/// Result of one autoscale() pass.
struct AutoscaleReport {
  int attached = 0;
  int detached = 0;
};

/// Front door over N sharded serve::Servers. submit() is thread-safe;
/// start()/drain()/stop() fan out to every node (drain keeps the new
/// Server semantics: submits racing a drain shed with Unavailable).
class Cluster {
public:
  static support::Expected<std::unique_ptr<Cluster>> create(
      std::shared_ptr<const ir::Module> graph,
      std::shared_ptr<const runtime::NodeRegistry> registry,
      ClusterOptions options, obs::TraceRecorder *recorder = nullptr);

  ~Cluster();
  Cluster(const Cluster &) = delete;
  Cluster &operator=(const Cluster &) = delete;

  void start();
  /// Routes and admits one request; Unavailable when every candidate node
  /// shed it (cluster-wide overload).
  support::Expected<std::future<Response>> submit(Request request);
  void drain();
  void stop();

  /// One elasticity pass: reads every node's serve.queue_depth gauge and
  /// hot-plugs VFs across the watermarks (one plug/unplug per node per
  /// pass, so capacity ramps rather than thrashes).
  AutoscaleReport autoscale();

  [[nodiscard]] int primary_node(const std::string &tenant) const;
  /// Simulated round-trip cost of forwarding `bytes` over the fabric.
  [[nodiscard]] double forward_cost_us(std::int64_t bytes) const;

  [[nodiscard]] ClusterStats stats() const;
  [[nodiscard]] int nodes() const { return static_cast<int>(nodes_.size()); }
  /// The per-node recorder carrying that node's serve.* and cluster.node.*
  /// metrics.
  [[nodiscard]] obs::TraceRecorder &node_recorder(int node) const;

private:
  struct Node;

  Cluster(ClusterOptions options, obs::TraceRecorder *recorder);

  ClusterOptions options_;
  HashRing ring_;
  /// The front door's cluster.* counters: the caller's recorder, or a
  /// private one when none was given.
  std::unique_ptr<obs::TraceRecorder> own_recorder_;
  obs::TraceRecorder *recorder_;
  /// Front-door wall clock: the timeline node breakers run on.
  obs::Clock clock_;
  /// The HLS report programmed onto every VF (also by later hot-plugs).
  hls::KernelReport kernel_report_;

  mutable std::mutex mu_;  // routing state: node breakers + VF sets
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace everest::serve
