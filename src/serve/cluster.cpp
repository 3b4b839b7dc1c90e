#include "serve/cluster.hpp"

#include <algorithm>
#include <utility>

namespace everest::serve {

using support::Error;
using support::Expected;

namespace {

// FNV-1a, 64 bit, with a splitmix64-style finalizer: FNV alone avalanches
// poorly in the high bits for short sequential keys ("node-3#17"), and ring
// placement sorts on exactly those bits — without the finalizer most of the
// ring arc collapses onto one node.
std::uint64_t fnv1a(const std::string &s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

}  // namespace

// --------------------------------------------------------------------------
// HashRing

HashRing::HashRing(int nodes, int vnodes_per_node)
    : nodes_(nodes < 1 ? 1 : nodes) {
  if (vnodes_per_node < 1) vnodes_per_node = 1;
  ring_.reserve(static_cast<std::size_t>(nodes_) * vnodes_per_node);
  for (int n = 0; n < nodes_; ++n) {
    const std::string base = "node-" + std::to_string(n) + "#";
    for (int v = 0; v < vnodes_per_node; ++v)
      ring_.emplace_back(fnv1a(base + std::to_string(v)), n);
  }
  std::sort(ring_.begin(), ring_.end());
}

int HashRing::route(const std::string &tenant) const {
  return replicas(tenant, 1).front();
}

std::vector<int> HashRing::replicas(const std::string &tenant,
                                    int count) const {
  count = std::clamp(count, 1, nodes_);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(count));
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(),
      std::make_pair(fnv1a(tenant), 0));
  for (std::size_t step = 0;
       step < ring_.size() && out.size() < static_cast<std::size_t>(count);
       ++step, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    if (std::find(out.begin(), out.end(), it->second) == out.end())
      out.push_back(it->second);
  }
  return out;
}

// --------------------------------------------------------------------------
// Cluster

struct Cluster::Node {
  explicit Node(const resil::CircuitBreaker::Options &breaker_options)
      : breaker(breaker_options) {}

  std::string name;
  /// Per-node recorder: serve.* gauges/counters from different nodes must
  /// not collide, and autoscale() reads this node's serve.queue_depth. The
  /// front door books its per-node facts here too (cluster.node.*).
  std::unique_ptr<obs::TraceRecorder> recorder;
  std::unique_ptr<virt::VirtNode> virt;
  virt::VmId vm = -1;
  /// Attach-ordered, parallel to the elastic backend's replica ring: the
  /// ring removes from the back, so vfs.back()/devices.back() is always the
  /// replica a scale-down unplugs.
  std::vector<virt::VfHandle> vfs;
  std::vector<platform::Device *> devices;
  ElasticDeviceBackend *elastic = nullptr;  // owned by server's backend list
  std::unique_ptr<Server> server;
  resil::CircuitBreaker breaker;
};

Cluster::Cluster(ClusterOptions options, obs::TraceRecorder *recorder)
    : options_(std::move(options)),
      ring_(options_.nodes, options_.vnodes_per_node),
      own_recorder_(recorder ? nullptr
                             : std::make_unique<obs::TraceRecorder>()),
      recorder_(recorder ? recorder : own_recorder_.get()) {}

Cluster::~Cluster() { stop(); }

Expected<std::unique_ptr<Cluster>> Cluster::create(
    std::shared_ptr<const ir::Module> graph,
    std::shared_ptr<const runtime::NodeRegistry> registry,
    ClusterOptions options, obs::TraceRecorder *recorder) {
  if (options.nodes < 1)
    return Error::invalid_argument("serve: cluster needs at least one node");
  if (options.min_vfs < 1)
    return Error::invalid_argument("serve: cluster needs min_vfs >= 1");
  if (options.max_vfs < options.min_vfs)
    return Error::invalid_argument("serve: cluster max_vfs < min_vfs");
  if (options.kernel_cycles < 1)
    return Error::invalid_argument("serve: cluster kernel_cycles must be > 0");
  options.replicas = std::clamp(options.replicas, 1, options.nodes);
  if (options.card.name.empty()) options.card = platform::alveo_u55c();

  auto cluster =
      std::unique_ptr<Cluster>(new Cluster(std::move(options), recorder));
  const ClusterOptions &opt = cluster->options_;

  hls::KernelReport &report = cluster->kernel_report_;
  report.name = opt.kernel;
  report.total_cycles = opt.kernel_cycles;
  report.dataflow_cycles = opt.kernel_cycles;
  report.clock_mhz = opt.card.clock_mhz;
  report.area = {10'000, 10'000, 10, 10};

  for (int i = 0; i < opt.nodes; ++i) {
    auto node = std::make_unique<Node>(opt.node_breaker);
    node->name = "node-" + std::to_string(i);
    node->recorder = std::make_unique<obs::TraceRecorder>();

    node->virt = std::make_unique<virt::VirtNode>(
        node->name, /*cores=*/16,
        std::vector<platform::DeviceSpec>{opt.card}, opt.max_vfs);
    auto vm = node->virt->create_vm(node->name + "-serve-vm", /*vcpus=*/8);
    if (!vm) return vm.error().with_context("serve: cluster " + node->name);
    node->vm = *vm;

    for (int v = 0; v < opt.min_vfs; ++v) {
      auto handle = node->virt->attach_vf(node->vm, /*card=*/0);
      if (!handle)
        return handle.error().with_context("serve: cluster " + node->name);
      auto device = node->virt->vm_device(node->vm, *handle);
      if (!device)
        return device.error().with_context("serve: cluster " + node->name);
      auto loaded = (*device)->load_kernel(opt.kernel, report);
      if (!loaded)
        return loaded.error().with_context("serve: cluster " + node->name);
      node->vfs.push_back(*handle);
      node->devices.push_back(*device);
    }

    auto compute = DfgBackend::create(graph, registry, {},
                                      node->recorder.get());
    if (!compute)
      return compute.error().with_context("serve: cluster " + node->name);
    auto host = DfgBackend::create(graph, registry, {}, node->recorder.get());
    if (!host)
      return host.error().with_context("serve: cluster " + node->name);

    auto elastic = ElasticDeviceBackend::create(
        node->name + "-fpga", node->devices, opt.kernel, std::move(*compute),
        opt.vf_failover, node->recorder.get());
    if (!elastic)
      return elastic.error().with_context("serve: cluster " + node->name);
    node->elastic = elastic->get();

    std::vector<std::unique_ptr<Backend>> backends;
    backends.push_back(std::move(*elastic));
    backends.push_back(std::move(*host));
    auto server = Server::create(std::move(backends), opt.server,
                                 node->recorder.get());
    if (!server)
      return server.error().with_context("serve: cluster " + node->name);
    node->server = std::move(*server);

    cluster->nodes_.push_back(std::move(node));
  }
  return cluster;
}

void Cluster::start() {
  for (auto &node : nodes_) node->server->start();
}

Expected<std::future<Response>> Cluster::submit(Request request) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<int> candidates =
      ring_.replicas(request.tenant, options_.replicas);
  const int primary = candidates.front();
  const double forward_us = forward_cost_us(options_.request_bytes);

  // Load-aware candidate order: estimated queueing delay, with non-primary
  // nodes paying the simulated fabric round trip — forwarding happens only
  // when it beats waiting locally.
  struct Candidate {
    int node;
    double est_us;
  };
  std::vector<Candidate> order;
  order.reserve(candidates.size());
  for (int n : candidates) {
    double est = static_cast<double>(nodes_[n]->server->queue_depth()) *
                 options_.service_estimate_us;
    if (n != primary) est += forward_us;
    order.push_back({n, est});
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Candidate &a, const Candidate &b) {
                     return a.est_us < b.est_us;
                   });

  const double now = clock_.now_us();
  Error last = Error::unavailable("serve: every candidate node is unhealthy");
  bool tried_any = false;
  for (const Candidate &candidate : order) {
    Node &node = *nodes_[candidate.node];
    if (!node.breaker.allow(now)) continue;
    tried_any = true;
    Request attempt = request;  // per-attempt copy: Server::submit consumes
    auto future = node.server->submit(std::move(attempt));
    if (future) {
      // Admissions are the node server's serve.admitted; only forwards
      // need a front-door count.
      node.breaker.on_success();
      if (candidate.node != primary)
        node.recorder->counter("cluster.node.forwarded_in").add(1);
      return future;
    }
    node.breaker.on_failure(now);
    node.recorder->counter("cluster.node.shed").add(1);
    last = future.error();
  }
  recorder_->counter("cluster.shed").add(1);
  if (!tried_any)
    return last.with_context("serve: cluster tenant '" + request.tenant + "'");
  return last.with_context("serve: cluster shed tenant '" + request.tenant +
                           "' on every candidate node");
}

void Cluster::drain() {
  for (auto &node : nodes_) node->server->drain();
}

void Cluster::stop() {
  for (auto &node : nodes_) node->server->stop();
}

AutoscaleReport Cluster::autoscale() {
  AutoscaleReport report;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto &np : nodes_) {
    Node &node = *np;
    const double depth = node.recorder->gauge("serve.queue_depth").value();
    const int vfs = static_cast<int>(node.vfs.size());
    if (depth >= options_.scale_up_depth && vfs < options_.max_vfs) {
      auto handle = node.virt->attach_vf(node.vm, /*card=*/0);
      if (!handle) continue;
      auto device = node.virt->vm_device(node.vm, *handle);
      if (!device) {
        node.virt->detach_vf(node.vm, *handle);
        continue;
      }
      if (!(*device)->load_kernel(options_.kernel, kernel_report_)) {
        node.virt->detach_vf(node.vm, *handle);
        continue;
      }
      node.vfs.push_back(*handle);
      node.devices.push_back(*device);
      node.elastic->add_replica(*device);
      ++report.attached;
      recorder_->counter("cluster.scale_up").add(1);
    } else if (depth <= options_.scale_down_depth && vfs > options_.min_vfs) {
      // Remove from the launch ring first — that serializes against
      // in-flight launches — and only then unplug the VF, which destroys
      // the Device.
      auto removed = node.elastic->remove_replica();
      if (!removed) continue;
      node.virt->detach_vf(node.vm, node.vfs.back());
      node.vfs.pop_back();
      node.devices.pop_back();
      ++report.detached;
      recorder_->counter("cluster.scale_down").add(1);
    }
  }
  return report;
}

int Cluster::primary_node(const std::string &tenant) const {
  return ring_.route(tenant);
}

double Cluster::forward_cost_us(std::int64_t bytes) const {
  // Request out plus response back over the 10 Gb fabric.
  return 2.0 * platform::message_seconds(options_.network, bytes) * 1e6;
}

ClusterStats Cluster::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  const double forward_us = forward_cost_us(options_.request_bytes);
  ClusterStats out;
  out.shed = recorder_->counter_value("cluster.shed");
  out.scale_ups = recorder_->counter_value("cluster.scale_up");
  out.scale_downs = recorder_->counter_value("cluster.scale_down");
  out.nodes.reserve(nodes_.size());
  for (const auto &np : nodes_) {
    const Node &node = *np;
    ClusterNodeStats ns;
    ns.name = node.name;
    ns.server = node.server->stats();
    ns.routed = ns.server.admitted;
    ns.forwarded_in = node.recorder->counter_value("cluster.node.forwarded_in");
    ns.shed = node.recorder->counter_value("cluster.node.shed");
    ns.vfs = static_cast<int>(node.vfs.size());
    for (const platform::Device *device : node.devices)
      ns.device_busy_us = std::max(ns.device_busy_us,
                                   device->stats().compute_us);
    ns.forward_net_us = static_cast<double>(ns.forwarded_in) * forward_us;
    ns.queue_depth = node.server->queue_depth();
    out.admitted += ns.routed;
    out.forwarded += ns.forwarded_in;
    out.nodes.push_back(std::move(ns));
  }
  out.submitted = out.admitted + out.shed;
  return out;
}

obs::TraceRecorder &Cluster::node_recorder(int node) const {
  return *nodes_[static_cast<std::size_t>(node)]->recorder;
}

}  // namespace everest::serve
