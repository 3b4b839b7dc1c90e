// Cluster serving benchmark: shards everest::serve across simulated FPGA
// nodes and sweeps the node count 1 -> 8 over the same request trace.
// Throughput is measured on the simulated device timeline (max per-node
// accelerator busy time — nodes run in parallel), so the sweep is
// deterministic and CI-stable; per-tenant latencies are wall-clock. Emits
// one BENCH_serve_cluster.json of bench records (bench_record.hpp) covering
// the serving invariants the gate table then judges:
//   - scaling: throughput at 8 nodes >= 5x the single-node run;
//   - correctness: every node count produces byte-identical outputs to the
//     single-node run on the same trace;
//   - QoS: zero requests shed at nominal load (shedding only under the
//     overload segment's tight queue bounds, where it must fire);
//   - elasticity: VF hot-plug scales up under backlog and back down after.

#include <algorithm>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_record.hpp"
#include "frontend/condrust_parser.hpp"
#include "serve/cluster.hpp"
#include "support/table.hpp"

namespace es = everest::serve;
namespace er = everest::runtime;
using everest::bench::Clock;

namespace {

constexpr const char *kGraph = R"(
fn serve_pipe(xs: Stream<f64>) -> Stream<f64> {
    let scaled = mul2(xs);
    let biased = add1(scaled);
    return biased;
}
)";

std::shared_ptr<er::NodeRegistry> make_registry() {
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

constexpr int kTenants = 64;
constexpr int kRequestsPerTenant = 8;
constexpr int kRequests = kTenants * kRequestsPerTenant;

std::string tenant_name(int t) { return "tenant-" + std::to_string(t); }

es::ClusterOptions base_options(int nodes) {
  es::ClusterOptions options;
  options.nodes = nodes;
  options.replicas = std::min(3, nodes);
  options.server.batch.max_batch = 16;
  options.server.batch.max_wait_us = 200.0;
  options.server.dispatchers = 1;
  options.server.queue_bound = 4'096;
  return options;
}

struct TraceResult {
  std::int64_t completed = 0;
  std::int64_t shed = 0;
  std::int64_t forwarded = 0;
  double busy_us = 0.0;          // max per-node accelerator busy time
  double forward_net_us = 0.0;   // simulated fabric time spent on forwards
  double max_node_share = 0.0;   // largest node's fraction of admissions
  /// request index -> output records, for byte-identity checks.
  std::map<int, std::map<std::string, er::Record>> outputs;
  /// tenant -> sorted request latencies (us).
  std::map<std::string, std::vector<double>> latencies;
};

// Runs the fixed trace through a cluster of `nodes` nodes. The whole trace
// is submitted before start() so batch formation and load-aware routing see
// the same deterministic queue-depth sequence on every run.
everest::support::Expected<TraceResult> run_trace(
    const std::shared_ptr<const everest::ir::Module> &graph,
    const std::shared_ptr<const er::NodeRegistry> &registry, int nodes) {
  auto cluster = es::Cluster::create(graph, registry, base_options(nodes));
  if (!cluster) return cluster.error();

  std::vector<std::pair<int, std::future<es::Response>>> futures;
  futures.reserve(kRequests);
  TraceResult result;
  for (int round = 0; round < kRequestsPerTenant; ++round) {
    for (int t = 0; t < kTenants; ++t) {
      const int index = round * kTenants + t;
      es::Request request;
      request.tenant = tenant_name(t);
      request.inputs["xs"] = {static_cast<double>(index),
                              static_cast<double>(index) * 0.5};
      auto submitted = (*cluster)->submit(std::move(request));
      if (!submitted) continue;  // counted below via cluster stats
      futures.emplace_back(index, std::move(*submitted));
    }
  }

  (*cluster)->start();
  (*cluster)->drain();
  for (auto &[index, future] : futures) {
    es::Response response = future.get();
    if (!response.status.is_ok()) continue;
    ++result.completed;
    result.outputs[index] = response.outputs;
    result.latencies[response.tenant].push_back(response.latency_us);
  }
  (*cluster)->stop();

  auto stats = (*cluster)->stats();
  result.shed = stats.shed + (stats.admitted - result.completed);
  result.forwarded = stats.forwarded;
  for (const auto &node : stats.nodes) {
    result.busy_us = std::max(result.busy_us, node.device_busy_us);
    result.forward_net_us += node.forward_net_us;
    if (stats.admitted > 0) {
      result.max_node_share =
          std::max(result.max_node_share,
                   static_cast<double>(node.routed) /
                       static_cast<double>(stats.admitted));
    }
  }
  for (auto &[tenant, lat] : result.latencies)
    std::sort(lat.begin(), lat.end());
  return result;
}

double percentile(const std::vector<double> &sorted, double p) {
  if (sorted.empty()) return 0.0;
  auto index = static_cast<std::size_t>(p * static_cast<double>(sorted.size()));
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

bool identical_outputs(const TraceResult &a, const TraceResult &b) {
  return a.outputs == b.outputs;
}

std::string fmt(double v, const char *pattern = "%.1f") {
  char buf[32];
  std::snprintf(buf, sizeof buf, pattern, v);
  return buf;
}

}  // namespace

int main(int argc, char **argv) {
  std::string out_path = "BENCH_serve_cluster.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
  }

  std::printf("== serve: cluster front door, node sweep 1 -> 8 ==\n\n");

  auto graph = everest::frontend::parse_condrust(kGraph);
  if (!graph) {
    std::fprintf(stderr, "parse failed: %s\n", graph.error().message.c_str());
    return 1;
  }
  auto registry = make_registry();

  everest::bench::BenchReport report;

  // ---- Scaling sweep: same trace, node count 1 -> 8 --------------------
  const int kNodeCounts[] = {1, 2, 4, 8};
  std::map<int, TraceResult> runs;
  for (int nodes : kNodeCounts) {
    auto run = run_trace(*graph, registry, nodes);
    if (!run) {
      std::fprintf(stderr, "cluster run (%d nodes) failed: %s\n", nodes,
                   run.error().message.c_str());
      return 1;
    }
    runs.emplace(nodes, std::move(*run));
  }

  const TraceResult &single = runs.at(1);
  const double single_busy = single.busy_us;
  everest::support::Table table({"nodes", "completed", "shed", "forwarded",
                                 "busy [us]", "throughput [req/s]", "speedup",
                                 "max share", "identical"});
  for (int nodes : kNodeCounts) {
    const TraceResult &run = runs.at(nodes);
    const double throughput =
        run.busy_us > 0.0
            ? static_cast<double>(run.completed) / (run.busy_us * 1e-6)
            : 0.0;
    const double speedup = run.busy_us > 0.0 ? single_busy / run.busy_us : 0.0;
    const bool identical = identical_outputs(single, run);

    table.add_row({std::to_string(nodes), std::to_string(run.completed),
                   std::to_string(run.shed), std::to_string(run.forwarded),
                   fmt(run.busy_us), fmt(throughput, "%.0f"),
                   fmt(speedup, "%.2f"), fmt(run.max_node_share, "%.3f"),
                   identical ? "yes" : "NO"});

    report.in("serve_cluster", "nodes_" + std::to_string(nodes), "serve")
        .add("requests", "count", Clock::None, kRequests)
        .add("completed", "count", Clock::None,
             static_cast<double>(run.completed))
        .add("incomplete", "count", Clock::None,
             static_cast<double>(kRequests - run.completed))
        .add("shed", "count", Clock::None, static_cast<double>(run.shed))
        .add("forwarded", "count", Clock::None,
             static_cast<double>(run.forwarded))
        .add("busy_us", "us", Clock::Sim, run.busy_us)
        .add("forward_net_us", "us", Clock::Sim, run.forward_net_us)
        .add("throughput_rps", "1/s", Clock::Sim, throughput)
        .add("speedup", "x", Clock::Sim, speedup)
        .add("max_node_share", "ratio", Clock::None, run.max_node_share)
        .add("identical", "bool", Clock::None, identical);
  }
  std::printf("%s\n", table.render().c_str());

  // Per-tenant tail latency on the 8-node run.
  for (const auto &[tenant, latencies] : runs.at(8).latencies) {
    report.in("serve_cluster", tenant, "serve")
        .add("requests", "count", Clock::None,
             static_cast<double>(latencies.size()))
        .add("p50_us", "us", Clock::Wall, percentile(latencies, 0.50))
        .add("p99_us", "us", Clock::Wall, percentile(latencies, 0.99));
  }

  // ---- Overload segment: tight queue bounds must shed, books must close --
  {
    std::int64_t overload_completed = 0;
    std::int64_t overload_submitted = 0;
    es::ClusterOptions options = base_options(8);
    options.server.queue_bound = 8;  // per tenant per node: forces shedding
    auto cluster = es::Cluster::create(*graph, registry, options);
    if (!cluster) {
      std::fprintf(stderr, "overload cluster failed: %s\n",
                   cluster.error().message.c_str());
      return 1;
    }
    std::vector<std::future<es::Response>> futures;
    const int kOverloadTenants = 8;
    const int kPerTenant = 200;
    for (int r = 0; r < kPerTenant; ++r) {
      for (int t = 0; t < kOverloadTenants; ++t) {
        es::Request request;
        request.tenant = tenant_name(t);
        request.inputs["xs"] = {static_cast<double>(r), 1.0};
        ++overload_submitted;
        auto submitted = (*cluster)->submit(std::move(request));
        if (submitted) futures.push_back(std::move(*submitted));
      }
    }
    (*cluster)->start();
    (*cluster)->drain();
    for (auto &future : futures)
      if (future.get().status.is_ok()) ++overload_completed;
    (*cluster)->stop();
    auto stats = (*cluster)->stats();
    report.in("serve_cluster", "overload", "serve")
        .add("submitted", "count", Clock::None,
             static_cast<double>(overload_submitted))
        .add("admitted", "count", Clock::None,
             static_cast<double>(stats.admitted))
        .add("completed", "count", Clock::None,
             static_cast<double>(overload_completed))
        .add("shed", "count", Clock::None, static_cast<double>(stats.shed))
        .add("admission_gap", "count", Clock::None,
             static_cast<double>(overload_submitted - stats.admitted -
                                 stats.shed))
        .add("incomplete", "count", Clock::None,
             static_cast<double>(stats.admitted - overload_completed));
  }

  // ---- Elasticity segment: VF hot-plug follows the queue-depth gauge ----
  std::int64_t scale_ups = 0;
  std::int64_t scale_downs = 0;
  int peak_vfs = 0;
  int final_vfs = 0;
  {
    es::ClusterOptions options = base_options(1);
    options.min_vfs = 1;
    options.max_vfs = 4;
    options.scale_up_depth = 32.0;
    options.scale_down_depth = 2.0;
    auto cluster = es::Cluster::create(*graph, registry, options);
    if (!cluster) {
      std::fprintf(stderr, "elastic cluster failed: %s\n",
                   cluster.error().message.c_str());
      return 1;
    }
    std::vector<std::future<es::Response>> futures;
    for (int i = 0; i < 256; ++i) {
      es::Request request;
      request.tenant = tenant_name(i % kTenants);
      request.inputs["xs"] = {static_cast<double>(i), 2.0};
      auto submitted = (*cluster)->submit(std::move(request));
      if (submitted) futures.push_back(std::move(*submitted));
    }
    for (int pass = 0; pass < 4; ++pass) (*cluster)->autoscale();
    peak_vfs = (*cluster)->stats().nodes.at(0).vfs;
    (*cluster)->start();
    (*cluster)->drain();
    for (auto &future : futures) future.get();
    for (int pass = 0; pass < 4; ++pass) (*cluster)->autoscale();
    auto stats = (*cluster)->stats();
    scale_ups = stats.scale_ups;
    scale_downs = stats.scale_downs;
    final_vfs = stats.nodes.at(0).vfs;
    (*cluster)->stop();
  }
  std::printf("elasticity: %lld scale-ups to %d VFs, %lld scale-downs "
              "back to %d\n",
              static_cast<long long>(scale_ups), peak_vfs,
              static_cast<long long>(scale_downs), final_vfs);

  report.in("serve_cluster", "elastic", "virt")
      .add("scale_ups", "count", Clock::None, static_cast<double>(scale_ups))
      .add("scale_downs", "count", Clock::None,
           static_cast<double>(scale_downs))
      .add("peak_vfs", "count", Clock::None, peak_vfs)
      .add("final_vfs", "count", Clock::None, final_vfs);

  es::ClusterOptions probe = base_options(1);
  auto network = report.in("serve_cluster", "network", "platform");
  network.add("gbps", "Gb/s", Clock::None, probe.network.gbps)
      .add("latency_us", "us", Clock::Sim, probe.network.latency_us);
  // Round-trip price of one forwarded request, straight from the model.
  if (auto pricing = es::Cluster::create(*graph, registry, probe))
    network.add("forward_cost_us", "us", Clock::Sim,
                (*pricing)->forward_cost_us(probe.request_bytes));
  return report.finish(out_path);
}
