// Workloads `serve_mapmatch` and `serve_stream`: open-loop serving through a
// 2-node serve::Cluster (1 dispatcher per node, max_batch 16, max_wait_us
// 200, no autoscale), 64 tenants, seeded requests drawn from a pool of
// distinct records.
//
// Generator discipline: one thread sends request i at t0 + i/rate (evenly
// spaced), whatever the system does; latency runs from that due time to
// the moment the server completed the request (Response::latency_us after
// admission, mapped onto the generator's clock at the end of submit()).
// Each rung of the rate ladder runs for a fixed quarter of --seconds on a
// fresh cluster. The end-to-end latency is that of the nominal rung;
// throughput_per_s is the goodput (requests completed correctly per second)
// on the top rung, which overloads the cluster. The ladder's max_rate_rps —
// the highest rung that meets the latency limit with no errors, no growing
// backlog and a generator that kept to its schedule — is reported per
// layer: when capacity sits near a rung it flips between runs.
//
// Oracle: every response equals an unbatched runtime::execute_dfg of the
// same record, precomputed per distinct record at set-up.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "frontend/condrust_parser.hpp"
#include "serve/cluster.hpp"
#include "support/alloc_hook.hpp"
#include "support/rng.hpp"
#include "usecases/traffic.hpp"

namespace evbench {
namespace {

namespace es = everest::serve;
namespace er = everest::runtime;
using Outputs = std::map<std::string, er::Record>;

constexpr int kTenants = 64;
constexpr std::size_t kPool = 16384;
/// Requests still queued this long after admission are shed; bounds the
/// drain of an overloaded rung. Far above the latency limit.
constexpr double kDeadlineUs = 50'000.0;
/// A rung passes when p99 (from the due time) stays within this limit.
/// Fixed once from the seed commit's latency curve (README.md): above the
/// p99 of the highest sustainable rungs (<= 25 ms), below that of overload
/// (>= 42 ms) and the 50 ms deadline.
constexpr double kP99LimitUs = 40'000.0;
/// A generator whose median lateness over the rung's last tenth exceeds
/// this fell behind its schedule (sporadic stalls of submit() are not
/// falling behind; they already count in the latency from the due time).
constexpr double kLateLimitUs = 1'000.0;
/// Accounting: a batch span may outlast its request's node latency by this
/// much before it counts as an overrun. Overruns come from a thread
/// descheduled between two clock reads; more than kNoteOverrunShare of the
/// requests is noted, more than kMaxOverrunShare (a span that does not
/// belong to the request) fails the run.
constexpr double kOverrunSlackUs = 50.0;
constexpr double kNoteOverrunShare = 0.001;
constexpr double kMaxOverrunShare = 0.05;

struct ServeSpec {
  std::string workload;
  std::shared_ptr<const everest::ir::Module> graph;
  std::shared_ptr<const er::NodeRegistry> registry;
  std::string input;
  std::vector<er::Record> pool;
  std::vector<double> rates;  // the ladder
  std::size_t nominal = 0;    // index of the nominal rate
};

// ------------------------------------------------------------ the graphs

ServeSpec mapmatch_spec(std::uint64_t seed) {
  namespace tr = everest::usecases::traffic;
  ServeSpec spec;
  spec.workload = "serve_mapmatch";
  const tr::RoadNetwork net = tr::make_grid_network(12, 1.0, seed);
  auto registry = std::make_shared<er::NodeRegistry>();
  tr::register_mapmatch_operators(*registry, net);
  spec.registry = registry;
  auto graph = everest::frontend::parse_condrust(tr::mapmatch_condrust_source());
  if (graph) spec.graph = *graph;
  spec.input = "points";
  spec.pool = tr::trace_to_stream(tr::make_trace(net, kPool, 0.04, seed));
  spec.rates = {10'000, 20'000, 40'000, 80'000};
  spec.nominal = 0;
  return spec;
}

constexpr const char *kStreamGraph = R"(
fn stream_pipe(xs: Stream<f64>) -> Stream<f64> {
    let centered = normalize(xs);
    let mixed = mix(centered);
    let bounded = clip(mixed);
    let out = rescale(bounded);
    return out;
}
)";

constexpr std::size_t kWidth = 16;

ServeSpec stream_spec(std::uint64_t seed) {
  ServeSpec spec;
  spec.workload = "serve_stream";
  everest::support::Pcg32 rng(seed, 0x57e4);
  std::vector<double> matrix(kWidth * kWidth);
  for (double &m : matrix) m = rng.uniform(-0.5, 0.5);

  auto registry = std::make_shared<er::NodeRegistry>();
  registry->register_node("normalize", [](const auto &in) {
    const er::Record &x = *in[0];
    double mean = 0.0, sq = 0.0;
    for (double v : x) mean += v;
    mean /= static_cast<double>(x.size());
    for (double v : x) sq += (v - mean) * (v - mean);
    const double scale = 1.0 / std::sqrt(sq / static_cast<double>(x.size()) + 1e-9);
    er::Record out(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = (x[i] - mean) * scale;
    return out;
  });
  registry->register_node("mix", [matrix](const auto &in) {
    const er::Record &x = *in[0];
    er::Record out(kWidth, 0.0);
    for (std::size_t r = 0; r < kWidth; ++r)
      for (std::size_t c = 0; c < kWidth && c < x.size(); ++c)
        out[r] += matrix[r * kWidth + c] * x[c];
    return out;
  });
  registry->register_node("clip", [](const auto &in) {
    er::Record out = *in[0];
    for (double &v : out) v = std::clamp(v, -1.5, 1.5);
    return out;
  });
  registry->register_node("rescale", [](const auto &in) {
    er::Record out = *in[0];
    for (double &v : out) v = 0.5 * v + 0.25;
    return out;
  });
  spec.registry = registry;
  auto graph = everest::frontend::parse_condrust(kStreamGraph);
  if (graph) spec.graph = *graph;
  spec.input = "xs";
  spec.pool.resize(kPool);
  for (er::Record &r : spec.pool) {
    r.resize(kWidth);
    for (double &v : r) v = rng.uniform(-10.0, 10.0);
  }
  spec.rates = {25'000, 50'000, 100'000, 150'000};
  spec.nominal = 1;
  return spec;
}

es::ClusterOptions cluster_options() {
  es::ClusterOptions o;
  o.nodes = 2;
  o.replicas = 2;
  o.min_vfs = 1;
  o.max_vfs = 1;
  o.server.dispatchers = 1;
  o.server.batch.max_batch = 16;
  o.server.batch.max_wait_us = 200.0;
  o.server.default_deadline_budget_us = kDeadlineUs;
  return o;
}

// --------------------------------------------------------------- one rung

struct Rung {
  double rate = 0.0;
  std::int64_t sent = 0, ok = 0, errors = 0, mismatches = 0;
  std::vector<double> latency_us;  // from due time, completed requests
  double tail_p50_us = 0.0;        // median over the rung's last tenth
  double late_p99_us = 0.0, late_max_us = 0.0, late_tail_p50_us = 0.0;
  double achieved_per_s = 0.0;
  bool pass = false;
  // Traced-run detail.
  std::vector<double> submit_us, queue_wait_us, batch_exec_us;
  std::map<std::string, double> callee_us;  // summed span time per callee
  double host_us = 0.0, device_busy_us = 0.0, forwarded_ratio = 0.0;
  double batch_size_mean = 0.0, events = 0.0, allocs_per_req = 0.0;
  std::int64_t overruns = 0;  // requests whose batch span outlasts them
};

void wait_until(Clock::time_point due) {
  for (;;) {
    const auto now = Clock::now();
    if (now >= due) return;
    if (due - now > std::chrono::microseconds(400))
      std::this_thread::sleep_for(due - now - std::chrono::microseconds(300));
  }
}

es::Request make_request(const ServeSpec &spec, std::size_t record,
                         int tenant) {
  es::Request r;
  r.tenant = "tenant-" + std::to_string(tenant);
  r.inputs[spec.input] = spec.pool[record];
  return r;
}

int node_of(const std::string &backend) {
  // ElasticDeviceBackend names are "node-<i>-fpga".
  if (backend.rfind("node-", 0) != 0) return -1;
  return std::atoi(backend.c_str() + 5);
}

Rung run_rung(const ServeSpec &spec, const std::vector<Outputs> &expected,
              es::Cluster &cluster, double rate, double seconds,
              std::uint64_t seed, bool traced, Report &report) {
  Rung rung;
  rung.rate = rate;
  const auto n =
      static_cast<std::size_t>(std::max(1LL, std::llround(rate * seconds)));
  everest::support::Pcg32 rng(seed, static_cast<std::uint64_t>(rate));
  std::vector<std::uint32_t> record(n);
  for (std::size_t i = 0; i < n; ++i) record[i] = rng.next() % kPool;
  std::vector<std::future<es::Response>> futures(n);
  std::vector<double> due_us(n), admitted_us(n), late_us(n);
  std::vector<char> refused(n, 0);
  if (traced) rung.submit_us.resize(n);

  // Allocations the generator itself makes per request (the request's own
  // map node and record), subtracted from the traced count.
  std::uint64_t own_allocs = 0;
  if (traced) {
    everest::support::alloc_counter_reset();
    everest::support::alloc_counter_enable(true);
    { auto probe = make_request(spec, 0, 0); }
    everest::support::alloc_counter_enable(false);
    own_allocs = everest::support::alloc_counter_news();
    everest::support::alloc_counter_reset();
    everest::support::alloc_counter_enable(true);
  }

  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  const double period_us = 1e6 / rate;
  for (std::size_t i = 0; i < n; ++i) {
    // Tenants take turns, so every tenant sends at rate / kTenants.
    es::Request request = make_request(spec, record[i],
                                       static_cast<int>(i % kTenants));
    due_us[i] = static_cast<double>(i) * period_us;
    wait_until(t0 + std::chrono::nanoseconds(
                        static_cast<std::int64_t>(due_us[i] * 1e3)));
    const auto sent = Clock::now();
    auto future = cluster.submit(std::move(request));
    const auto done = Clock::now();
    late_us[i] = us_between(t0, sent) - due_us[i];
    admitted_us[i] = us_between(t0, done);
    if (traced) rung.submit_us[i] = us_between(sent, done);
    if (future) {
      futures[i] = std::move(*future);
    } else {
      refused[i] = 1;
    }
  }

  rung.latency_us.reserve(n);
  std::vector<double> tail, finished_us;
  finished_us.reserve(n);
  double last_finish_us = 0.0;
  std::vector<std::pair<int, es::Response>> served;  // traced: node, response
  if (traced) served.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ++rung.sent;
    if (refused[i]) {
      ++rung.errors;
      continue;
    }
    es::Response response = futures[i].get();
    if (!response.status.is_ok()) {
      ++rung.errors;
      continue;
    }
    if (response.outputs != expected[record[i]]) {
      ++rung.mismatches;
      continue;
    }
    ++rung.ok;
    const double finish_us = admitted_us[i] + response.latency_us;
    const double latency = finish_us - due_us[i];
    rung.latency_us.push_back(latency);
    if (i >= n - n / 10) tail.push_back(latency);
    last_finish_us = std::max(last_finish_us, finish_us);
    finished_us.push_back(finish_us);
    if (traced) {
      response.outputs.clear();
      served.emplace_back(node_of(response.backend), std::move(response));
    }
  }
  if (traced) {
    everest::support::alloc_counter_enable(false);
    const double allocs = static_cast<double>(
        everest::support::alloc_counter_news());
    rung.allocs_per_req =
        allocs / static_cast<double>(n) - static_cast<double>(own_allocs);
  }
  cluster.drain();

  rung.tail_p50_us = median(tail);
  rung.late_p99_us = percentile(late_us, 0.99);
  rung.late_max_us = *std::max_element(late_us.begin(), late_us.end());
  rung.late_tail_p50_us = median(
      std::vector<double>(late_us.end() - static_cast<std::ptrdiff_t>(n / 10),
                          late_us.end()));
  // Goodput: correct completions per second, the median over the rung's
  // middle windows (the first holds the ramp-up, the last the drain), so a
  // stall of the host in one window does not set the figure.
  constexpr int kWindows = 10;
  const double window_us = last_finish_us / kWindows;
  std::vector<double> per_window(kWindows, 0.0);
  for (double f : finished_us)
    per_window[std::min(kWindows - 1, static_cast<int>(f / window_us))] += 1.0;
  for (double &count : per_window) count /= window_us * 1e-6;
  rung.achieved_per_s =
      last_finish_us > 0
          ? median(std::vector<double>(per_window.begin() + 1,
                                       per_window.end() - 1))
          : 0.0;
  // A growing backlog shows as a last tenth whose median latency has
  // drifted far above the rung's median.
  const double p50 = percentile(rung.latency_us, 0.5);
  const bool backlog = rung.tail_p50_us > 4.0 * p50 + 1'000.0;
  rung.pass = rung.errors == 0 && rung.mismatches == 0 && !backlog &&
              percentile(rung.latency_us, 0.99) <= kP99LimitUs &&
              rung.late_tail_p50_us <= kLateLimitUs;

  if (traced) {
    const es::ClusterStats stats = cluster.stats();
    double busy = 0.0, completed = 0.0, batches = 0.0;
    for (const auto &node : stats.nodes) {
      busy += node.device_busy_us;
      completed += static_cast<double>(node.server.completed);
      batches += static_cast<double>(node.server.batches);
    }
    rung.device_busy_us = busy;
    rung.batch_size_mean = batches > 0 ? completed / batches : 0.0;
    rung.forwarded_ratio = stats.admitted > 0
                               ? static_cast<double>(stats.forwarded) /
                                     static_cast<double>(stats.admitted)
                               : 0.0;
    std::vector<std::map<std::uint64_t, double>> batch_span(
        static_cast<std::size_t>(cluster.nodes()));
    for (int node = 0; node < cluster.nodes(); ++node) {
      const auto &recorder = cluster.node_recorder(node);
      rung.events += static_cast<double>(recorder.event_count());
      for (const auto &event : recorder.events()) {
        if (event.category == "serve.batch") {
          const auto id = std::strtoull(event.name.c_str() + 6, nullptr, 10);
          batch_span[static_cast<std::size_t>(node)][id] = event.duration_us;
          rung.batch_exec_us.push_back(event.duration_us);
        } else if (event.category == "dfg.stage" ||
                   event.category == "dfg.fold") {
          rung.callee_us[event.name] += event.duration_us;
          rung.host_us += event.duration_us;
        }
      }
    }
    // Node latency = queue wait + the batch-<id> span it rode in.
    for (const auto &[node, response] : served) {
      if (node < 0 || node >= cluster.nodes()) {
        report.fail(spec.workload + ": response from unknown node backend '" +
                    response.backend + "'");
        continue;
      }
      const auto &spans = batch_span[static_cast<std::size_t>(node)];
      auto it = spans.find(response.batch_id);
      if (it == spans.end()) {
        report.fail(spec.workload + ": no span for batch " +
                    std::to_string(response.batch_id));
        continue;
      }
      const double wait = response.latency_us - it->second;
      // The span opens after admission and closes just after completion,
      // so the wait is >= 0 up to the gap between two clock reads; a thread
      // descheduled between them can overrun it now and then.
      if (wait < -kOverrunSlackUs) ++rung.overruns;
      rung.queue_wait_us.push_back(std::max(0.0, wait));
    }
  }
  cluster.stop();
  return rung;
}

Report run_serve(ServeSpec (*make_spec)(std::uint64_t), const Args &args) {
  Report report;
  // Set-up: the graph, registry and request pool, the reference outputs
  // (one unbatched execute_dfg per distinct record), and a started cluster.
  // Timed kSetups times back to back on a fresh heap (after a rung, the freed
  // trace and futures slow allocation-heavy work by up to 2x); the last is
  // kept.
  ServeSpec spec;
  std::vector<Outputs> expected;
  std::vector<double> setup_s;
  auto create_cluster = [&]() -> std::unique_ptr<es::Cluster> {
    auto created = es::Cluster::create(spec.graph, spec.registry,
                                       cluster_options());
    if (!created) {
      report.fail(spec.workload + ": cluster: " + created.error().message);
      return nullptr;
    }
    (*created)->start();
    return std::move(*created);
  };
  auto set_up = [&]() -> std::unique_ptr<es::Cluster> {
    const auto t0 = Clock::now();
    spec = make_spec(args.seed);
    if (!spec.graph) {
      report.fail(spec.workload + ": graph did not parse");
      return nullptr;
    }
    expected.assign(spec.pool.size(), {});
    // The reference pass runs on every core, records handed out in chunks:
    // a shared host runs its vCPUs at different speeds, and a pass on one
    // thread read whichever vCPU it landed on.
    std::atomic<std::size_t> next{0};
    std::atomic<bool> ok{true};
    std::string error;
    std::mutex error_mu;
    auto reference_pass = [&] {
      constexpr std::size_t kChunk = 64;
      for (;;) {
        const std::size_t begin = next.fetch_add(kChunk);
        if (begin >= spec.pool.size()) return;
        const std::size_t end = std::min(begin + kChunk, spec.pool.size());
        for (std::size_t i = begin; i < end; ++i) {
          auto out = er::execute_dfg(*spec.graph, *spec.registry,
                                     {{spec.input, er::Stream{spec.pool[i]}}});
          if (!out) {
            std::lock_guard<std::mutex> lock(error_mu);
            ok = false;
            error = out.error().message;
            return;
          }
          for (const auto &[name, stream] : *out)
            expected[i][name] = stream.at(0);
        }
      }
    };
    {
      const unsigned threads =
          std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
      std::vector<std::jthread> helpers;
      for (unsigned t = 1; t < threads; ++t) helpers.emplace_back(reference_pass);
      reference_pass();
    }
    if (!ok) {
      report.fail(spec.workload + ": reference: " + error);
      return nullptr;
    }
    auto cluster = create_cluster();
    setup_s.push_back(seconds_since(t0));
    return cluster;
  };

  std::unique_ptr<es::Cluster> cluster;
  for (int rep = 0; rep < kSetups; ++rep) {
    cluster.reset();
    cluster = set_up();
    if (!cluster) return report;
  }

  // Warm-up at the nominal rate (unmeasured but checked), so the first
  // measured rung does not pay for the process's first-touch page faults.
  const std::vector<double> rates = spec.rates;
  const double rung_seconds = args.seconds / static_cast<double>(rates.size());
  {
    Rung warm = run_rung(spec, expected, *cluster, rates[spec.nominal],
                         rung_seconds / 2, args.seed + 1, false, report);
    report.attempted += warm.sent;
    if (warm.mismatches > 0) report.fail(spec.workload + ": warm-up mismatch");
  }
  std::vector<Rung> rungs;
  for (std::size_t r = 0; r < rates.size(); ++r) {
    cluster.reset();  // each rung runs on a fresh cluster of its own
    cluster = create_cluster();
    if (!cluster) return report;
    rungs.push_back(run_rung(spec, expected, *cluster, rates[r], rung_seconds,
                             args.seed, args.trace && r == spec.nominal,
                             report));
  }
  cluster.reset();

  double max_rate = 0.0;
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    const Rung &rung = rungs[r];
    report.attempted += rung.sent;
    // Errors below or at the nominal rate are failures; above it they are
    // the overload the ladder looks for.
    if (rung.mismatches > 0)
      report.fail(spec.workload + ": " + std::to_string(rung.mismatches) +
                  " responses differ from unbatched execute_dfg at " +
                  fmt("%.0f", rung.rate) + " req/s");
    if (r <= spec.nominal && rung.errors > 0) {
      report.failed += rung.errors - 1;
      report.fail(spec.workload + ": " + std::to_string(rung.errors) +
                  " requests refused or failed at " + fmt("%.0f", rung.rate) +
                  " req/s");
    }
    if (rung.pass) max_rate = rung.rate;
    report.set("serve.rung" + std::to_string(r + 1) + ".p99_us",
               percentile(rung.latency_us, 0.99));
    report.note(spec.workload + " rung " + fmt("%.0f", rung.rate) +
                " req/s: sent " + std::to_string(rung.sent) + ", ok " +
                std::to_string(rung.ok) + ", errors " +
                std::to_string(rung.errors) + ", p50 " +
                fmt("%.1f", percentile(rung.latency_us, 0.5)) + " us, p99 " +
                fmt("%.1f", percentile(rung.latency_us, 0.99)) +
                " us, last-tenth p50 " + fmt("%.1f", rung.tail_p50_us) +
                " us, gen late p99/max " + fmt("%.1f", rung.late_p99_us) + "/" +
                fmt("%.1f", rung.late_max_us) + " us, achieved " +
                fmt("%.0f", rung.achieved_per_s) + "/s -> " +
                (rung.pass ? "pass" : "miss"));
  }

  const Rung &nominal = rungs[spec.nominal];
  const double p50_ms = percentile(nominal.latency_us, 0.5) / 1e3;
  report.set_setup(setup_s);
  report.set("throughput_per_s", rungs.back().achieved_per_s);
  report.set("serve.max_rate_rps", max_rate);
  report.set("latency_p50_ms", p50_ms);
  report.set("bench.traced_p99_ms", percentile(nominal.latency_us, 0.99) / 1e3);
  report.set("bench.traced_p50_ms", p50_ms);
  report.note("req_p50_us / req_p99_us = " + fmt("%.1f", p50_ms * 1e3) +
              " / " + fmt("%.1f", percentile(nominal.latency_us, 0.99)) +
              " (wall, nominal " + fmt("%.0f", nominal.rate) + " req/s, " +
              std::to_string(nominal.latency_us.size()) + " samples)");
  report.note("max_rate_rps = " + fmt("%.0f", max_rate) +
              " (wall; p99 limit " + fmt("%.0f", kP99LimitUs) +
              " us); goodput at " + fmt("%.0f", rungs.back().rate) +
              " req/s offered = " + fmt("%.0f", rungs.back().achieved_per_s) +
              "/s");

  if (args.trace) {
    const double reqs = std::max<double>(1.0, static_cast<double>(nominal.ok));
    report.set("serve.submit_us.p50", percentile(nominal.submit_us, 0.5));
    report.set("serve.submit_us.p99", percentile(nominal.submit_us, 0.99));
    report.set("serve.queue_wait_us.p50", percentile(nominal.queue_wait_us, 0.5));
    report.set("serve.queue_wait_us.p99",
               percentile(nominal.queue_wait_us, 0.99));
    report.set("serve.batch_exec_us.p50", percentile(nominal.batch_exec_us, 0.5));
    report.set("serve.batch_exec_us.p99",
               percentile(nominal.batch_exec_us, 0.99));
    report.set("serve.batch_size_mean", nominal.batch_size_mean);
    report.set("serve.forwarded_ratio", nominal.forwarded_ratio);
    report.set("runtime.host_us_per_req", nominal.host_us / reqs);
    for (const auto &[callee, us] : nominal.callee_us)
      report.set("runtime." + callee + "_us", us / reqs);
    report.set("platform.device_busy_us", nominal.device_busy_us);
    report.set("obs.events_retained", nominal.events);
    report.set("serve.gen_late_ms", nominal.late_max_us / 1e3);
    report.set("serve.allocs_per_req", nominal.allocs_per_req);
    report.note("accounting: queue wait + batch span = node latency for " +
                std::to_string(nominal.queue_wait_us.size()) +
                " requests; " + std::to_string(nominal.overruns) +
                " overran by more than " + fmt("%.0f", kOverrunSlackUs) +
                " us");
    const double joined = static_cast<double>(nominal.queue_wait_us.size());
    const std::string what = spec.workload +
                             ": batch spans outlast node latency for " +
                             std::to_string(nominal.overruns) + " requests";
    if (static_cast<double>(nominal.overruns) > kMaxOverrunShare * joined)
      report.fail(what);
    else if (static_cast<double>(nominal.overruns) > kNoteOverrunShare * joined)
      report.note("WARNING: " + what);
  }
  return report;
}

}  // namespace

Report run_serve_mapmatch(const Args &args) {
  return run_serve(mapmatch_spec, args);
}

Report run_serve_stream(const Args &args) {
  return run_serve(stream_spec, args);
}

}  // namespace evbench
