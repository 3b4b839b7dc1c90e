// The `basecamp` command-line tool (paper §IV: "All tools within the SDK are
// wrapped under the basecamp command, which provides a single point of
// access to the users of the SDK").
//
//   basecamp targets                       list target platforms
//   basecamp dialects                      list registered dialects & ops
//   basecamp serve [options]               multi-tenant request serving demo
//     --requests <file>      request lines: "<tenant> <v1> [v2 ...]"
//                            ('#' starts a comment); default is a synthetic
//                            workload of --tenants x --requests-per-tenant
//     --tenants=<n>          synthetic workload tenant count (default 2)
//     --requests-per-tenant=<k>  synthetic requests per tenant (default 32)
//     --max-batch=<b>        dynamic batcher upper bound (default 8)
//     --max-wait-us=<x>      batch hold time for the oldest request
//     --dispatchers=<n>      batch-forming/executing threads (default 2)
//     --rate=<r> --burst=<b> per-tenant token-bucket admission limit
//     --queue-bound=<q>      per-tenant queue bound (shed with Unavailable)
//     --device               front the host path with a simulated Alveo
//                            backend (one kernel launch per batch; faults
//                            fail over to the host-CPU backend)
//     --fault-seed/--fault-plan  deterministic device fault injection
//     --trace-out <file>     Chrome trace with serve.* metrics and batch
//                            spans; also prints the summary table
//   basecamp compile <file.ekl>... [options]  compile EKL kernels
//     --target=<name>        alveo-u55c | alveo-u280 | cloudfpga
//     --format=<spec>        f64 | f32 | fixed<T,F> | float<E,M> | posit<N,ES>
//     --replicas=<n>         Olympus kernel replication
//     --extent NAME=N        bind an iteration-index extent (repeatable)
//     --emit=<stage>         frontend | teil | loops | system (print IR)
//     --jobs=<n>             compile the input kernels across n threads; the
//                            reports are printed in input order and identical
//                            to a serial (--jobs=1) run
//     --cache-dir=<dir>      content-addressed compile cache: repeat compiles
//                            of unchanged kernels reuse the stored HLS
//                            schedule and Olympus system
//     --run                  deploy on the target device model
//     --fault-seed=<n>       enable deterministic fault injection on the
//                            device run; the same seed reproduces the same
//                            faults (and the same trace) bit-for-bit
//     --fault-plan=<spec>    fault rates, e.g. transfer=0.2,timeout=0.1,
//                            alloc=0.05,timeout-mult=8 (see
//                            platform/fault_injector.hpp for all keys)
//     --retry=<n>            attempt budget for transient device faults
//                            (exponential backoff with deterministic jitter)
//     --deadline-us=<x>      fail (and retry) device runs that exceed x us
//     --trace-out <file>     write a Chrome trace_event JSON of the compile
//                            (and device run) — open in chrome://tracing or
//                            https://ui.perfetto.dev; also prints the span
//                            summary table
//
// EKL inputs are bound to deterministic synthetic tensors sized from the
// declared extents, so any kernel compiles without external data.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <future>

#include "dialects/ekl.hpp"
#include "frontend/condrust_parser.hpp"
#include "frontend/ekl_parser.hpp"
#include "hls/scheduler.hpp"
#include "obs/export.hpp"
#include "platform/fault_injector.hpp"
#include "platform/xrt.hpp"
#include "resil/policy.hpp"
#include "runtime/dfg_executor.hpp"
#include "sdk/basecamp.hpp"
#include "serve/server.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace {

using everest::sdk::Basecamp;
using everest::sdk::CompileOptions;

int cmd_targets(Basecamp &basecamp) {
  for (const char *name : {"alveo-u55c", "alveo-u280", "cloudfpga"}) {
    auto spec = basecamp.device_by_name(name);
    if (!spec) continue;
    std::printf("%-12s %6.1f MHz  %8lld LUT %5lld DSP %5lld BRAM  link %s\n",
                name, spec->clock_mhz,
                static_cast<long long>(spec->capacity.luts),
                static_cast<long long>(spec->capacity.dsps),
                static_cast<long long>(spec->capacity.brams),
                spec->link.kind == everest::platform::LinkSpec::Kind::Pcie
                    ? "PCIe"
                    : "10G network");
  }
  return 0;
}

int cmd_dialects(Basecamp &basecamp) {
  for (const auto &name : basecamp.context().dialect_names()) {
    const auto *dialect = basecamp.context().find_dialect(name);
    std::printf("%s:", name.c_str());
    for (const auto &[op, def] : dialect->ops()) std::printf(" %s", op.c_str());
    std::printf("\n");
  }
  return 0;
}

/// Derives input bindings from the parsed kernel: every iteration index gets
/// an extent (from --extent or a default of 8) and every input a random
/// tensor of the implied shape.
everest::transforms::EklBindings synthesize_bindings(
    const everest::ir::Module &module,
    const std::map<std::string, std::int64_t> &extents) {
  everest::transforms::EklBindings bindings;
  everest::support::Pcg32 rng(42);
  const everest::ir::Operation *kernel = nullptr;
  for (const everest::ir::Operation &op : module.body().operations()) {
    if (op.name() == "ekl.kernel") {
      kernel = &op;
      break;
    }
  }
  if (!kernel) return bindings;

  auto extent_of = [&](const std::string &idx) -> std::int64_t {
    auto it = extents.find(idx);
    return it == extents.end() ? 8 : it->second;
  };

  for (const everest::ir::Operation &op : kernel->region(0).front().operations()) {
    if (op.name() == "ekl.input") {
      auto indices = op.attr("indices")->as_string_vector();
      everest::numerics::Shape shape;
      for (const auto &idx : indices) shape.push_back(extent_of(idx));
      everest::numerics::Tensor t(shape);
      for (auto &v : t.data()) v = rng.uniform();
      bindings.inputs.emplace(op.attr_string("name"), std::move(t));
    }
  }
  for (const auto &[name, value] : extents) bindings.extents[name] = value;
  return bindings;
}

// ---------------------------------------------------------------- serve

/// The built-in serving graph: a two-stage stateless pipeline, so batches
/// are provably byte-identical to unbatched runs (checked below).
constexpr const char *kServeGraph = R"(
fn serve_pipe(xs: Stream<f64>) -> Stream<f64> {
    let scaled = mul2(xs);
    let biased = add1(scaled);
    return biased;
}
)";

std::shared_ptr<everest::runtime::NodeRegistry> serve_registry() {
  auto registry = std::make_shared<everest::runtime::NodeRegistry>();
  registry->register_node(
      "mul2", [](const std::vector<const everest::runtime::Record *> &in) {
        everest::runtime::Record out = *in.at(0);
        for (double &v : out) v *= 2.0;
        return out;
      });
  registry->register_node(
      "add1", [](const std::vector<const everest::runtime::Record *> &in) {
        everest::runtime::Record out = *in.at(0);
        for (double &v : out) v += 1.0;
        return out;
      });
  return registry;
}

int cmd_serve(Basecamp &basecamp, int argc, char **argv) {
  namespace es = everest::serve;
  std::string requests_file;
  std::string trace_out;
  std::string fault_plan_spec;
  std::uint64_t fault_seed = 0;
  bool fault_inject = false;
  bool use_device = false;
  int tenants = 2;
  int per_tenant = 32;
  es::ServerOptions options;
  options.batch.max_batch = 8;
  options.batch.max_wait_us = 200.0;
  options.dispatchers = 2;
  double rate = 0.0, burst = 8.0;
  std::size_t queue_bound = 0;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--requests" && i + 1 < argc)
      requests_file = argv[++i];
    else if (everest::support::starts_with(arg, "--requests="))
      requests_file = arg.substr(11);
    else if (everest::support::starts_with(arg, "--tenants="))
      tenants = std::atoi(arg.c_str() + 10);
    else if (everest::support::starts_with(arg, "--requests-per-tenant="))
      per_tenant = std::atoi(arg.c_str() + 22);
    else if (everest::support::starts_with(arg, "--max-batch="))
      options.batch.max_batch =
          static_cast<std::size_t>(std::atoi(arg.c_str() + 12));
    else if (everest::support::starts_with(arg, "--max-wait-us="))
      options.batch.max_wait_us = std::strtod(arg.c_str() + 14, nullptr);
    else if (everest::support::starts_with(arg, "--dispatchers="))
      options.dispatchers = std::atoi(arg.c_str() + 14);
    else if (everest::support::starts_with(arg, "--rate="))
      rate = std::strtod(arg.c_str() + 7, nullptr);
    else if (everest::support::starts_with(arg, "--burst="))
      burst = std::strtod(arg.c_str() + 8, nullptr);
    else if (everest::support::starts_with(arg, "--queue-bound="))
      queue_bound = static_cast<std::size_t>(std::atoi(arg.c_str() + 14));
    else if (arg == "--device")
      use_device = true;
    else if (everest::support::starts_with(arg, "--fault-seed=")) {
      fault_seed = std::strtoull(arg.c_str() + 13, nullptr, 10);
      fault_inject = true;
      use_device = true;
    } else if (everest::support::starts_with(arg, "--fault-plan=")) {
      fault_plan_spec = arg.substr(13);
      fault_inject = true;
      use_device = true;
    } else if (everest::support::starts_with(arg, "--trace-out="))
      trace_out = arg.substr(12);
    else if (arg == "--trace-out" && i + 1 < argc)
      trace_out = argv[++i];
    else {
      std::fprintf(stderr, "basecamp serve: unknown option '%s'\n",
                   arg.c_str());
      return 2;
    }
  }

  // Workload: either from the request file or a synthetic multi-tenant mix.
  std::vector<es::Request> workload;
  if (!requests_file.empty()) {
    std::ifstream file(requests_file);
    if (!file) {
      std::fprintf(stderr, "basecamp serve: cannot open '%s'\n",
                   requests_file.c_str());
      return 2;
    }
    std::string line;
    while (std::getline(file, line)) {
      auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      std::istringstream in(line);
      es::Request req;
      if (!(in >> req.tenant)) continue;
      everest::runtime::Record record;
      double v;
      while (in >> v) record.push_back(v);
      if (record.empty()) {
        std::fprintf(stderr, "basecamp serve: request line without values: %s\n",
                     line.c_str());
        return 2;
      }
      req.inputs["xs"] = std::move(record);
      workload.push_back(std::move(req));
    }
  } else {
    for (int t = 0; t < tenants; ++t) {
      for (int k = 0; k < per_tenant; ++k) {
        es::Request req;
        req.tenant = "tenant-" + std::string(1, static_cast<char>('a' + t % 26));
        if (t >= 26) req.tenant += std::to_string(t);
        req.inputs["xs"] = {static_cast<double>(t), static_cast<double>(k),
                            static_cast<double>(t * 100 + k)};
        workload.push_back(std::move(req));
      }
    }
  }
  if (workload.empty()) {
    std::fprintf(stderr, "basecamp serve: empty workload\n");
    return 2;
  }
  for (const auto &req : workload) {
    es::TenantConfig config;
    config.rate_per_s = rate;
    config.burst = burst;
    config.queue_bound = queue_bound;
    options.tenants.emplace(req.tenant, config);
  }

  auto graph = everest::frontend::parse_condrust(kServeGraph);
  if (!graph) {
    std::fprintf(stderr, "basecamp serve: [%s] %s\n", graph.error().code_name(),
                 graph.error().message.c_str());
    return 1;
  }
  auto registry = serve_registry();

  // Optional FPGA front-end backend on a simulated Alveo card.
  std::unique_ptr<everest::platform::Device> device;
  std::unique_ptr<everest::platform::FaultInjector> injector;
  double launch_deadline_us = -1.0;
  if (use_device) {
    auto spec = basecamp.device_by_name("alveo-u55c");
    if (!spec) {
      std::fprintf(stderr, "basecamp serve: %s\n",
                   spec.error().message.c_str());
      return 1;
    }
    device = std::make_unique<everest::platform::Device>(*spec);
    device->attach_recorder(&basecamp.recorder());
    everest::hls::KernelReport kernel;
    kernel.name = "serve_pipe";
    kernel.area = {20'000, 20'000, 16, 16};
    kernel.total_cycles = 3'000;
    kernel.dataflow_cycles = 2'000;
    if (auto s = device->load_kernel("serve_pipe", kernel); !s.is_ok()) {
      std::fprintf(stderr, "basecamp serve: %s\n", s.error().message.c_str());
      return 1;
    }
    // Launch watchdog: twice the clean dataflow latency on the card clock,
    // so a hung kernel is abandoned and retried or failed over.
    launch_deadline_us = 2.0 * static_cast<double>(kernel.dataflow_cycles) /
                         spec->clock_mhz;
    if (fault_inject) {
      auto plan = fault_plan_spec.empty()
                      ? everest::platform::parse_fault_plan(
                            "timeout=0.3,timeout-mult=8")
                      : everest::platform::parse_fault_plan(fault_plan_spec);
      if (!plan) {
        std::fprintf(stderr, "basecamp serve: [%s] %s\n",
                     plan.error().code_name(), plan.error().message.c_str());
        return 2;
      }
      injector = std::make_unique<everest::platform::FaultInjector>(fault_seed,
                                                                    *plan);
      injector->attach_recorder(&basecamp.recorder());
      device->attach_fault_injector(injector.get());
    }
  }

  auto server = es::make_server(*graph, registry, &basecamp.recorder(), options,
                                device.get(), "serve_pipe", launch_deadline_us);
  if (!server) {
    std::fprintf(stderr, "basecamp serve: [%s] %s\n",
                 server.error().code_name(), server.error().message.c_str());
    return 1;
  }
  (*server)->start();

  std::vector<std::pair<std::size_t, std::future<es::Response>>> futures;
  std::size_t admission_shed = 0;
  for (std::size_t i = 0; i < workload.size(); ++i) {
    auto submitted = (*server)->submit(workload[i]);
    if (!submitted) {
      ++admission_shed;
      continue;
    }
    futures.emplace_back(i, std::move(*submitted));
  }
  (*server)->drain();

  // Byte-identity check: every served output must equal a fresh unbatched
  // single-request execution (stateless stages guarantee it; this is the
  // acceptance gate that batching never changes results).
  std::size_t completed = 0, failed = 0, mismatches = 0;
  for (auto &[index, future] : futures) {
    es::Response response = future.get();
    if (!response.status.is_ok()) {
      ++failed;
      continue;
    }
    ++completed;
    std::map<std::string, everest::runtime::Stream> single;
    single["xs"] = {workload[index].inputs.at("xs")};
    auto direct = everest::runtime::execute_dfg(**graph, *registry, single,
                                                {.workers = 1});
    if (!direct) {
      ++mismatches;
      continue;
    }
    for (const auto &[name, stream] : *direct) {
      auto it = response.outputs.find(name);
      if (it == response.outputs.end() || stream.size() != 1 ||
          it->second != stream[0]) {
        ++mismatches;
      }
    }
  }
  (*server)->stop();

  auto stats = (*server)->stats();
  std::printf("serve: %zu requests, %lld batches (mean batch %.2f, max %g), "
              "%zu completed, %zu failed, %zu shed at admission\n",
              workload.size(), static_cast<long long>(stats.batches),
              stats.batch_size.mean, stats.batch_size.max, completed,
              failed, admission_shed + static_cast<std::size_t>(
                                           stats.shed_deadline));
  if (stats.failovers > 0 || stats.breaker_rejections > 0) {
    std::printf("serve: %lld batches failed over, %lld breaker rejections\n",
                static_cast<long long>(stats.failovers),
                static_cast<long long>(stats.breaker_rejections));
  }
  for (const auto &[tenant, t] : stats.tenants) {
    std::printf("  %-12s completed %-5lld shed %-5lld latency p50 %.1f us  "
                "p95 %.1f us  p99 %.1f us\n",
                tenant.c_str(), static_cast<long long>(t.completed),
                static_cast<long long>(t.shed), t.latency_us.p50,
                t.latency_us.p95, t.latency_us.p99);
  }
  if (injector && injector->injected_total() > 0) {
    std::printf("injected faults (seed %llu):",
                static_cast<unsigned long long>(fault_seed));
    for (const auto &[kind, count] : injector->injected_counts())
      std::printf(" %s=%lld", kind.c_str(), static_cast<long long>(count));
    const std::int64_t retries =
        basecamp.recorder().counter("resil.retry.attempts").value();
    if (stats.failovers > 0 || retries > 0)
      std::printf("  -- recovered via retry/failover");
    std::printf("\n");
  }

  if (!trace_out.empty()) {
    if (auto s =
            everest::obs::write_chrome_trace(basecamp.recorder(), trace_out);
        !s.is_ok()) {
      std::fprintf(stderr, "basecamp serve: [%s] %s\n", s.error().code_name(),
                   s.error().message.c_str());
      return 1;
    }
    std::printf("\n%s\n",
                everest::obs::summary_table(basecamp.recorder()).c_str());
    std::printf("trace: wrote %zu events to %s (open in chrome://tracing)\n",
                basecamp.recorder().event_count(), trace_out.c_str());
  }

  if (mismatches > 0) {
    std::fprintf(stderr,
                 "basecamp serve: %zu responses differ from unbatched "
                 "execution — batching identity violated\n",
                 mismatches);
    return 1;
  }
  if (completed == 0) {
    std::fprintf(stderr, "basecamp serve: no request completed\n");
    return 1;
  }
  return 0;
}

int cmd_compile(Basecamp &basecamp, int argc, char **argv) {
  CompileOptions options;
  std::map<std::string, std::int64_t> extents;
  std::vector<std::string> files;
  std::string emit;
  std::string trace_out;
  std::string cache_dir;
  std::string fault_plan_spec;
  std::uint64_t fault_seed = 0;
  bool fault_inject = false;
  everest::resil::ExecutionPolicy policy;
  int jobs = 1;
  bool run = false;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (everest::support::starts_with(arg, "--target="))
      options.target = arg.substr(9);
    else if (everest::support::starts_with(arg, "--format="))
      options.number_format = arg.substr(9);
    else if (everest::support::starts_with(arg, "--replicas="))
      options.olympus.replicas = std::atoi(arg.c_str() + 11);
    else if (everest::support::starts_with(arg, "--emit="))
      emit = arg.substr(7);
    else if (everest::support::starts_with(arg, "--jobs="))
      jobs = std::atoi(arg.c_str() + 7);
    else if (everest::support::starts_with(arg, "--cache-dir="))
      cache_dir = arg.substr(12);
    else if (arg == "--run")
      run = true;
    else if (everest::support::starts_with(arg, "--fault-seed=")) {
      fault_seed = std::strtoull(arg.c_str() + 13, nullptr, 10);
      fault_inject = true;
    } else if (everest::support::starts_with(arg, "--fault-plan=")) {
      fault_plan_spec = arg.substr(13);
      fault_inject = true;
    } else if (everest::support::starts_with(arg, "--retry="))
      policy.retry.max_attempts = std::atoi(arg.c_str() + 8);
    else if (everest::support::starts_with(arg, "--deadline-us="))
      policy.deadline.deadline_us = std::strtod(arg.c_str() + 14, nullptr);
    else if (everest::support::starts_with(arg, "--trace-out="))
      trace_out = arg.substr(12);
    else if (arg == "--trace-out" && i + 1 < argc)
      trace_out = argv[++i];
    else if (arg == "--extent" && i + 1 < argc) {
      auto kv = everest::support::split(argv[++i], '=');
      if (kv.size() == 2)
        extents[kv[0]] = std::strtoll(kv[1].c_str(), nullptr, 10);
    } else if (!everest::support::starts_with(arg, "--")) {
      files.push_back(arg);
    } else {
      std::fprintf(stderr, "basecamp: unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "basecamp compile: missing input file\n");
    return 2;
  }

  everest::sdk::CompileCache cache(cache_dir);
  if (!cache_dir.empty()) basecamp.attach_cache(&cache);

  std::vector<everest::sdk::CompileJob> batch;
  for (const auto &path : files) {
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "basecamp: cannot open '%s'\n", path.c_str());
      return 2;
    }
    std::stringstream source;
    source << file.rdbuf();

    // Parse once to learn the inputs, then compile with synthetic bindings.
    auto probe = everest::frontend::parse_ekl(source.str());
    if (!probe) {
      std::fprintf(stderr, "basecamp: %s: [%s] %s\n", path.c_str(),
                   probe.error().code_name(), probe.error().message.c_str());
      return 1;
    }
    everest::sdk::CompileJob job;
    job.name = path;
    job.source = source.str();
    job.bindings = synthesize_bindings(**probe, extents);
    job.options = options;
    batch.push_back(std::move(job));
  }

  auto results = basecamp.compile_many(batch, jobs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i]) continue;
    std::fprintf(stderr, "basecamp: [%s] %s\n", results[i].error().code_name(),
                 results[i].error().message.c_str());
    return 1;
  }

  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto &result = *results[i];
    if (results.size() > 1) std::printf("== %s ==\n", batch[i].name.c_str());

    if (emit == "frontend") std::printf("%s", result.frontend_ir->str().c_str());
    else if (emit == "teil") std::printf("%s", result.teil_ir->str().c_str());
    else if (emit == "loops") std::printf("%s", result.loop_ir->str().c_str());
    else if (emit == "system") std::printf("%s", result.system_ir->str().c_str());

    std::printf("%s", everest::hls::render_report(result.kernel).c_str());
    std::printf("olympus: total %.1f us (compute %.1f, memory %.1f), "
                "utilization %.1f%%, %s\n",
                result.estimate.total_us, result.estimate.compute_us,
                result.estimate.memory_us, result.estimate.utilization * 100.0,
                result.estimate.fits ? "fits" : "DOES NOT FIT");

    if (run) {
      everest::platform::Device device(result.device);
      // Device DMA/kernel spans land in the same trace as the compile stages.
      device.attach_recorder(&basecamp.recorder());
      std::unique_ptr<everest::platform::FaultInjector> injector;
      if (fault_inject) {
        auto plan = fault_plan_spec.empty()
                        ? everest::platform::parse_fault_plan(
                              "transfer=0.2,timeout=0.2,alloc=0.1")
                        : everest::platform::parse_fault_plan(fault_plan_spec);
        if (!plan) {
          std::fprintf(stderr, "basecamp: [%s] %s\n", plan.error().code_name(),
                       plan.error().message.c_str());
          return 2;
        }
        injector = std::make_unique<everest::platform::FaultInjector>(
            fault_seed, *plan);
        injector->attach_recorder(&basecamp.recorder());
        device.attach_fault_injector(injector.get());
      }
      auto us = basecamp.deploy_and_run(device, result, policy);
      if (!us) {
        std::fprintf(stderr, "basecamp: [%s] %s\n", us.error().code_name(),
                     us.error().message.c_str());
        return 1;
      }
      std::printf("device run on %s: %.1f us end-to-end\n",
                  result.device.name.c_str(), *us);
      if (injector && injector->injected_total() > 0) {
        std::printf("injected faults (seed %llu):",
                    static_cast<unsigned long long>(fault_seed));
        for (const auto &[kind, count] : injector->injected_counts())
          std::printf(" %s=%lld", kind.c_str(),
                      static_cast<long long>(count));
        std::printf("  -- recovered via retry/backoff\n");
      }
    }
  }

  if (!cache_dir.empty())
    std::printf("cache: %lld hits, %lld misses (%s)\n",
                static_cast<long long>(cache.hits()),
                static_cast<long long>(cache.misses()), cache_dir.c_str());

  if (!trace_out.empty()) {
    if (auto s = everest::obs::write_chrome_trace(basecamp.recorder(),
                                                  trace_out);
        !s.is_ok()) {
      std::fprintf(stderr, "basecamp: [%s] %s\n", s.error().code_name(),
                   s.error().message.c_str());
      return 1;
    }
    std::printf("\n%s\n", everest::obs::summary_table(basecamp.recorder())
                              .c_str());
    std::printf("trace: wrote %zu events to %s (open in chrome://tracing)\n",
                basecamp.recorder().event_count(), trace_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: basecamp <targets|dialects|compile|serve> [args...]\n");
    return 2;
  }
  Basecamp basecamp;
  std::string cmd = argv[1];
  if (cmd == "targets") return cmd_targets(basecamp);
  if (cmd == "dialects") return cmd_dialects(basecamp);
  if (cmd == "compile") return cmd_compile(basecamp, argc - 2, argv + 2);
  if (cmd == "serve") return cmd_serve(basecamp, argc - 2, argv + 2);
  std::fprintf(stderr, "basecamp: unknown command '%s'\n", cmd.c_str());
  return 2;
}
