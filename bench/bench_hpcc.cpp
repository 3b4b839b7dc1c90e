// HPCC-FPGA workload suite (arXiv:2004.11059 adapted to the EVEREST stack):
// STREAM, GEMM, PTRANS, FFT, RandomAccess, LINPACK, b_eff. Each workload
// compiles through the full Basecamp pipeline, validates the compiled
// loop-level IR against a scalar host reference (error < epsilon), and
// reports measured-vs-roofline ratios against the device model's published
// HBM / DMA / network bandwidths. Emits one BENCH_hpcc.json of bench
// records (bench_record.hpp); the gate table decides the exit code.

#include <cstdio>
#include <string>
#include <utility>

#include "bench_record.hpp"
#include "hpcc/workloads.hpp"
#include "sdk/options.hpp"
#include "support/table.hpp"

namespace hpcc = everest::hpcc;
using everest::bench::Clock;

namespace {

/// Unit and clock of a per-benchmark detail value, from its key's suffix:
/// every HPCC time and rate is read off the simulated device timeline.
std::pair<const char *, Clock> detail_unit(const std::string &key) {
  if (key.ends_with("_us")) return {"us", Clock::Sim};
  if (key.ends_with("_gbps")) return {"GB/s", Clock::Sim};
  if (key.ends_with("_gflops")) return {"GFLOP/s", Clock::Sim};
  if (key.ends_with("_bytes")) return {"B", Clock::None};
  return {"1", Clock::None};
}

}  // namespace

int main(int argc, char **argv) {
  auto config = hpcc::parse_hpcc_args(argc, argv);
  if (!config) {
    std::fprintf(stderr, "%s\n", config.error().message.c_str());
    return 2;
  }

  std::printf("== HPCC-FPGA workload suite (n=%lld, target=%s) ==\n\n",
              static_cast<long long>(config->n), config->target.c_str());

  hpcc::HpccHarness harness(*config);
  auto results = hpcc::run_suite(harness);
  if (!results) {
    std::fprintf(stderr, "suite failed: %s\n",
                 results.error().message.c_str());
    return 1;
  }

  everest::support::Table table(
      {"benchmark", "axis", "measured", "unit", "roofline", "ratio", "error",
       "ok"});
  for (const auto &r : *results) {
    char measured[32], roofline[32], ratio[32], error[32];
    std::snprintf(measured, sizeof measured, "%.4g", r.measured);
    std::snprintf(roofline, sizeof roofline, "%.4g", r.roofline);
    std::snprintf(ratio, sizeof ratio, "%.3f", r.ratio);
    std::snprintf(error, sizeof error, "%.2e", r.error);
    table.add_row({r.name, r.axis, measured, r.unit, roofline, ratio, error,
                   r.validated ? "yes" : "NO"});
  }
  std::printf("%s\n", table.render().c_str());

  auto device = everest::sdk::resolve_target(config->target);
  if (!device) {
    std::fprintf(stderr, "unknown target: %s\n",
                 device.error().message.c_str());
    return 1;
  }
  everest::bench::BenchReport report;
  report.in("hpcc", "config", "hpcc")
      .add("n", "count", Clock::None, static_cast<double>(config->n))
      .add("replications", "count", Clock::None, config->replications)
      .add("seed", "1", Clock::None, static_cast<double>(config->seed))
      .add("replicas", "count", Clock::None, config->replicas)
      .add("tile_bytes", "B", Clock::None,
           static_cast<double>(config->tile_bytes))
      .add("beff_world", "count", Clock::None, config->beff_world);
  report.in("hpcc", "device", "platform")
      .add("peak_memory_gbps", "GB/s", Clock::None,
           hpcc::peak_memory_gbps(*device))
      .add("peak_link_gbps", "GB/s", Clock::None, hpcc::peak_link_gbps(*device))
      .add("network_peak_gbps", "GB/s", Clock::None,
           hpcc::network_peak_gbps(everest::platform::NetworkSpec{}));
  for (const auto &r : *results) {
    auto row = report.in("hpcc", r.name, "hpcc");
    row.add("measured", r.unit, Clock::Sim, r.measured)
        .add("roofline", r.unit, Clock::None, r.roofline)
        .add("ratio", "ratio", Clock::Sim, r.ratio)
        .add("error", "rel", Clock::None, r.error)
        .add("epsilon", "rel", Clock::None, r.epsilon)
        .add("error_over_epsilon", "ratio", Clock::None, r.error / r.epsilon)
        .add("validated", "bool", Clock::None, r.validated)
        .add("bytes", "B", Clock::None, r.bytes)
        .add("flops", "flop", Clock::None, r.flops);
    for (const auto &[key, value] : r.extra.fields()) {
      if (!value.is_number()) continue;
      auto [unit, clock] = detail_unit(key);
      row.add(key, unit, clock, value.as_number());
    }
    report.in("hpcc", r.name, "platform")
        .add("device_us", "us", Clock::Sim, r.device_us);
  }
  return report.finish(config->out);
}
