// E9 (paper §VIII): "We also implemented the PTDR kernel on a compute
// cluster with Alveo u55c FPGAs ... We also tested this component with the
// virtualization layer." Times the CPU Monte-Carlo kernel (median of a
// fixed repetition count) across sample counts, schedules the same kernel
// with the HLS engine onto the u55c model (including host transfers via the
// XRT-like API), and repeats the device run through an SR-IOV VF.

#include <chrono>
#include <cstdio>

#include "median_time.hpp"

#include "hls/scheduler.hpp"
#include "olympus/olympus.hpp"
#include "support/table.hpp"
#include "usecases/ptdr.hpp"
#include "virt/virt.hpp"

namespace pt = everest::usecases::ptdr;
namespace tr = everest::usecases::traffic;
namespace ep = everest::platform;

namespace {

struct Fixture {
  tr::RoadNetwork net = tr::make_grid_network(10, 1.0, 3);
  pt::Model model = pt::make_model(net, 4);
  pt::Route route = pt::make_route(net, 20, 7);
};

Fixture &fixture() {
  static Fixture f;
  return f;
}

/// Wall-clock of one CPU run, for the comparison table.
double cpu_ms(std::size_t samples) {
  auto &f = fixture();
  auto start = std::chrono::steady_clock::now();
  auto dist = pt::monte_carlo(f.model, f.route, 40, samples, 9);
  auto stop = std::chrono::steady_clock::now();
  (void)dist;
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

}  // namespace

int main() {
  std::printf("== E9: PTDR on Alveo u55c (simulated) vs CPU ==\n\n");
  auto &f = fixture();

  everest::support::Table table({"samples", "CPU [ms]", "u55c kernel [ms]",
                                 "u55c end-to-end [ms]", "VF (SR-IOV) [ms]",
                                 "speedup e2e"});
  for (std::size_t samples : {1000u, 10000u, 100000u, 1000000u}) {
    double cpu = cpu_ms(samples);

    auto loops = pt::sampling_kernel_ir(samples, f.route.segments.size());
    auto report = everest::hls::schedule_kernel(*loops);
    if (!report) {
      std::fprintf(stderr, "hls failed: %s\n", report.error().message.c_str());
      return 1;
    }
    double kernel_ms = report->latency_us(true) / 1000.0;

    // End to end through the XRT-like runtime, native and through a VF.
    everest::olympus::SystemGenerator gen(ep::alveo_u55c());
    everest::olympus::Options options;
    options.replicas = 4;  // PTDR replicates trivially over samples

    ep::Device native(ep::alveo_u55c());
    auto native_us = gen.execute_on(native, *report, options);

    everest::virt::VirtNode node("phys0", 32, {ep::alveo_u55c()}, 4);
    auto vm = node.create_vm("guest", 8).value();
    auto vf = node.attach_vf(vm, 0).value();
    auto *vf_dev = node.vm_device(vm, vf).value();
    auto vf_us = gen.execute_on(*vf_dev, *report, options);

    if (!native_us || !vf_us) {
      std::fprintf(stderr, "device run failed\n");
      return 1;
    }
    char c[32], k[32], e[32], v[32], s[32];
    std::snprintf(c, sizeof c, "%.2f", cpu);
    std::snprintf(k, sizeof k, "%.2f", kernel_ms);
    std::snprintf(e, sizeof e, "%.2f", *native_us / 1000.0);
    std::snprintf(v, sizeof v, "%.2f", *vf_us / 1000.0);
    std::snprintf(s, sizeof s, "%.1fx", cpu / (*native_us / 1000.0));
    table.add_row({std::to_string(samples), c, k, e, v, s});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("shape: FPGA advantage grows with samples (pipelined II=small\n"
              "inner loop vs serial CPU); the SR-IOV column tracks native\n"
              "within a few percent (virtualization layer claim).\n\n");

  everest::support::Table timing({"case", "median [ms]", "items/s"});
  for (std::size_t samples : {1000u, 10000u, 100000u}) {
    double ms = everest::bench::median_ms(
        [&] { pt::monte_carlo(f.model, f.route, 40, samples, 9); });
    char m[32], rate[32];
    std::snprintf(m, sizeof m, "%.3f", ms);
    std::snprintf(rate, sizeof rate, "%.0f", samples / (ms / 1000.0));
    timing.add_row({"PtdrCpu/" + std::to_string(samples), m, rate});
  }
  std::printf("%s\n", timing.render().c_str());
  return 0;
}
