#include "olympus/olympus.hpp"

#include <algorithm>
#include <cmath>

#include "ir/builder.hpp"

namespace everest::olympus {

namespace {

using ir::Attribute;
using ir::Operation;
using ir::Type;
using ir::Value;
using support::Error;
using support::Expected;

}  // namespace

Expected<SystemEstimate> SystemGenerator::estimate(
    const hls::KernelReport &kernel, const Options &options) const {
  if (options.replicas < 1)
    return Error::invalid_argument("olympus: replicas must be >= 1");
  if (device_.memory.hbm_channels <= 0 && device_.memory.ddr_gbps <= 0.0)
    return Error::unsupported("olympus: device has no external memory model");

  SystemEstimate est;
  est.replicas = options.replicas;

  // --- Compute side: replicas split the iteration space evenly.
  double kernel_cycles = static_cast<double>(options.dataflow_pipelining
                                                 ? kernel.dataflow_cycles
                                                 : kernel.total_cycles);
  est.compute_us = kernel_cycles / options.replicas / device_.clock_mhz;

  // --- Memory side: lanes. Each replica gets a disjoint slice of the HBM
  // pseudo-channels; leftover replicas share (contention handles it).
  std::int64_t traffic = kernel.input_bytes + kernel.output_bytes;
  est.packing_efficiency =
      options.pack_data
          ? platform::packed_packing_efficiency(options.element_bits,
                                                options.bus_bits)
          : platform::naive_packing_efficiency(options.element_bits,
                                               options.bus_bits);

  if (device_.memory.hbm_channels > 0) {
    int channels = device_.memory.hbm_channels;
    est.channels_per_replica = std::max(1, channels / options.replicas);
    std::vector<platform::MemoryStream> streams;
    for (int r = 0; r < options.replicas; ++r) {
      platform::MemoryStream s;
      s.bytes = traffic / options.replicas;
      s.packing_efficiency = est.packing_efficiency;
      int base = (r * est.channels_per_replica) % channels;
      for (int c = 0; c < est.channels_per_replica; ++c)
        s.channels.push_back((base + c) % channels);
      streams.push_back(std::move(s));
    }
    est.memory_us =
        platform::contention_time_seconds(streams, device_.memory) * 1e6;
  } else {
    double wire_bytes =
        static_cast<double>(traffic) / std::max(est.packing_efficiency, 1e-9);
    est.memory_us = wire_bytes / (device_.memory.ddr_gbps * 1e9) * 1e6;
  }
  if (est.memory_us > 0.0)
    est.effective_bandwidth_gbps =
        static_cast<double>(traffic) / (est.memory_us * 1e-6) / 1e9;

  // --- Composition: double buffering + dataflow overlap memory with compute;
  // otherwise the phases serialize per tile.
  est.tiles = std::max<std::int64_t>(
      1, (kernel.input_bytes + options.plm_tile_bytes - 1) /
             options.plm_tile_bytes);
  if (options.double_buffering && options.dataflow_pipelining) {
    double fill = est.tiles > 0 ? est.memory_us / static_cast<double>(est.tiles)
                                : 0.0;
    est.total_us = std::max(est.compute_us, est.memory_us) + fill;
  } else if (options.double_buffering) {
    // Transfers overlap each other but compute waits per tile boundary.
    est.total_us = std::max(est.compute_us, est.memory_us) +
                   est.memory_us / std::max<double>(1.0, static_cast<double>(est.tiles));
  } else {
    est.total_us = est.compute_us + est.memory_us;
  }

  // --- Area: replicated datapaths + PLMs (double buffering doubles them).
  est.area = kernel.area * options.replicas;
  std::int64_t plm_bytes = options.plm_tile_bytes *
                           (options.double_buffering ? 2 : 1);
  est.area.brams += hls::brams_for_bytes(plm_bytes) * options.replicas;
  est.fits = platform::fits(est.area, device_.capacity);
  est.utilization = platform::utilization(est.area, device_.capacity);
  return est;
}

Expected<std::shared_ptr<ir::Module>> SystemGenerator::generate_ir(
    const hls::KernelReport &kernel, const Options &options) const {
  auto est = estimate(kernel, options);
  if (!est) return est.error();

  auto module = std::make_shared<ir::Module>();
  Operation *system =
      Operation::create(module->arena(), ir::Symbol("olympus.system"), {}, {},
                        {{"sym_name", Attribute(kernel.name + "_system")},
                         {"platform", Attribute(device_.name)}},
                        1);
  ir::Block &body = system->region(0).add_block();
  module->body().attach(system);
  ir::OpBuilder b(&body);

  Value *hbm = b.create_value(
      "olympus.memory", {}, Type::custom("olympus", "memory"),
      {{"kind", Attribute(device_.memory.hbm_channels > 0 ? "hbm" : "ddr")},
       {"channels", Attribute(std::int64_t{device_.memory.hbm_channels})}});

  Value *bus = b.create_value(
      "olympus.bus", {}, Type::custom("olympus", "bus"),
      {{"width_bits", Attribute(std::int64_t{options.bus_bits})},
       {"lanes", Attribute(std::int64_t{options.replicas})},
       {"packed", Attribute(options.pack_data)}});
  b.create("olympus.bind", {bus, hbm}, {},
           {{"port", Attribute("mem")}, {"direction", Attribute("readwrite")}});

  for (int r = 0; r < options.replicas; ++r) {
    std::string suffix = "_r" + std::to_string(r);
    Value *k = b.create_value(
        "olympus.kernel", {}, Type::custom("olympus", "kernel"),
        {{"name", Attribute(kernel.name + suffix)},
         {"replicas", Attribute(std::int64_t{1})},
         {"lane", Attribute(std::int64_t{r})},
         {"cycles", Attribute(kernel.total_cycles)}});
    Value *plm_in = b.create_value(
        "olympus.plm", {}, Type::custom("olympus", "plm"),
        {{"name", Attribute("plm_in" + suffix)},
         {"bytes", Attribute(options.plm_tile_bytes)},
         {"banks", Attribute(std::int64_t{2})},
         {"double_buffer", Attribute(options.double_buffering)}});
    Value *plm_out = b.create_value(
        "olympus.plm", {}, Type::custom("olympus", "plm"),
        {{"name", Attribute("plm_out" + suffix)},
         {"bytes", Attribute(options.plm_tile_bytes)},
         {"banks", Attribute(std::int64_t{2})},
         {"double_buffer", Attribute(options.double_buffering)}});
    b.create("olympus.bind", {k, plm_in}, {},
             {{"port", Attribute("in")}, {"direction", Attribute("read")}});
    b.create("olympus.bind", {k, plm_out}, {},
             {{"port", Attribute("out")}, {"direction", Attribute("write")}});
    b.create("olympus.bind", {plm_in, bus}, {},
             {{"port", Attribute("fill")}, {"direction", Attribute("read")}});
    b.create("olympus.bind", {plm_out, bus}, {},
             {{"port", Attribute("drain")}, {"direction", Attribute("write")}});
  }

  b.create("olympus.host_transfer", {}, {},
           {{"direction", Attribute("to_device")},
            {"bytes", Attribute(kernel.input_bytes)}});
  b.create("olympus.host_transfer", {}, {},
           {{"direction", Attribute("from_device")},
            {"bytes", Attribute(kernel.output_bytes)}});
  return module;
}

Expected<double> SystemGenerator::execute_on(platform::Device &dev,
                                             const hls::KernelReport &kernel,
                                             const Options &options) const {
  auto est = estimate(kernel, options);
  if (!est) return est.error();
  if (!est->fits)
    return Error::resource_exhausted("olympus: configuration does not fit on " +
                                     device_.name);

  // Program an adjusted kernel whose cycle count reflects the generated
  // system (replication + memory overlap already folded in).
  hls::KernelReport system_kernel = kernel;
  system_kernel.name = kernel.name + "_system";
  system_kernel.area = est->area;
  system_kernel.total_cycles = static_cast<std::int64_t>(
      std::ceil(est->total_us * dev.spec().clock_mhz));
  system_kernel.dataflow_cycles = system_kernel.total_cycles;
  // Error codes propagate unchanged (a transient DMA fault must stay
  // retryable), and buffers are released on every path so a retried
  // deployment starts from a clean device.
  if (auto s = dev.load_kernel(system_kernel.name, system_kernel); !s.is_ok())
    return s.error();

  double start = dev.now_us();
  auto in = dev.alloc(std::max<std::int64_t>(kernel.input_bytes, 1));
  if (!in) return in.error();
  auto out = dev.alloc(std::max<std::int64_t>(kernel.output_bytes, 1));
  if (!out) {
    (void)dev.free(*in);
    return out.error();
  }
  auto release = [&] {
    (void)dev.free(*in);
    (void)dev.free(*out);
  };
  if (auto s = dev.sync_to_device(*in); !s.is_ok()) {
    release();
    return s.error();
  }
  auto run = dev.run(system_kernel.name);
  if (!run) {
    release();
    return run;
  }
  if (auto s = dev.sync_from_device(*out); !s.is_ok()) {
    release();
    return s.error();
  }
  release();
  return dev.now_us() - start;
}

}  // namespace everest::olympus
