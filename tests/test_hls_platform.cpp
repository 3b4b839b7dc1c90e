// Tests for the HLS engine, device models, memory contention, the XRT-like
// host API, ZRLMPI networking, and Olympus system generation.

#include <gtest/gtest.h>

#include "dialects/registry.hpp"
#include "frontend/ekl_parser.hpp"
#include "hls/scheduler.hpp"
#include "olympus/olympus.hpp"
#include "platform/memory.hpp"
#include "platform/network.hpp"
#include "platform/xrt.hpp"
#include "transforms/ekl_to_teil.hpp"
#include "transforms/teil_to_loops.hpp"
#include "usecases/rrtmg.hpp"

namespace eh = everest::hls;
namespace ep = everest::platform;
namespace eo = everest::olympus;
namespace et = everest::transforms;
namespace ef = everest::frontend;
namespace rr = everest::usecases::rrtmg;

namespace {

/// Compiles an EKL dot-product into loop IR for scheduling tests.
std::shared_ptr<everest::ir::Module> dot_loops(std::int64_t n) {
  auto m = ef::parse_ekl(R"(
kernel dot
index i
input a[i]
input b[i]
d = sum(i) a[i] * b[i]
output d
)");
  EXPECT_TRUE(m.has_value());
  et::EklBindings bind;
  bind.inputs.emplace("a", everest::numerics::Tensor(
                               everest::numerics::Shape{n}));
  bind.inputs.emplace("b", everest::numerics::Tensor(
                               everest::numerics::Shape{n}));
  auto teil = et::lower_ekl_to_teil(**m, bind);
  EXPECT_TRUE(teil.has_value());
  auto loops = et::lower_teil_to_loops(**teil);
  EXPECT_TRUE(loops.has_value());
  return *loops;
}

}  // namespace

// ----------------------------------------------------------------- HLS core

TEST(HlsResources, WidthScaling) {
  auto mul64 = eh::op_spec("arith.mulf", 64);
  auto mul16 = eh::op_spec("arith.mulf", 16);
  EXPECT_GT(mul64.area.dsps, mul16.area.dsps);
  EXPECT_GE(mul64.latency, mul16.latency);
  auto add64 = eh::op_spec("arith.addf", 64);
  EXPECT_GT(add64.latency, 1);
}

TEST(HlsResources, BramSizing) {
  EXPECT_EQ(eh::brams_for_bytes(1), 1);
  EXPECT_EQ(eh::brams_for_bytes(4608), 1);
  EXPECT_EQ(eh::brams_for_bytes(4609), 2);
}

TEST(HlsScheduler, DotProductReport) {
  auto loops = dot_loops(1024);
  auto report = eh::schedule_kernel(*loops);
  ASSERT_TRUE(report.has_value()) << report.error().message;
  EXPECT_EQ(report->name, "dot");
  ASSERT_GE(report->stages.size(), 3u);  // mul nest, init nest, reduce nest
  EXPECT_EQ(report->input_bytes, 2 * 1024 * 8);
  EXPECT_EQ(report->output_bytes, 8);
  EXPECT_GT(report->total_cycles, 1024);
  EXPECT_GT(report->area.luts, 0);
  EXPECT_GT(report->area.brams, 0);

  // The reduction stage carries a loop dependence: II > 1 through the
  // accumulator, and the report flags the recurrence.
  bool recurrence_found = false;
  for (const auto &s : report->stages) {
    if (s.has_recurrence) {
      recurrence_found = true;
      EXPECT_GT(s.ii, 1);
    }
  }
  EXPECT_TRUE(recurrence_found);
}

TEST(HlsScheduler, PipeliningReducesLatency) {
  auto loops = dot_loops(4096);
  eh::HlsOptions pipelined;
  eh::HlsOptions sequential;
  sequential.enable_pipelining = false;
  auto fast = eh::schedule_kernel(*loops, pipelined);
  auto slow = eh::schedule_kernel(*loops, sequential);
  ASSERT_TRUE(fast.has_value());
  ASSERT_TRUE(slow.has_value());
  EXPECT_LT(fast->total_cycles, slow->total_cycles);
}

TEST(HlsScheduler, NarrowDatapathShrinksArea) {
  auto loops = dot_loops(1024);
  eh::HlsOptions wide;
  eh::HlsOptions narrow;
  narrow.datapath_bits = 16;
  auto w = eh::schedule_kernel(*loops, wide);
  auto n = eh::schedule_kernel(*loops, narrow);
  ASSERT_TRUE(w.has_value());
  ASSERT_TRUE(n.has_value());
  EXPECT_LT(n->area.luts, w->area.luts);
  EXPECT_LT(n->area.dsps, w->area.dsps);
  EXPECT_LE(n->total_cycles, w->total_cycles);
}

TEST(HlsScheduler, RenderReportContainsSections) {
  auto loops = dot_loops(64);
  auto report = eh::schedule_kernel(*loops);
  ASSERT_TRUE(report.has_value());
  std::string text = eh::render_report(*report);
  EXPECT_NE(text.find("synthesis report"), std::string::npos);
  EXPECT_NE(text.find("II"), std::string::npos);
  EXPECT_NE(text.find("area:"), std::string::npos);
}

TEST(HlsScheduler, Fig3KernelSchedules) {
  rr::Config cfg;
  cfg.ncells = 32;
  rr::Data data = rr::make_data(cfg);
  auto m = ef::parse_ekl(rr::ekl_source());
  ASSERT_TRUE(m.has_value());
  auto teil = et::lower_ekl_to_teil(**m, rr::bindings(data));
  ASSERT_TRUE(teil.has_value());
  auto loops = et::lower_teil_to_loops(**teil);
  ASSERT_TRUE(loops.has_value());
  auto report = eh::schedule_kernel(**loops);
  ASSERT_TRUE(report.has_value()) << report.error().message;
  EXPECT_GT(report->stages.size(), 10u);
  EXPECT_GT(report->dataflow_cycles, 0);
  EXPECT_LE(report->dataflow_cycles, report->total_cycles);
}

// ------------------------------------------------------------------ devices

TEST(Devices, PresetsSane) {
  auto u55c = ep::alveo_u55c();
  EXPECT_EQ(u55c.memory.hbm_channels, 32);
  EXPECT_NEAR(u55c.memory.hbm_gbps_per_channel * 32, 460.0, 1.0);
  auto cf = ep::cloudfpga();
  EXPECT_EQ(cf.link.kind, ep::LinkSpec::Kind::Network);
  EXPECT_LT(cf.capacity.luts, u55c.capacity.luts);
}

TEST(Devices, FitsAndUtilization) {
  auto u55c = ep::alveo_u55c();
  eh::Resources small{1000, 1000, 10, 10};
  EXPECT_TRUE(ep::fits(small, u55c.capacity));
  eh::Resources huge{10'000'000, 0, 0, 0};
  EXPECT_FALSE(ep::fits(huge, u55c.capacity));
  EXPECT_GT(ep::utilization(huge, u55c.capacity), 1.0);
}

// ------------------------------------------------------------------- memory

TEST(MemoryModel, SingleStreamHitsChannelBandwidth) {
  auto mem = ep::alveo_u55c().memory;
  ep::MemoryStream s;
  s.bytes = 1'000'000'000;  // 1 GB on one channel
  s.channels = {0};
  double t = ep::contention_time_seconds({s}, mem);
  EXPECT_NEAR(1.0 / t, mem.hbm_gbps_per_channel, 0.2);  // ~14.4 GB/s
}

TEST(MemoryModel, SharingHalvesBandwidth) {
  auto mem = ep::alveo_u55c().memory;
  ep::MemoryStream a, b;
  a.bytes = b.bytes = 500'000'000;
  a.channels = b.channels = {0};  // both on channel 0
  double shared = ep::contention_time_seconds({a, b}, mem);
  a.channels = {0};
  b.channels = {1};  // disjoint channels
  double disjoint = ep::contention_time_seconds({a, b}, mem);
  EXPECT_NEAR(shared / disjoint, 2.0, 0.05);
}

TEST(MemoryModel, PackingEfficiency) {
  EXPECT_DOUBLE_EQ(ep::naive_packing_efficiency(16, 512), 16.0 / 512.0);
  EXPECT_DOUBLE_EQ(ep::packed_packing_efficiency(16, 512), 1.0);
  // 48-bit elements cannot fill a 512-bit word exactly: 10*48 = 480.
  EXPECT_NEAR(ep::packed_packing_efficiency(48, 512), 480.0 / 512.0, 1e-12);
  EXPECT_DOUBLE_EQ(ep::packed_packing_efficiency(64, 512), 1.0);
}

TEST(MemoryModel, PackingShortensTransfers) {
  auto mem = ep::alveo_u55c().memory;
  ep::MemoryStream packed, naive;
  packed.bytes = naive.bytes = 100'000'000;
  packed.channels = naive.channels = {0};
  packed.packing_efficiency = ep::packed_packing_efficiency(16, 512);
  naive.packing_efficiency = ep::naive_packing_efficiency(16, 512);
  double tp = ep::contention_time_seconds({packed}, mem);
  double tn = ep::contention_time_seconds({naive}, mem);
  EXPECT_NEAR(tn / tp, 32.0, 0.5);  // 512/16
}

// ---------------------------------------------------------------- XRT model

TEST(XrtApi, BufferLifecycle) {
  ep::Device dev(ep::alveo_u55c());
  auto bo = dev.alloc(1024);
  ASSERT_TRUE(bo.has_value());
  EXPECT_EQ(dev.allocated_bytes(), 1024);
  EXPECT_TRUE(dev.sync_to_device(*bo).is_ok());
  EXPECT_TRUE(dev.sync_from_device(*bo).is_ok());
  EXPECT_TRUE(dev.free(*bo).is_ok());
  EXPECT_EQ(dev.allocated_bytes(), 0);
  EXPECT_FALSE(dev.free(*bo).is_ok());
  EXPECT_GT(dev.now_us(), 0.0);
  EXPECT_EQ(dev.stats().bytes_to_device, 1024);
}

TEST(XrtApi, OutOfMemory) {
  ep::Device dev(ep::alveo_u55c());
  auto bo = dev.alloc(100LL * 1024 * 1024 * 1024);  // 100 GB > 16 GB HBM
  EXPECT_FALSE(bo.has_value());
}

TEST(XrtApi, KernelMustFitAndBeProgrammed) {
  ep::Device dev(ep::alveo_u55c());
  EXPECT_FALSE(dev.run("ghost").has_value());
  eh::KernelReport r;
  r.name = "big";
  r.area = {2'000'000, 0, 0, 0};  // exceeds fabric
  EXPECT_FALSE(dev.load_kernel("big", r).is_ok());
  r.area = {10'000, 10'000, 10, 10};
  r.total_cycles = 3000;
  ASSERT_TRUE(dev.load_kernel("ok", r).is_ok());
  auto us = dev.run("ok");
  ASSERT_TRUE(us.has_value());
  EXPECT_NEAR(*us, 3000.0 / 300.0, 1e-9);
}

TEST(XrtApi, IoOverheadFactorScalesTransfers) {
  ep::Device native(ep::alveo_u55c(), 1.0);
  ep::Device emulated(ep::alveo_u55c(), 2.5);
  auto a = native.alloc(64 * 1024 * 1024);
  auto b = emulated.alloc(64 * 1024 * 1024);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ASSERT_TRUE(native.sync_to_device(*a).is_ok());
  ASSERT_TRUE(emulated.sync_to_device(*b).is_ok());
  EXPECT_NEAR(emulated.now_us() / native.now_us(), 2.5, 0.01);
}

// ------------------------------------------------------------------ network

TEST(Network, MessageTimeComponents) {
  ep::NetworkSpec net;
  double empty = ep::message_seconds(net, 0);
  EXPECT_NEAR(empty, 30e-6, 1e-9);
  // 1 GB at 10 Gb/s is ~0.8 s of wire time, plus packet overheads.
  double big = ep::message_seconds(net, 1'000'000'000);
  EXPECT_GT(big, 0.8);
  EXPECT_LT(big, 1.5);
}

TEST(Network, ZrlmpiCollectives) {
  ep::ZrlmpiCommunicator comm(4);
  ASSERT_TRUE(comm.broadcast(0, 1000).is_ok());
  EXPECT_EQ(comm.messages(), 3);
  EXPECT_EQ(comm.bytes_moved(), 3000);
  ASSERT_TRUE(comm.gather(0, 500).is_ok());
  EXPECT_EQ(comm.messages(), 6);
  EXPECT_FALSE(comm.send(0, 0, 10).is_ok());
  EXPECT_FALSE(comm.send(0, 9, 10).is_ok());
  EXPECT_GT(comm.now_us(), 0.0);
}

// ------------------------------------------------------------------ Olympus

class OlympusTest : public ::testing::Test {
protected:
  void SetUp() override {
    everest::dialects::register_everest_dialects(ctx_);
    auto loops = dot_loops(65536);
    auto report = eh::schedule_kernel(*loops);
    ASSERT_TRUE(report.has_value());
    kernel_ = *report;
  }
  everest::ir::Context ctx_;
  eh::KernelReport kernel_;
};

TEST_F(OlympusTest, ReplicationScalesCompute) {
  eo::SystemGenerator gen(ep::alveo_u55c());
  eo::Options one;
  eo::Options four;
  four.replicas = 4;
  auto e1 = gen.estimate(kernel_, one);
  auto e4 = gen.estimate(kernel_, four);
  ASSERT_TRUE(e1.has_value());
  ASSERT_TRUE(e4.has_value());
  EXPECT_NEAR(e1->compute_us / e4->compute_us, 4.0, 0.01);
  EXPECT_GT(e4->area.luts, e1->area.luts);
}

TEST_F(OlympusTest, DoubleBufferingHidesTransfers) {
  eo::SystemGenerator gen(ep::alveo_u55c());
  eo::Options on;
  eo::Options off;
  off.double_buffering = false;
  off.dataflow_pipelining = false;
  auto fast = gen.estimate(kernel_, on);
  auto slow = gen.estimate(kernel_, off);
  ASSERT_TRUE(fast.has_value());
  ASSERT_TRUE(slow.has_value());
  EXPECT_LT(fast->total_us, slow->total_us);
  // Serialized total is compute + memory exactly.
  EXPECT_NEAR(slow->total_us, slow->compute_us + slow->memory_us, 1e-9);
}

TEST_F(OlympusTest, PackingImprovesBandwidth) {
  eo::SystemGenerator gen(ep::alveo_u55c());
  eo::Options packed;
  packed.element_bits = 16;
  eo::Options naive = packed;
  naive.pack_data = false;
  auto p = gen.estimate(kernel_, packed);
  auto n = gen.estimate(kernel_, naive);
  ASSERT_TRUE(p.has_value());
  ASSERT_TRUE(n.has_value());
  EXPECT_GT(p->effective_bandwidth_gbps, n->effective_bandwidth_gbps);
  EXPECT_LT(p->memory_us, n->memory_us);
}

TEST_F(OlympusTest, GeneratedIrVerifies) {
  eo::SystemGenerator gen(ep::alveo_u55c());
  eo::Options options;
  options.replicas = 2;
  auto ir = gen.generate_ir(kernel_, options);
  ASSERT_TRUE(ir.has_value()) << ir.error().message;
  auto status = ctx_.verify(**ir);
  EXPECT_TRUE(status.is_ok()) << status.message();
  EXPECT_EQ((*ir)->find_all("olympus.kernel").size(), 2u);
  EXPECT_EQ((*ir)->find_all("olympus.plm").size(), 4u);
  EXPECT_EQ((*ir)->find_all("olympus.host_transfer").size(), 2u);
}

TEST_F(OlympusTest, ExecuteOnDeviceAdvancesTimeline) {
  eo::SystemGenerator gen(ep::alveo_u55c());
  ep::Device dev(ep::alveo_u55c());
  auto us = gen.execute_on(dev, kernel_, {});
  ASSERT_TRUE(us.has_value()) << us.error().message;
  EXPECT_GT(*us, 0.0);
  EXPECT_EQ(dev.stats().kernel_launches, 1);
  EXPECT_GT(dev.stats().bytes_to_device, 0);
}

TEST_F(OlympusTest, RejectsOverReplication) {
  eo::SystemGenerator gen(ep::cloudfpga());
  eo::Options options;
  options.replicas = 0;
  EXPECT_FALSE(gen.estimate(kernel_, options).has_value());
}

TEST_F(OlympusTest, ExecuteOnReportsCodedErrors) {
  eo::SystemGenerator gen(ep::cloudfpga());
  ep::Device dev(ep::cloudfpga());
  eo::Options oversized;
  oversized.replicas = 4096;
  auto too_big = gen.execute_on(dev, kernel_, oversized);
  ASSERT_FALSE(too_big.has_value());
  EXPECT_EQ(too_big.error().code_enum(),
            everest::support::ErrorCode::ResourceExhausted);

  eo::Options none;
  none.replicas = 0;
  auto empty = gen.execute_on(dev, kernel_, none);
  ASSERT_FALSE(empty.has_value());
  EXPECT_EQ(empty.error().code_enum(),
            everest::support::ErrorCode::InvalidArgument);
}
