// Tests for deterministic fault injection and the resilience policies that
// recover from it: the platform::FaultInjector oracle, coded retryable
// errors from the device/network models, retry/backoff, deadlines, circuit
// breakers, device failover, checkpointed dfg restart — and the acceptance
// property that a faulted run under a fixed seed is bit-reproducible
// (identical traces, identical outputs) while still completing correctly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "frontend/condrust_parser.hpp"
#include "hls/scheduler.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "platform/fault_injector.hpp"
#include "platform/network.hpp"
#include "platform/xrt.hpp"
#include "resil/failover.hpp"
#include "resil/fault.hpp"
#include "resil/policy.hpp"
#include "runtime/dfg_executor.hpp"
#include "runtime/resource_manager.hpp"
#include "sdk/basecamp.hpp"
#include "support/expected.hpp"
#include "usecases/rrtmg.hpp"

namespace ef = everest::frontend;
namespace eh = everest::hls;
namespace eo = everest::obs;
namespace ep = everest::platform;
namespace er = everest::runtime;
namespace es = everest::sdk;
namespace rr = everest::usecases::rrtmg;
namespace rs = everest::resil;
namespace su = everest::support;

namespace {

/// A small kernel report that fits comfortably on any device model.
eh::KernelReport tiny_kernel(const std::string &name, std::int64_t cycles) {
  eh::KernelReport r;
  r.name = name;
  r.area = {10'000, 10'000, 10, 10};
  r.total_cycles = cycles;
  r.dataflow_cycles = cycles;
  return r;
}

}  // namespace

// ------------------------------------------------------------ fault oracle

TEST(FaultInjector, DecideIsPureInSeedSiteOpAndSalt) {
  ep::FaultPlan plan;
  plan.transfer_error_rate = 0.3;
  plan.node_fault_rate = 0.3;
  ep::FaultInjector a(42, plan);
  ep::FaultInjector b(42, plan);
  for (std::uint64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(a.decide(ep::FaultSite::DmaToDevice, i),
              b.decide(ep::FaultSite::DmaToDevice, i));
    EXPECT_EQ(a.decide(ep::FaultSite::NodeInvoke, i, 7),
              b.decide(ep::FaultSite::NodeInvoke, i, 7));
    // decide() is const and repeatable.
    EXPECT_EQ(a.decide(ep::FaultSite::DmaToDevice, i),
              a.decide(ep::FaultSite::DmaToDevice, i));
  }
  // A different seed draws a different decision stream.
  ep::FaultInjector c(43, plan);
  int diffs = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    diffs += a.decide(ep::FaultSite::DmaToDevice, i) !=
             c.decide(ep::FaultSite::DmaToDevice, i);
  }
  EXPECT_GT(diffs, 0);
}

TEST(FaultInjector, RatesBoundTheDecisionFrequency) {
  ep::FaultPlan zero;
  ep::FaultPlan always;
  always.transfer_error_rate = 1.0;
  ep::FaultInjector never(1, zero);
  ep::FaultInjector certain(1, always);
  ep::FaultPlan third;
  third.transfer_error_rate = 0.3;
  ep::FaultInjector sometimes(1, third);
  int hits = 0;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    EXPECT_EQ(never.decide(ep::FaultSite::DmaToDevice, i),
              ep::InjectedFault::None);
    EXPECT_EQ(certain.decide(ep::FaultSite::DmaToDevice, i),
              ep::InjectedFault::TransferError);
    hits += sometimes.decide(ep::FaultSite::DmaToDevice, i) !=
            ep::InjectedFault::None;
  }
  EXPECT_NEAR(hits / 10'000.0, 0.3, 0.03);
}

TEST(FaultInjector, NextAdvancesCountersAndTallies) {
  ep::FaultPlan plan;
  plan.alloc_flake_rate = 1.0;
  eo::TraceRecorder recorder;
  ep::FaultInjector inj(7, plan);
  inj.attach_recorder(&recorder);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(inj.next(ep::FaultSite::Alloc), ep::InjectedFault::AllocFlake);
  EXPECT_EQ(inj.injected(ep::InjectedFault::AllocFlake), 3);
  EXPECT_EQ(inj.injected_total(), 3);
  auto counts = inj.injected_counts();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts.at("alloc-flake"), 3);
  EXPECT_EQ(recorder.counter("resil.fault.alloc-flake").value(), 3);
}

TEST(FaultPlan, ParseAcceptsFullSpec) {
  auto plan = ep::parse_fault_plan(
      "transfer=0.1,alloc=0.2,timeout=0.3,timeout-mult=4,drop=0.05,"
      "spike=0.1,spike-mult=12,node=0.25,fold=0.15");
  ASSERT_TRUE(plan.has_value()) << plan.error().message;
  EXPECT_DOUBLE_EQ(plan->transfer_error_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan->alloc_flake_rate, 0.2);
  EXPECT_DOUBLE_EQ(plan->kernel_timeout_rate, 0.3);
  EXPECT_DOUBLE_EQ(plan->kernel_timeout_multiplier, 4.0);
  EXPECT_DOUBLE_EQ(plan->link_drop_rate, 0.05);
  EXPECT_DOUBLE_EQ(plan->link_spike_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan->link_spike_multiplier, 12.0);
  EXPECT_DOUBLE_EQ(plan->node_fault_rate, 0.25);
  EXPECT_DOUBLE_EQ(plan->fold_fault_rate, 0.15);
  // Empty spec is the all-zero default plan.
  auto empty = ep::parse_fault_plan("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_DOUBLE_EQ(empty->transfer_error_rate, 0.0);
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  EXPECT_FALSE(ep::parse_fault_plan("bogus=0.5").has_value());
  EXPECT_FALSE(ep::parse_fault_plan("transfer").has_value());
  EXPECT_FALSE(ep::parse_fault_plan("transfer=abc").has_value());
  EXPECT_FALSE(ep::parse_fault_plan("transfer=1.5").has_value());
  EXPECT_FALSE(ep::parse_fault_plan("timeout-mult=0.5").has_value());
  EXPECT_FALSE(ep::parse_fault_plan("drop=0.7,spike=0.6").has_value());
  for (const auto &bad : {"bogus=0.5", "transfer=1.5"}) {
    EXPECT_EQ(ep::parse_fault_plan(bad).error().code_enum(),
              su::ErrorCode::InvalidArgument);
  }
}

// ----------------------------------------------------------- device faults

TEST(DeviceFaults, AllocReportsRequestedVsAvailable) {
  ep::Device dev(ep::alveo_u55c());
  auto bo = dev.alloc(100LL * 1024 * 1024 * 1024);  // 100 GB > 16 GB HBM
  ASSERT_FALSE(bo.has_value());
  EXPECT_EQ(bo.error().code_enum(), su::ErrorCode::ResourceExhausted);
  EXPECT_NE(bo.error().message.find("requested"), std::string::npos);
  EXPECT_NE(bo.error().message.find("available"), std::string::npos);
  // Capacity exhaustion is a property of the request, not retryable.
  EXPECT_FALSE(su::is_retryable(bo.error().code_enum()));
}

TEST(DeviceFaults, AllocFlakeIsTransientAndRetryable) {
  ep::FaultPlan plan;
  plan.alloc_flake_rate = 1.0;
  ep::FaultInjector inj(3, plan);
  ep::Device dev(ep::alveo_u55c());
  dev.attach_fault_injector(&inj);
  auto bo = dev.alloc(1024);
  ASSERT_FALSE(bo.has_value());
  EXPECT_EQ(bo.error().code_enum(), su::ErrorCode::Unavailable);
  EXPECT_TRUE(su::is_retryable(bo.error().code_enum()));
  EXPECT_EQ(dev.allocated_bytes(), 0);
}

TEST(DeviceFaults, TransferErrorBurnsWireTimeButDeliversNothing) {
  ep::FaultPlan plan;
  plan.transfer_error_rate = 1.0;
  ep::FaultInjector inj(3, plan);
  ep::Device dev(ep::alveo_u55c());
  auto bo = dev.alloc(64 * 1024 * 1024);
  ASSERT_TRUE(bo.has_value());
  dev.attach_fault_injector(&inj);
  double before = dev.now_us();
  auto s = dev.sync_to_device(*bo);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.error().code_enum(), su::ErrorCode::Unavailable);
  EXPECT_GT(dev.now_us(), before);           // the wire work happened
  EXPECT_EQ(dev.stats().bytes_to_device, 0); // but nothing was delivered
  EXPECT_EQ(inj.injected(ep::InjectedFault::TransferError), 1);
}

TEST(DeviceFaults, RunOnUnknownKernelNamesItAndTheDevice) {
  ep::Device dev(ep::alveo_u55c());
  auto us = dev.run("ghost");
  ASSERT_FALSE(us.has_value());
  EXPECT_EQ(us.error().code_enum(), su::ErrorCode::NotFound);
  EXPECT_NE(us.error().message.find("ghost"), std::string::npos);
  EXPECT_NE(us.error().message.find(dev.spec().name), std::string::npos);
}

TEST(DeviceFaults, KernelTimeoutStretchesLatencyByMultiplier) {
  ep::Device clean(ep::alveo_u55c());
  ep::Device faulted(ep::alveo_u55c());
  ASSERT_TRUE(clean.load_kernel("k", tiny_kernel("k", 3000)).is_ok());
  ASSERT_TRUE(faulted.load_kernel("k", tiny_kernel("k", 3000)).is_ok());
  ep::FaultPlan plan;
  plan.kernel_timeout_rate = 1.0;
  plan.kernel_timeout_multiplier = 8.0;
  ep::FaultInjector inj(3, plan);
  faulted.attach_fault_injector(&inj);
  auto base = clean.run("k");
  auto hung = faulted.run("k");
  ASSERT_TRUE(base.has_value());
  ASSERT_TRUE(hung.has_value());
  EXPECT_NEAR(*hung / *base, 8.0, 1e-9);
  EXPECT_EQ(inj.injected(ep::InjectedFault::KernelTimeout), 1);
}

TEST(DeviceFaults, DeadlineAbortsHungKernelAtExactlyTheDeadline) {
  ep::Device dev(ep::alveo_u55c());
  ASSERT_TRUE(dev.load_kernel("k", tiny_kernel("k", 3000)).is_ok());
  ep::FaultPlan plan;
  plan.kernel_timeout_rate = 1.0;
  ep::FaultInjector inj(3, plan);
  dev.attach_fault_injector(&inj);
  double clean_us = 3000.0 / dev.spec().clock_mhz;
  double deadline = clean_us * 2.0;  // hung run needs 8x, so this must trip
  double before = dev.now_us();
  auto us = dev.run("k", false, deadline);
  ASSERT_FALSE(us.has_value());
  EXPECT_EQ(us.error().code_enum(), su::ErrorCode::DeadlineExceeded);
  // The watchdog abandons the wait at the deadline, not at the hung latency.
  EXPECT_NEAR(dev.now_us() - before, deadline, 1e-9);
}

TEST(DeviceFaults, ReloadingAKernelNameIsIdempotentOnFabricArea) {
  ep::Device dev(ep::alveo_u55c());
  // 1.3M LUT fabric, 400k LUT kernel: accumulating re-loads would overflow
  // the fabric by the fourth attempt; replacement must keep fitting.
  eh::KernelReport r = tiny_kernel("k", 3000);
  r.area = {400'000, 0, 0, 0};
  for (int attempt = 0; attempt < 10; ++attempt)
    ASSERT_TRUE(dev.load_kernel("k", r).is_ok()) << "attempt " << attempt;
  EXPECT_TRUE(dev.run("k").has_value());
}

// ------------------------------------------------------------ retry policy

TEST(RetryPolicy, BackoffIsDeterministicCappedAndJittered) {
  rs::RetryPolicy policy;
  policy.initial_backoff_us = 100.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_us = 1'000.0;
  policy.jitter = 0.2;
  for (int attempt = 1; attempt < 12; ++attempt) {
    double b = policy.backoff_us(attempt);
    EXPECT_DOUBLE_EQ(b, policy.backoff_us(attempt));  // pure in (policy, n)
    double nominal =
        std::min(100.0 * std::pow(2.0, attempt - 1), policy.max_backoff_us);
    EXPECT_GE(b, nominal * 0.8 - 1e-9);
    EXPECT_LE(b, nominal * 1.2 + 1e-9);
  }
  // A different jitter seed draws different jitter.
  rs::RetryPolicy other = policy;
  other.jitter_seed = policy.jitter_seed + 1;
  EXPECT_NE(policy.backoff_us(1), other.backoff_us(1));
}

TEST(RetryPolicy, WithRetryRecoversFromTransientFailures) {
  rs::RetryPolicy policy;
  policy.max_attempts = 5;
  eo::TraceRecorder recorder;
  int calls = 0;
  double waited = 0.0;
  auto attempt = [&]() -> su::Expected<int> {
    if (++calls < 3) return su::Error::unavailable("flaky");
    return 42;
  };
  auto result = rs::with_retry(policy, attempt,
                               [&](double us) { waited += us; }, &recorder);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(calls, 3);
  EXPECT_DOUBLE_EQ(waited, policy.backoff_us(1) + policy.backoff_us(2));
  EXPECT_EQ(recorder.counter("resil.retry.attempts").value(), 2);
  EXPECT_EQ(recorder.counter("resil.retry.recovered").value(), 1);
}

TEST(RetryPolicy, WithRetryDoesNotRetryNonRetryableErrors) {
  rs::RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  auto attempt = [&]() -> su::Expected<int> {
    ++calls;
    return su::Error::invalid_argument("bad request");
  };
  auto result = rs::with_retry(policy, attempt);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(calls, 1);
}

TEST(RetryPolicy, WithRetryExhaustsItsBudget) {
  rs::RetryPolicy policy;
  policy.max_attempts = 3;
  eo::TraceRecorder recorder;
  int calls = 0;
  auto attempt = [&]() -> su::Expected<int> {
    ++calls;
    return su::Error::unavailable("always down");
  };
  auto result = rs::with_retry(policy, attempt, nullptr, &recorder, "probe");
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(result.error().code_enum(), su::ErrorCode::Unavailable);
  EXPECT_EQ(recorder.counter("resil.retry.exhausted.probe").value(), 1);
}

// --------------------------------------------------------- circuit breaker

TEST(CircuitBreaker, OpensAfterThresholdAndHalfOpensAfterCooldown) {
  rs::CircuitBreaker breaker(rs::CircuitBreaker::Options{3, 1'000.0});
  EXPECT_TRUE(breaker.allow(0.0));
  breaker.on_failure(10.0);
  breaker.on_failure(20.0);
  EXPECT_EQ(breaker.state(), rs::CircuitBreaker::State::Closed);
  breaker.on_failure(30.0);
  EXPECT_EQ(breaker.state(), rs::CircuitBreaker::State::Open);
  EXPECT_FALSE(breaker.allow(500.0));     // cooling down
  EXPECT_TRUE(breaker.allow(1'100.0));    // cooldown elapsed: one probe
  EXPECT_EQ(breaker.state(), rs::CircuitBreaker::State::HalfOpen);
  breaker.on_success();
  EXPECT_EQ(breaker.state(), rs::CircuitBreaker::State::Closed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
}

TEST(CircuitBreaker, HalfOpenFailureReopens) {
  rs::CircuitBreaker breaker(rs::CircuitBreaker::Options{1, 1'000.0});
  breaker.on_failure(0.0);
  EXPECT_EQ(breaker.state(), rs::CircuitBreaker::State::Open);
  EXPECT_TRUE(breaker.allow(2'000.0));
  breaker.on_failure(2'000.0);
  EXPECT_EQ(breaker.state(), rs::CircuitBreaker::State::Open);
  EXPECT_FALSE(breaker.allow(2'500.0));
  EXPECT_TRUE(breaker.allow(3'100.0));
}

// ----------------------------------------------------------------- failover

namespace {

/// Primary device wired to always hang its kernels; clean backup.
struct FailoverRig {
  ep::FaultInjector inj{3, [] {
    ep::FaultPlan p;
    p.kernel_timeout_rate = 1.0;
    return p;
  }()};
  ep::Device primary{ep::alveo_u55c()};
  ep::Device backup{ep::alveo_u280()};

  FailoverRig() {
    EXPECT_TRUE(primary.load_kernel("k", tiny_kernel("k", 3000)).is_ok());
    EXPECT_TRUE(backup.load_kernel("k", tiny_kernel("k", 3000)).is_ok());
    primary.attach_fault_injector(&inj);
  }

  rs::FailoverOptions options() const {
    rs::FailoverOptions o;
    o.retry.max_attempts = 2;
    // Clean latency is 10 us at 300 MHz; a hung launch needs 80 us.
    o.deadline.deadline_us = 20.0;
    return o;
  }
};

}  // namespace

TEST(Failover, FailsOverToTheBackupDevice) {
  FailoverRig rig;
  eo::TraceRecorder recorder;
  rs::FailoverGroup group({&rig.primary, &rig.backup}, rig.options(),
                          &recorder);
  // The rotation starts the first launch at the primary, which hangs.
  auto outcome = group.run("k");
  ASSERT_TRUE(outcome.has_value()) << outcome.error().message;
  EXPECT_EQ(outcome->executed_on, rig.backup.spec().name);
  EXPECT_TRUE(outcome->degraded);
  EXPECT_EQ(outcome->attempts, 3);  // 2 on the primary + 1 on the backup
  EXPECT_EQ(recorder.counter_value("resil.failover.runs"), 1);
  EXPECT_EQ(recorder.counter_value("resil.failover.device_exhausted"), 1);
  // The second launch starts at the backup: served first time, not degraded.
  outcome = group.run("k");
  ASSERT_TRUE(outcome.has_value()) << outcome.error().message;
  EXPECT_EQ(outcome->executed_on, rig.backup.spec().name);
  EXPECT_FALSE(outcome->degraded);
  EXPECT_EQ(outcome->attempts, 1);
  EXPECT_EQ(recorder.counter_value("resil.failover.runs"), 1);
}

TEST(Failover, PropagatesTheLastErrorWithoutAFallback) {
  FailoverRig rig;
  rig.backup.attach_fault_injector(&rig.inj);
  rs::FailoverGroup group({&rig.primary, &rig.backup}, rig.options());
  auto outcome = group.run("k");
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code_enum(), su::ErrorCode::DeadlineExceeded);
  EXPECT_NE(outcome.error().message.find("failed on every device"),
            std::string::npos);
}

TEST(Failover, BreakerShedsARepeatedlyFailingPrimary) {
  FailoverRig rig;
  eo::TraceRecorder recorder;
  auto options = rig.options();
  options.breaker.failure_threshold = 2;
  options.breaker.open_us = 1e9;  // stays open for the whole test
  rs::FailoverGroup group({&rig.primary, &rig.backup}, options, &recorder);
  // The rotation starts launches 0, 2 and 4 at the primary. Launches 0 and
  // 2 exhaust it, which trips the threshold; from launch 3 on no launch
  // spends an attempt on it.
  for (int i = 0; i < 6; ++i) {
    auto outcome = group.run("k");
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->executed_on, rig.backup.spec().name) << "launch " << i;
    if (i >= 3) {
      EXPECT_EQ(outcome->attempts, 1) << "launch " << i;
    }
  }
  EXPECT_EQ(recorder.counter_value("resil.failover.device_exhausted"), 2);
  EXPECT_EQ(recorder.counter_value("resil.breaker.rejected"), 1);
  EXPECT_EQ(group.breaker_state(0), rs::CircuitBreaker::State::Open);
}

// A lone device's own clock stops while its breaker is open, so the cooldown
// must be waited out by the group rather than judged on that frozen clock.
TEST(Failover, LoneDeviceBreakerCoolsDownOnceTheFaultClears) {
  FailoverRig rig;
  auto options = rig.options();
  options.retry.max_attempts = 1;
  rs::FailoverGroup group({&rig.primary}, options);
  for (int i = 0; i < options.breaker.failure_threshold; ++i)
    EXPECT_FALSE(group.run("k").has_value());
  ASSERT_EQ(group.breaker_state(0), rs::CircuitBreaker::State::Open);
  const double opened_at = rig.primary.now_us();
  rig.primary.attach_fault_injector(nullptr);  // the fault clears

  int served = 0;
  for (int i = 0; i < 100; ++i) served += group.run("k").has_value() ? 1 : 0;
  EXPECT_EQ(served, 100);
  EXPECT_EQ(group.breaker_state(0), rs::CircuitBreaker::State::Closed);
  // The first launch waited out the cooldown on the device clock.
  EXPECT_GE(rig.primary.now_us(), opened_at + options.breaker.open_us);
}

// A healed primary is probed again once the backup's launches have carried
// the group's timeline past its cooldown.
TEST(Failover, HealedPrimaryRejoinsOnTheGroupTimeline) {
  FailoverRig rig;
  eo::TraceRecorder recorder;
  auto options = rig.options();
  options.retry.max_attempts = 1;
  rs::FailoverGroup group({&rig.primary, &rig.backup}, options, &recorder);
  // The rotation starts every other launch at the hanging primary, so
  // 2 x threshold launches trip its breaker; all of them land on the backup.
  for (int i = 0; i < 2 * options.breaker.failure_threshold; ++i) {
    auto outcome = group.run("k");
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->executed_on, rig.backup.spec().name);
  }
  ASSERT_EQ(group.breaker_state(0), rs::CircuitBreaker::State::Open);
  rig.primary.attach_fault_injector(nullptr);  // the primary heals

  int on_primary = 0;
  for (int i = 0; i < 1000; ++i) {
    auto outcome = group.run("k");
    ASSERT_TRUE(outcome.has_value());
    if (outcome->executed_on == rig.primary.spec().name) ++on_primary;
  }
  EXPECT_GT(on_primary, 0);
  EXPECT_EQ(group.breaker_state(0), rs::CircuitBreaker::State::Closed);
  EXPECT_GT(recorder.counter_value("resil.breaker.rejected"), 0);
}

// ----------------------------------------------------------- network faults

TEST(NetworkFaults, LinkDropLosesTheMessageButBurnsWireTime) {
  ep::FaultPlan plan;
  plan.link_drop_rate = 1.0;
  ep::FaultInjector inj(3, plan);
  ep::ZrlmpiCommunicator comm(2);
  comm.attach_fault_injector(&inj);
  auto s = comm.send(0, 1, 1'000);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.error().code_enum(), su::ErrorCode::Unavailable);
  EXPECT_GT(comm.now_us(), 0.0);
  EXPECT_EQ(comm.messages(), 0);
  EXPECT_EQ(comm.bytes_moved(), 0);
  EXPECT_EQ(comm.messages_lost(), 1);
}

TEST(NetworkFaults, LatencySpikeDelaysDeliveryByTheMultiplier) {
  ep::FaultPlan plan;
  plan.link_spike_rate = 1.0;
  plan.link_spike_multiplier = 10.0;
  ep::FaultInjector inj(3, plan);
  ep::ZrlmpiCommunicator clean(2), spiky(2);
  spiky.attach_fault_injector(&inj);
  ASSERT_TRUE(clean.send(0, 1, 1'000).is_ok());
  ASSERT_TRUE(spiky.send(0, 1, 1'000).is_ok());
  EXPECT_NEAR(spiky.now_us() / clean.now_us(), 10.0, 1e-9);
  EXPECT_EQ(spiky.messages_lost(), 0);  // delivered, just late
}

TEST(NetworkFaults, RetriedSendEventuallyDelivers) {
  ep::FaultPlan plan;
  plan.link_drop_rate = 0.5;
  ep::FaultInjector inj(11, plan);
  ep::ZrlmpiCommunicator comm(2);
  comm.attach_fault_injector(&inj);
  rs::RetryPolicy policy;
  policy.max_attempts = 16;
  auto result = rs::with_retry(
      policy, [&] { return comm.send(0, 1, 1'000); });
  ASSERT_TRUE(result.is_ok()) << result.message();
  EXPECT_EQ(comm.messages(), 1);
}

// ----------------------------------------------------- node fault sampling

TEST(NodeFaults, DrainRescheduledTasksCountASecondAttempt) {
  // A drain-displaced task is counted in rescheduled_tasks, so its outcome
  // must report attempts = 2 just like a crash-killed one — regression:
  // only crash victims used to get the second attempt.
  er::ClusterSpec c;
  c.nodes.push_back({"node0", 1, false, 1.0});
  c.nodes.push_back({"node1", 1, false, 1.0});
  er::ResourceManager rm(c);
  auto t1 = rm.submit({"t1", {}, 10.0});
  auto t2 = rm.submit({"t2", {}, 10.0});
  auto t3 = rm.submit({"t3", {}, 10.0});
  ASSERT_TRUE(t1.has_value() && t2.has_value() && t3.has_value());
  // Fault-free, t3 starts at t=10 on node0; draining node0 at t=5 displaces
  // exactly that start onto node1.
  rm.inject_failure({"node0", 5.0, er::FaultKind::Drain});
  auto report = rm.run();
  ASSERT_TRUE(report.has_value()) << report.error().message;
  EXPECT_EQ(report->rescheduled_tasks, 1);
  EXPECT_TRUE(report->degraded());
  EXPECT_EQ(report->tasks.at(t3->id).node, "node1");
  EXPECT_EQ(report->tasks.at(t3->id).attempts, 2);
  EXPECT_EQ(report->tasks.at(t1->id).attempts, 1);
  EXPECT_EQ(report->tasks.at(t2->id).attempts, 1);
  // attempts and rescheduled_tasks agree for every fault kind.
  int second_attempts = 0;
  for (const auto &[id, o] : report->tasks)
    if (o.attempts > 1) ++second_attempts;
  EXPECT_EQ(second_attempts, report->rescheduled_tasks);
}

TEST(NodeFaults, SamplingIsDeterministicAndSparesTheSurvivor) {
  std::vector<std::string> nodes{"node0", "node1", "node2", "node3"};
  auto a = rs::sample_node_faults(9, nodes, 0.5, 100.0, "node0");
  auto b = rs::sample_node_faults(9, nodes, 0.5, 100.0, "node0");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_DOUBLE_EQ(a[i].at_ms, b[i].at_ms);
    EXPECT_NE(a[i].node, "node0");
    EXPECT_GE(a[i].at_ms, 10.0);
    EXPECT_LE(a[i].at_ms, 90.0);
  }
  // Rate 1 faults every node except the spared survivor.
  auto all = rs::sample_node_faults(9, nodes, 1.0, 100.0, "node0");
  EXPECT_EQ(all.size(), nodes.size() - 1);
  EXPECT_TRUE(rs::sample_node_faults(9, nodes, 0.0, 100.0).empty());
}

// ------------------------------------------------------------ dfg executor

namespace {

class DfgResilienceTest : public ::testing::Test {
protected:
  void SetUp() override {
    registry_.register_node("double_it", [](const auto &in) {
      return er::Record{(*in[0])[0] * 2.0};
    });
    registry_.register_fold("running_sum", er::Record{0.0},
                            [](const er::Record &state, const auto &in) {
                              return er::Record{state[0] + (*in[0])[0]};
                            });
    auto m = ef::parse_condrust(R"(
fn pipe(xs: Stream<f64>) -> Stream<f64> {
    let doubled = double_it(xs);
    let total = fold running_sum(doubled);
    return total;
}
)");
    ASSERT_TRUE(m.has_value()) << m.error().message;
    module_ = *m;
    for (int i = 0; i < 400; ++i)
      inputs_["xs"].push_back({static_cast<double>(i % 17) * 0.25});
  }

  std::shared_ptr<everest::ir::Module> module_;
  er::NodeRegistry registry_;
  std::map<std::string, er::Stream> inputs_;
};

}  // namespace

TEST_F(DfgResilienceTest, FaultedOutputsAreIdenticalForAnyWorkerCount) {
  auto run = [&](int workers, er::DfgRunStats &stats) {
    ep::FaultPlan plan;
    plan.node_fault_rate = 0.3;
    ep::FaultInjector inj(77, plan);
    er::DfgExecOptions options;
    options.workers = workers;
    options.faults = &inj;
    options.retry.max_attempts = 6;
    return er::execute_dfg(*module_, registry_, inputs_, options, &stats);
  };
  er::DfgRunStats s1, s2, s8;
  auto r1 = run(1, s1);
  auto r2 = run(2, s2);
  auto r8 = run(8, s8);
  ASSERT_TRUE(r1.has_value()) << r1.error().message;
  ASSERT_TRUE(r2.has_value());
  ASSERT_TRUE(r8.has_value());
  EXPECT_EQ(r1->at("total"), r2->at("total"));
  EXPECT_EQ(r1->at("total"), r8->at("total"));
  // The injected fault set is keyed on element indices, not threads, so the
  // resilience accounting is worker-count invariant too.
  EXPECT_GT(s1.faults_injected, 0u);
  EXPECT_EQ(s1.faults_injected, s2.faults_injected);
  EXPECT_EQ(s1.faults_injected, s8.faults_injected);
  EXPECT_EQ(s1.element_retries, s8.element_retries);
}

TEST_F(DfgResilienceTest, CheckpointedFoldMatchesTheFaultFreeRun) {
  auto clean = er::execute_dfg(*module_, registry_, inputs_, {.workers = 1});
  ASSERT_TRUE(clean.has_value());

  ep::FaultPlan plan;
  plan.fold_fault_rate = 0.1;
  ep::FaultInjector inj(5, plan);
  er::DfgExecOptions options;
  options.faults = &inj;
  options.checkpoint.interval = 16;
  er::DfgRunStats stats;
  eo::TraceRecorder recorder;
  auto faulted = er::execute_dfg(*module_, registry_, inputs_, options, &stats,
                                 &recorder);
  ASSERT_TRUE(faulted.has_value()) << faulted.error().message;
  // Replay from checkpoints reconstructs the exact fold state.
  EXPECT_EQ(clean->at("total"), faulted->at("total"));
  EXPECT_GT(stats.checkpoints_saved, 0u);
  EXPECT_GT(stats.checkpoint_restores, 0u);
  EXPECT_GT(inj.injected(ep::InjectedFault::FoldFault), 0);
  // Each restore replays at most one checkpoint interval of elements.
  EXPECT_LE(stats.elements_replayed,
            stats.checkpoint_restores * options.checkpoint.interval);
  EXPECT_EQ(recorder.counter("resil.checkpoint.saved").value(),
            static_cast<std::int64_t>(stats.checkpoints_saved));
}

TEST_F(DfgResilienceTest, CheckpointingMakesAFaultedLongFoldCompletable) {
  // Without checkpoints every fold fault restarts from element 0 and the
  // fault decisions re-roll, so a 400-element fold at a 10% step fault rate
  // can never string together a clean pass: it exhausts its fault budget.
  // Checkpointing bounds each replay to one interval, so the same fault
  // stream becomes survivable.
  auto run = [&](std::size_t interval) {
    ep::FaultPlan plan;
    plan.fold_fault_rate = 0.1;
    ep::FaultInjector inj(5, plan);
    er::DfgExecOptions options;
    options.faults = &inj;
    options.checkpoint.interval = interval;
    return er::execute_dfg(*module_, registry_, inputs_, options);
  };
  auto bare = run(0);
  ASSERT_FALSE(bare.has_value());
  EXPECT_NE(bare.error().message.find("fault budget"), std::string::npos);
  auto checkpointed = run(16);
  ASSERT_TRUE(checkpointed.has_value()) << checkpointed.error().message;
  auto clean = er::execute_dfg(*module_, registry_, inputs_, {.workers = 1});
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(checkpointed->at("total"), clean->at("total"));
}

TEST_F(DfgResilienceTest, FoldFaultBudgetFailsARunThatCannotProgress) {
  ep::FaultPlan plan;
  plan.fold_fault_rate = 1.0;  // every step faults at every incarnation
  ep::FaultInjector inj(5, plan);
  er::DfgExecOptions options;
  options.faults = &inj;
  options.checkpoint.interval = 16;
  auto out = er::execute_dfg(*module_, registry_, inputs_, options);
  ASSERT_FALSE(out.has_value());
  EXPECT_EQ(out.error().code_enum(), su::ErrorCode::Unavailable);
  EXPECT_NE(out.error().message.find("fault budget"), std::string::npos);
}

TEST_F(DfgResilienceTest, NodeRetryBudgetExhaustionNamesTheLostElement) {
  ep::FaultPlan plan;
  plan.node_fault_rate = 1.0;
  ep::FaultInjector inj(5, plan);
  er::DfgExecOptions options;
  options.faults = &inj;
  options.retry.max_attempts = 2;
  auto out = er::execute_dfg(*module_, registry_, inputs_, options);
  ASSERT_FALSE(out.has_value());
  EXPECT_EQ(out.error().code_enum(), su::ErrorCode::Unavailable);
  EXPECT_NE(out.error().message.find("lost element 0"), std::string::npos);
}

TEST_F(DfgResilienceTest, StageDeadlineFailsWithDeadlineExceeded) {
  er::DfgExecOptions options;
  options.stage_deadline_us = 0.0;  // no stage can finish in zero time
  auto out = er::execute_dfg(*module_, registry_, inputs_, options);
  ASSERT_FALSE(out.has_value());
  EXPECT_EQ(out.error().code_enum(), su::ErrorCode::DeadlineExceeded);
}

// ------------------------------------------------- sdk execution policy

TEST(BasecampPolicy, DeployAndRunRetriesThroughInjectedFaults) {
  es::Basecamp basecamp;
  rr::Config cfg;
  cfg.ncells = 64;
  rr::Data data = rr::make_data(cfg);
  auto result = basecamp.compile_ekl(rr::ekl_source(), rr::bindings(data));
  ASSERT_TRUE(result.has_value()) << result.error().message;

  ep::FaultPlan plan;
  plan.transfer_error_rate = 0.4;
  plan.alloc_flake_rate = 0.3;
  ep::FaultInjector inj(21, plan);
  ep::Device device(result->device);
  device.attach_fault_injector(&inj);

  rs::ExecutionPolicy policy;
  policy.retry.max_attempts = 32;
  auto us = basecamp.deploy_and_run(device, *result, policy);
  ASSERT_TRUE(us.has_value()) << us.error().message;
  EXPECT_GT(*us, 0.0);
  // The fixed seed injects faults on this op sequence; the policy retried
  // through all of them.
  EXPECT_GT(inj.injected_total(), 0);
  EXPECT_GT(basecamp.recorder().counter("resil.retry.attempts").value(), 0);
  EXPECT_EQ(basecamp.recorder().counter("resil.retry.recovered").value(), 1);
}

TEST(BasecampPolicy, ImpossibleDeadlineExhaustsTheBudget) {
  es::Basecamp basecamp;
  rr::Config cfg;
  cfg.ncells = 16;
  rr::Data data = rr::make_data(cfg);
  auto result = basecamp.compile_ekl(rr::ekl_source(), rr::bindings(data));
  ASSERT_TRUE(result.has_value()) << result.error().message;
  ep::Device device(result->device);
  rs::ExecutionPolicy policy;
  policy.retry.max_attempts = 3;
  policy.deadline.deadline_us = 1e-6;  // no run can make this
  auto us = basecamp.deploy_and_run(device, *result, policy);
  ASSERT_FALSE(us.has_value());
  EXPECT_EQ(us.error().code_enum(), su::ErrorCode::DeadlineExceeded);
}

// ------------------------------------------------------------- acceptance

namespace {

/// One faulted "demo" workload spanning the platform layer: DMA in, two
/// kernel launches under a watchdog, DMA out, and a ZRLMPI handoff — every
/// step wrapped in the retry policy. Returns the result latency.
double faulted_demo(std::uint64_t seed, eo::TraceRecorder &recorder,
                    std::map<std::string, std::int64_t> &fault_counts,
                    double &final_clock) {
  ep::FaultPlan plan;
  plan.transfer_error_rate = 0.35;
  plan.alloc_flake_rate = 0.25;
  plan.kernel_timeout_rate = 0.5;
  plan.link_drop_rate = 0.45;
  ep::FaultInjector inj(seed, plan);
  inj.attach_recorder(&recorder);

  ep::Device device(ep::alveo_u55c());
  device.attach_recorder(&recorder);
  device.attach_fault_injector(&inj);
  EXPECT_TRUE(device.load_kernel("demo", tiny_kernel("demo", 3000)).is_ok());

  ep::ZrlmpiCommunicator comm(2);
  comm.attach_recorder(&recorder);
  comm.attach_fault_injector(&inj);

  rs::RetryPolicy retry;
  retry.max_attempts = 64;
  auto wait = [&](double us) { device.host_wait_us(us); };

  auto bo = rs::with_retry(
      retry, [&] { return device.alloc(8 * 1024 * 1024); }, wait, &recorder,
      "alloc");
  EXPECT_TRUE(bo.has_value());
  EXPECT_TRUE(rs::with_retry(
                  retry, [&] { return device.sync_to_device(*bo); }, wait,
                  &recorder, "dma")
                  .is_ok());
  double total_us = 0.0;
  for (int launch = 0; launch < 2; ++launch) {
    auto us = rs::with_retry(
        retry, [&] { return device.run("demo", false, 40.0); }, wait,
        &recorder, "run");
    EXPECT_TRUE(us.has_value());
    total_us += us.value_or(0.0);
  }
  EXPECT_TRUE(rs::with_retry(
                  retry, [&] { return device.sync_from_device(*bo); }, wait,
                  &recorder, "dma")
                  .is_ok());
  EXPECT_TRUE(rs::with_retry(
                  retry, [&] { return comm.send(0, 1, 1'000'000); }, wait,
                  &recorder, "send")
                  .is_ok());
  fault_counts = inj.injected_counts();
  final_clock = device.now_us();
  return total_us;
}

}  // namespace

TEST(Acceptance, FaultedRunCompletesAndIsBitReproducible) {
  eo::TraceRecorder first_rec, second_rec;
  std::map<std::string, std::int64_t> first_counts, second_counts;
  double first_clock = 0.0, second_clock = 0.0;
  double first_us = faulted_demo(0xE7F0, first_rec, first_counts, first_clock);
  double second_us =
      faulted_demo(0xE7F0, second_rec, second_counts, second_clock);

  // At least three distinct fault kinds struck this run...
  EXPECT_GE(first_counts.size(), 3u);
  EXPECT_GT(first_counts["transfer-error"], 0);
  EXPECT_GT(first_counts["kernel-timeout"], 0);
  EXPECT_GT(first_counts["link-drop"], 0);

  // ...and the run still completed with the clean-run result: a watchdog
  // deadline of 40 us only passes un-hung launches of the 10 us kernel.
  EXPECT_NEAR(first_us, 2 * 3000.0 / 300.0, 1e-9);

  // Same seed, same plan => identical faults, clocks, and traces, down to
  // the serialized Chrome trace (everything runs on simulated clocks).
  EXPECT_EQ(first_counts, second_counts);
  EXPECT_DOUBLE_EQ(first_us, second_us);
  EXPECT_DOUBLE_EQ(first_clock, second_clock);
  EXPECT_EQ(eo::chrome_trace_json(first_rec).dump(2),
            eo::chrome_trace_json(second_rec).dump(2));

  // A different seed draws a different fault schedule.
  eo::TraceRecorder other_rec;
  std::map<std::string, std::int64_t> other_counts;
  double other_clock = 0.0;
  faulted_demo(0xE7F1, other_rec, other_counts, other_clock);
  EXPECT_NE(eo::chrome_trace_json(first_rec).dump(2),
            eo::chrome_trace_json(other_rec).dump(2));
}
