// Tests for the virtualized runtime environment: resource manager (Dask-like
// scheduling, load balancing, transfers, rescheduling), the deterministic
// dfg executor, SR-IOV virtualization, and the mARGOt-like autotuner.

#include <gtest/gtest.h>

#include "autotune/autotuner.hpp"
#include "frontend/condrust_parser.hpp"
#include "obs/trace.hpp"
#include "runtime/dfg_executor.hpp"
#include "runtime/resource_manager.hpp"
#include "virt/virt.hpp"

namespace er = everest::runtime;
namespace ev = everest::virt;
namespace ea = everest::autotune;
namespace ef = everest::frontend;
namespace ep = everest::platform;

namespace {

er::ClusterSpec small_cluster(int nodes, bool fpga_on_first = false) {
  er::ClusterSpec c;
  for (int i = 0; i < nodes; ++i) {
    c.nodes.push_back({"node" + std::to_string(i), 4,
                       fpga_on_first && i == 0, 1.0});
  }
  return c;
}

}  // namespace

// ---------------------------------------------------------- resource manager

TEST(ResourceManager, RespectsDependencies) {
  er::ResourceManager rm(small_cluster(2));
  auto a = rm.submit({"a", {}, 10.0});
  ASSERT_TRUE(a.has_value());
  auto b = rm.submit({"b", {a->id}, 10.0});
  ASSERT_TRUE(b.has_value());
  auto report = rm.run();
  ASSERT_TRUE(report.has_value()) << report.error().message;
  const auto &ta = report->tasks.at(a->id);
  const auto &tb = report->tasks.at(b->id);
  EXPECT_GE(tb.start_ms, ta.finish_ms);
}

TEST(ResourceManager, RejectsBadSubmissions) {
  er::ResourceManager rm(small_cluster(1));
  EXPECT_FALSE(rm.submit({"x", {5}, 1.0}).has_value());  // unknown dep
  er::TaskSpec no_variant;
  no_variant.name = "none";
  no_variant.cpu_ms = -1.0;
  no_variant.fpga_ms = -1.0;
  EXPECT_FALSE(rm.submit(no_variant).has_value());
}

TEST(ResourceManager, LoadBalancesIndependentTasks) {
  er::ResourceManager rm(small_cluster(4));
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(rm.submit({"t" + std::to_string(i), {}, 10.0}).has_value());
  }
  auto report = rm.run();
  ASSERT_TRUE(report.has_value());
  // 32 tasks x 10ms over 16 cores => ideal 20ms.
  EXPECT_NEAR(report->makespan_ms, 20.0, 1.0);
  EXPECT_GT(report->avg_core_utilization, 0.9);
}

TEST(ResourceManager, MoreNodesShrinkMakespan) {
  auto run_with = [](int nodes) {
    er::ResourceManager rm(small_cluster(nodes));
    for (int i = 0; i < 64; ++i) {
      EXPECT_TRUE(rm.submit({"t" + std::to_string(i), {}, 5.0}).has_value());
    }
    auto r = rm.run();
    EXPECT_TRUE(r.has_value());
    return r->makespan_ms;
  };
  double m2 = run_with(2), m8 = run_with(8);
  EXPECT_GT(m2, m8 * 3.0);
}

TEST(ResourceManager, PrefersFpgaVariantWhenFaster) {
  er::ResourceManager rm(small_cluster(2, /*fpga_on_first=*/true));
  er::TaskSpec t{"accel", {}, 100.0};
  t.fpga_ms = 5.0;
  auto f = rm.submit(t);
  ASSERT_TRUE(f.has_value());
  auto report = rm.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->tasks.at(f->id).used_fpga);
  EXPECT_EQ(report->tasks.at(f->id).node, "node0");
}

TEST(ResourceManager, FpgaOnlyTaskSchedulesOntoFpgaWithPositiveDuration) {
  // cpu_ms < 0 with fpga_ms >= 0 is an FPGA-only task (submit() accepts
  // it). The scheduler must place it on an FPGA node with used_fpga set and
  // a positive duration — the negative cpu_ms is "infeasible on CPU", not a
  // duration. Regression: the candidate duration used to go negative, so
  // the FPGA variant was never selected and the task "finished" before it
  // started.
  er::ResourceManager rm(small_cluster(2, /*fpga_on_first=*/true));
  er::TaskSpec t{"fpga_only", {}, -1.0};
  t.fpga_ms = 5.0;
  auto f = rm.submit(t);
  ASSERT_TRUE(f.has_value());
  auto report = rm.run();
  ASSERT_TRUE(report.has_value()) << report.error().message;
  const auto &o = report->tasks.at(f->id);
  EXPECT_TRUE(o.used_fpga);
  EXPECT_EQ(o.node, "node0");
  EXPECT_GE(o.start_ms, 0.0);
  EXPECT_DOUBLE_EQ(o.finish_ms - o.start_ms, 5.0);
}

TEST(ResourceManager, FpgaOnlyChainHasPositiveMakespan) {
  er::ResourceManager rm(small_cluster(2, /*fpga_on_first=*/true));
  er::TaskId prev = -1;
  for (int i = 0; i < 3; ++i) {
    er::TaskSpec t{"f" + std::to_string(i),
                   prev < 0 ? std::vector<er::TaskId>{}
                            : std::vector<er::TaskId>{prev},
                   -1.0};
    t.fpga_ms = 10.0;
    auto f = rm.submit(t);
    ASSERT_TRUE(f.has_value());
    prev = f->id;
  }
  auto report = rm.run();
  ASSERT_TRUE(report.has_value()) << report.error().message;
  EXPECT_DOUBLE_EQ(report->makespan_ms, 30.0);
  for (const auto &[id, o] : report->tasks) {
    EXPECT_TRUE(o.used_fpga);
    EXPECT_GT(o.finish_ms, o.start_ms);
    EXPECT_GE(o.start_ms, 0.0);
  }
}

TEST(ResourceManager, FpgaOnlyTaskWithoutFpgaNodeIsRejected) {
  er::ResourceManager rm(small_cluster(2));  // no FPGA anywhere
  er::TaskSpec t{"fpga_only", {}, -1.0};
  t.fpga_ms = 5.0;
  ASSERT_TRUE(rm.submit(t).has_value());
  auto report = rm.run();
  ASSERT_FALSE(report.has_value());
  EXPECT_EQ(report.error().code_enum(),
            everest::support::ErrorCode::ResourceExhausted);
}

TEST(ResourceManager, FpgaOnlyDurationFeedsHeftRank) {
  // One node, one core: HEFT dispatch order is exactly rank order, so the
  // 50 ms FPGA-only task must run before the independent 10 ms CPU task.
  // Regression: mean_duration() used the negative cpu_ms for FPGA-only
  // tasks, collapsing their rank below every CPU task's.
  er::ClusterSpec c;
  c.nodes.push_back({"node0", 1, true, 1.0});
  er::ResourceManager rm(c);
  er::TaskSpec accel{"accel", {}, -1.0};
  accel.fpga_ms = 50.0;
  auto fa = rm.submit(accel);
  ASSERT_TRUE(fa.has_value());
  auto fb = rm.submit({"host", {}, 10.0});
  ASSERT_TRUE(fb.has_value());
  auto report = rm.run();  // HEFT is the default policy
  ASSERT_TRUE(report.has_value()) << report.error().message;
  EXPECT_DOUBLE_EQ(report->tasks.at(fa->id).start_ms, 0.0);
  EXPECT_DOUBLE_EQ(report->tasks.at(fb->id).start_ms, 50.0);
  EXPECT_DOUBLE_EQ(report->makespan_ms, 60.0);
}

TEST(ResourceManager, HardFpgaRequirementConstrainsPlacement) {
  er::ResourceManager rm(small_cluster(3, /*fpga_on_first=*/true));
  er::TaskSpec t{"must_fpga", {}, 10.0};
  t.needs_fpga = true;
  t.fpga_ms = 10.0;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(rm.submit(t).has_value());
  }
  auto report = rm.run();
  ASSERT_TRUE(report.has_value());
  for (const auto &[id, outcome] : report->tasks)
    EXPECT_EQ(outcome.node, "node0");
}

TEST(ResourceManager, TransferAwareBeatsNaivePlacement) {
  // A chain with huge intermediate data: keeping it on one node avoids
  // transfers; naive placement bounces it around.
  er::ClusterSpec cluster = small_cluster(4);
  cluster.net_gbps = 1.0;  // slow network magnifies the effect

  auto build = [&](er::ResourceManager &rm) {
    er::TaskSpec producer{"p", {}, 20.0};
    producer.output_bytes = 500'000'000;  // 0.5 GB
    auto p = rm.submit(producer);
    ASSERT_TRUE(p.has_value());
    // Consumers also produce large outputs consumed by one sink.
    std::vector<er::TaskId> mids;
    for (int i = 0; i < 3; ++i) {
      er::TaskSpec mid{"m" + std::to_string(i), {p->id}, 20.0};
      mid.output_bytes = 500'000'000;
      auto m = rm.submit(mid);
      ASSERT_TRUE(m.has_value());
      mids.push_back(m->id);
    }
    er::TaskSpec sink{"s", mids, 5.0};
    ASSERT_TRUE(rm.submit(sink).has_value());
  };

  er::ResourceManager aware(cluster), naive(cluster);
  build(aware);
  build(naive);
  er::SchedulerOptions aware_opt;
  er::SchedulerOptions naive_opt;
  naive_opt.transfer_aware = false;
  auto ra = aware.run(aware_opt);
  auto rn = naive.run(naive_opt);
  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(rn.has_value());
  EXPECT_LE(ra->makespan_ms, rn->makespan_ms);
  EXPECT_LE(ra->bytes_transferred, rn->bytes_transferred);
}

TEST(ResourceManager, HeftBeatsFifoOnHeterogeneousDag) {
  // Critical-path-heavy DAG: HEFT should prioritize the long chain.
  auto build = [&](er::ResourceManager &rm) {
    // Long chain of 6 x 20ms, plus 12 independent 10ms tasks.
    er::TaskId prev = -1;
    for (int i = 0; i < 6; ++i) {
      er::TaskSpec t{"chain" + std::to_string(i),
                     prev < 0 ? std::vector<er::TaskId>{}
                              : std::vector<er::TaskId>{prev},
                     20.0};
      auto f = rm.submit(t);
      ASSERT_TRUE(f.has_value());
      prev = f->id;
    }
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(rm.submit({"ind" + std::to_string(i), {}, 10.0}).has_value());
    }
  };
  er::ClusterSpec cluster = small_cluster(1);
  cluster.nodes[0].cores = 2;
  er::ResourceManager heft(cluster), fifo(cluster);
  build(heft);
  build(fifo);
  er::SchedulerOptions fifo_opt;
  fifo_opt.policy = er::SchedulerOptions::Policy::Fifo;
  auto rh = heft.run();
  auto rf = fifo.run(fifo_opt);
  ASSERT_TRUE(rh.has_value());
  ASSERT_TRUE(rf.has_value());
  EXPECT_LE(rh->makespan_ms, rf->makespan_ms);
}

TEST(ResourceManager, ReschedulesAfterNodeFailure) {
  er::ResourceManager rm(small_cluster(2));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(rm.submit({"t" + std::to_string(i), {}, 50.0}).has_value());
  }
  auto healthy = rm.run();
  ASSERT_TRUE(healthy.has_value());

  // dies mid-first-wave
  rm.inject_failure({"node0", 25.0, er::FaultKind::Crash});
  auto degraded = rm.run();
  ASSERT_TRUE(degraded.has_value());
  EXPECT_GT(degraded->rescheduled_tasks, 0);
  EXPECT_TRUE(degraded->degraded());
  EXPECT_EQ(degraded->faulted_nodes, std::vector<std::string>{"node0"});
  EXPECT_GT(degraded->makespan_ms, healthy->makespan_ms);
  for (const auto &[id, outcome] : degraded->tasks) {
    if (outcome.node == "node0") {
      EXPECT_LE(outcome.finish_ms, 25.0);
    }
  }
}

TEST(ResourceManager, DrainFinishesRunningTasksButStartsNoneNew) {
  // Crash kills in-flight work; Drain lets it finish but refuses new starts.
  // 16 x 50ms on 8 cores => two waves; the fault at 25ms lands mid-wave-1.
  auto build = [](er::ResourceManager &rm) {
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(rm.submit({"t" + std::to_string(i), {}, 50.0}).has_value());
    }
  };
  er::ResourceManager crash(small_cluster(2)), drain(small_cluster(2));
  build(crash);
  build(drain);
  crash.inject_failure({"node0", 25.0, er::FaultKind::Crash});
  drain.inject_failure({"node0", 25.0, er::FaultKind::Drain});
  auto rc = crash.run();
  auto rd = drain.run();
  ASSERT_TRUE(rc.has_value());
  ASSERT_TRUE(rd.has_value());

  // Under drain, tasks already running at 25ms run past the fault instant but
  // nothing *starts* afterwards; under crash, nothing may *finish* after it.
  bool drained_past_fault = false;
  for (const auto &[id, outcome] : rd->tasks) {
    if (outcome.node == "node0") {
      EXPECT_LT(outcome.start_ms, 25.0);
      drained_past_fault |= outcome.finish_ms > 25.0;
    }
  }
  EXPECT_TRUE(drained_past_fault);
  for (const auto &[id, outcome] : rc->tasks) {
    if (outcome.node == "node0") {
      EXPECT_LE(outcome.finish_ms, 25.0);
    }
  }
  // Drain loses no completed work, so it recovers at least as fast.
  EXPECT_LE(rd->makespan_ms, rc->makespan_ms);
  EXPECT_GT(rd->rescheduled_tasks, 0);
}

TEST(ResourceManager, CrashRestartIsKeyedOnTheKillingFault) {
  // Two faults: a decoy crash at t=5 on a node the victim never ran on, and
  // the crash at t=50 that actually kills it. The restart must wait for the
  // killing fault — regression: it used to restart after the *earliest*
  // fault anywhere on the cluster (t=5 here).
  er::ClusterSpec c;
  c.nodes.push_back({"decoy", 1, false, 1.0});
  c.nodes.push_back({"fast", 1, false, 2.0});
  c.nodes.push_back({"backup", 1, false, 1.0});
  er::ResourceManager rm(c);
  auto big = rm.submit({"big", {}, 120.0});    // fast: 60 ms, others: 120 ms
  ASSERT_TRUE(big.has_value());
  auto small = rm.submit({"small", {}, 10.0});
  ASSERT_TRUE(small.has_value());
  rm.inject_failures({{"decoy", 5.0, er::FaultKind::Crash},
                      {"fast", 50.0, er::FaultKind::Crash}});
  auto report = rm.run();
  ASSERT_TRUE(report.has_value()) << report.error().message;
  const auto &o = report->tasks.at(big->id);
  // First pass puts "big" on "fast" ([0,60] past the t=50 crash); the
  // re-submission must not start before t=50 even though "decoy" crashed
  // at t=5.
  EXPECT_EQ(o.node, "backup");
  EXPECT_GE(o.start_ms, 50.0);
  EXPECT_EQ(o.attempts, 2);
  EXPECT_TRUE(report->degraded());
}

TEST(ResourceManager, InjectFailuresAppliesWholePlan) {
  er::ResourceManager rm(small_cluster(3));
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(rm.submit({"t" + std::to_string(i), {}, 50.0}).has_value());
  }
  rm.inject_failures({{"node0", 25.0, er::FaultKind::Crash},
                      {"node1", 40.0, er::FaultKind::Drain}});
  auto report = rm.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_GT(report->rescheduled_tasks, 0);
  EXPECT_TRUE(report->degraded());
  EXPECT_EQ(report->faulted_nodes,
            (std::vector<std::string>{"node0", "node1"}));
  // Every task still completes despite two of three nodes faulting.
  EXPECT_EQ(report->tasks.size(), rm.task_count());
}

TEST(ResourceManager, NodeTimelineCoversEveryPlacement) {
  er::ResourceManager rm(small_cluster(3));
  auto a = rm.submit({"a", {}, 10.0});
  ASSERT_TRUE(a.has_value());
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(
        rm.submit({"t" + std::to_string(i), {a->id}, 10.0}).has_value());
  }
  auto report = rm.run();
  ASSERT_TRUE(report.has_value());

  std::size_t intervals = 0;
  for (const auto &[node, timeline] : report->node_timeline) {
    for (std::size_t i = 0; i < timeline.size(); ++i) {
      const auto &iv = timeline[i];
      EXPECT_LT(iv.start_ms, iv.end_ms);
      // Sorted by start within each node.
      if (i > 0) {
        EXPECT_GE(iv.start_ms, timeline[i - 1].start_ms);
      }
      // Interval matches the task outcome it describes.
      const auto &outcome = report->tasks.at(iv.task);
      EXPECT_EQ(outcome.node, node);
      EXPECT_DOUBLE_EQ(outcome.start_ms, iv.start_ms);
      EXPECT_DOUBLE_EQ(outcome.finish_ms, iv.end_ms);
      ++intervals;
    }
  }
  EXPECT_EQ(intervals, report->tasks.size());
}

TEST(ResourceManager, RunExportsTaskSpansOnSimulatedTimeline) {
  er::ResourceManager rm(small_cluster(2));
  auto a = rm.submit({"produce", {}, 10.0});
  ASSERT_TRUE(a.has_value());
  er::TaskSpec big{"consume", {a->id}, 10.0};
  auto b = rm.submit(big);
  ASSERT_TRUE(b.has_value());

  everest::obs::TraceRecorder recorder;
  auto report = rm.run({}, &recorder);
  ASSERT_TRUE(report.has_value());

  std::size_t task_spans = 0;
  for (const auto &ev : recorder.events()) {
    if (ev.category != "resman.task") continue;
    ++task_spans;
    // Trace timestamps are the schedule times scaled ms -> us.
    bool matched = false;
    for (const auto &[id, outcome] : report->tasks) {
      if (ev.track == outcome.node &&
          ev.start_us == outcome.start_ms * 1000.0 &&
          ev.duration_us ==
              (outcome.finish_ms - outcome.start_ms) * 1000.0) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << ev.name;
  }
  EXPECT_EQ(task_spans, report->tasks.size());
  EXPECT_EQ(recorder.counter("resman.tasks").value(),
            static_cast<std::int64_t>(report->tasks.size()));
  EXPECT_DOUBLE_EQ(recorder.gauge("resman.makespan_ms").value(),
                   report->makespan_ms);
}

// -------------------------------------------------------------- dfg executor

class DfgExecutorTest : public ::testing::Test {
protected:
  void SetUp() override {
    registry_.register_node("double_it", [](const auto &in) {
      return er::Record{(*in[0])[0] * 2.0};
    });
    registry_.register_node("add_pair", [](const auto &in) {
      return er::Record{(*in[0])[0] + (*in[1])[0]};
    });
    registry_.register_fold("running_sum", er::Record{0.0},
                            [](const er::Record &state, const auto &in) {
                              return er::Record{state[0] + (*in[0])[0]};
                            });
  }
  er::NodeRegistry registry_;
};

TEST_F(DfgExecutorTest, ExecutesPipeline) {
  auto m = ef::parse_condrust(R"(
fn pipe(xs: Stream<f64>) -> Stream<f64> {
    let doubled = double_it(xs);
    let total = fold running_sum(doubled);
    return total;
}
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  std::map<std::string, er::Stream> inputs;
  inputs["xs"] = {{1.0}, {2.0}, {3.0}};
  auto out = er::execute_dfg(**m, registry_, inputs);
  ASSERT_TRUE(out.has_value()) << out.error().message;
  ASSERT_EQ(out->at("total").size(), 1u);
  EXPECT_DOUBLE_EQ(out->at("total")[0][0], 12.0);
}

TEST_F(DfgExecutorTest, DeterministicAcrossWorkerCounts) {
  auto m = ef::parse_condrust(R"(
fn pipe(xs: Stream<f64>, ys: Stream<f64>) -> Stream<f64> {
    let sums = add_pair(xs, ys);
    let doubled = double_it(sums);
    let total = fold running_sum(doubled);
    return total;
}
)");
  ASSERT_TRUE(m.has_value());
  std::map<std::string, er::Stream> inputs;
  for (int i = 0; i < 500; ++i) {
    inputs["xs"].push_back({static_cast<double>(i)});
    inputs["ys"].push_back({static_cast<double>(i) * 0.5});
  }
  auto r1 = er::execute_dfg(**m, registry_, inputs, {.workers = 1});
  auto r4 = er::execute_dfg(**m, registry_, inputs, {.workers = 4});
  auto r16 = er::execute_dfg(**m, registry_, inputs, {.workers = 16});
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r4.has_value());
  ASSERT_TRUE(r16.has_value());
  EXPECT_EQ(r1->at("total"), r4->at("total"));
  EXPECT_EQ(r1->at("total"), r16->at("total"));
}

TEST_F(DfgExecutorTest, StatsAndErrors) {
  auto m = ef::parse_condrust(R"(
fn pipe(xs: Stream<f64>) -> Stream<f64> {
    let d = double_it(xs);
    return d;
}
)");
  ASSERT_TRUE(m.has_value());
  std::map<std::string, er::Stream> inputs;
  inputs["xs"] = {{1.0}, {2.0}};
  er::DfgRunStats stats;
  auto out = er::execute_dfg(**m, registry_, inputs, {.workers = 2}, &stats);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(stats.node_invocations, 2u);
  EXPECT_EQ(stats.elements, 2u);

  using everest::support::ErrorCode;
  auto code_of = [&](const std::shared_ptr<everest::ir::Module> &module,
                     const std::map<std::string, er::Stream> &in,
                     int workers = 1) {
    auto r = er::execute_dfg(*module, registry_, in, {.workers = workers});
    EXPECT_FALSE(r.has_value());
    return r ? ErrorCode::Internal : r.error().code_enum();
  };
  // Missing input stream, bad worker count.
  EXPECT_EQ(code_of(*m, {}), ErrorCode::InvalidArgument);
  EXPECT_EQ(code_of(*m, inputs, 0), ErrorCode::InvalidArgument);
  // Misaligned input streams.
  auto pair = ef::parse_condrust(R"(
fn pipe(xs: Stream<f64>, ys: Stream<f64>) -> Stream<f64> {
    let s = add_pair(xs, ys);
    return s;
}
)");
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(code_of(*pair, {{"xs", {{1.0}, {2.0}}}, {"ys", {{1.0}}}}),
            ErrorCode::InvalidArgument);
  // Unregistered node and fold callees.
  auto m2 = ef::parse_condrust(R"(
fn pipe(xs: Stream<f64>) -> Stream<f64> {
    let d = nonexistent(xs);
    return d;
}
)");
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(code_of(*m2, inputs), ErrorCode::NotFound);
  auto m3 = ef::parse_condrust(R"(
fn pipe(xs: Stream<f64>) -> Stream<f64> {
    let t = fold nonexistent_fold(xs);
    return t;
}
)");
  ASSERT_TRUE(m3.has_value());
  EXPECT_EQ(code_of(*m3, inputs), ErrorCode::NotFound);
  // An op the executor does not know.
  everest::ir::Module &mod = **m;
  everest::ir::Operation *graph = mod.find_all("dfg.graph").at(0);
  graph->region(0).front().attach(everest::ir::Operation::create(
      mod.arena(), everest::ir::Symbol("test.unknown"), {}, {}, {}, 0));
  EXPECT_EQ(code_of(*m, inputs), ErrorCode::Unsupported);
}

// ----------------------------------------------------------- virtualization

TEST(Virt, VmLifecycleAndOversubscription) {
  ev::VirtNode node("phys0", 16, {ep::alveo_u55c()});
  auto vm1 = node.create_vm("vm1", 8);
  ASSERT_TRUE(vm1.has_value());
  auto vm2 = node.create_vm("vm2", 8);
  ASSERT_TRUE(vm2.has_value());
  EXPECT_FALSE(node.create_vm("vm3", 1).has_value());  // cores exhausted
  ASSERT_TRUE(node.destroy_vm(*vm2).is_ok());
  EXPECT_TRUE(node.create_vm("vm3", 4).has_value());
}

TEST(Virt, SriovPoolIsStaticAndExhaustible) {
  ev::VirtNode node("phys0", 32, {ep::alveo_u55c()}, /*max_vfs_per_card=*/2);
  auto vm = node.create_vm("vm", 4);
  ASSERT_TRUE(vm.has_value());
  auto vf1 = node.attach_vf(*vm, 0);
  auto vf2 = node.attach_vf(*vm, 0);
  ASSERT_TRUE(vf1.has_value());
  ASSERT_TRUE(vf2.has_value());
  EXPECT_FALSE(node.attach_vf(*vm, 0).has_value());  // static pool limit
  // Dynamic unplug mitigates it.
  ASSERT_TRUE(node.detach_vf(*vm, *vf1).is_ok());
  EXPECT_TRUE(node.attach_vf(*vm, 0).has_value());
  EXPECT_GT(node.plug_unplug_ms(), 0.0);
}

TEST(Virt, SriovNearNativeEmulatedSlow) {
  ev::VirtNode node("phys0", 32, {ep::alveo_u55c()}, 4);
  auto vm = node.create_vm("vm", 4);
  ASSERT_TRUE(vm.has_value());
  auto vf_fast = node.attach_vf(*vm, 0, ev::IoMode::SrIov);
  auto vf_slow = node.attach_vf(*vm, 0, ev::IoMode::Emulated);
  ASSERT_TRUE(vf_fast.has_value());
  ASSERT_TRUE(vf_slow.has_value());

  auto transfer = [&](ep::Device *dev) {
    auto bo = dev->alloc(256 * 1024 * 1024);
    EXPECT_TRUE(bo.has_value());
    EXPECT_TRUE(dev->sync_to_device(*bo).is_ok());
    return dev->now_us();
  };
  auto d_native = transfer(&node.native_device(0));
  auto fast_dev = node.vm_device(*vm, *vf_fast);
  auto slow_dev = node.vm_device(*vm, *vf_slow);
  ASSERT_TRUE(fast_dev.has_value());
  ASSERT_TRUE(slow_dev.has_value());
  auto d_sriov = transfer(*fast_dev);
  auto d_emu = transfer(*slow_dev);

  EXPECT_LT(d_sriov / d_native, 1.10);  // near-native
  EXPECT_GT(d_emu / d_native, 2.0);     // emulation is costly
}

TEST(Virt, OwnershipEnforced) {
  ev::VirtNode node("phys0", 32, {ep::alveo_u55c()}, 4);
  auto vm1 = node.create_vm("vm1", 4);
  auto vm2 = node.create_vm("vm2", 4);
  ASSERT_TRUE(vm1.has_value());
  ASSERT_TRUE(vm2.has_value());
  auto vf = node.attach_vf(*vm1, 0);
  ASSERT_TRUE(vf.has_value());
  EXPECT_FALSE(node.vm_device(*vm2, *vf).has_value());
  EXPECT_FALSE(node.detach_vf(*vm2, *vf).is_ok());
}

TEST(Virt, StatusJsonReflectsState) {
  ev::VirtNode node("phys0", 16, {ep::alveo_u55c(), ep::alveo_u280()}, 3);
  auto vm = node.create_vm("vm", 4);
  ASSERT_TRUE(vm.has_value());
  ASSERT_TRUE(node.attach_vf(*vm, 1).has_value());
  auto j = node.status_json();
  EXPECT_EQ(j["node"].as_string(), "phys0");
  EXPECT_EQ(j["allocated_vcpus"].as_int(), 4);
  EXPECT_EQ(j["cards"].size(), 2u);
  EXPECT_EQ(j["cards"][1]["attached_vfs"].as_int(), 1);
  EXPECT_EQ(j["cards"][1]["max_vfs"].as_int(), 3);
}

// ----------------------------------------------------------------- autotuner

TEST(Autotuner, SelectsByRankUnderConstraints) {
  ea::Autotuner tuner;
  tuner.add_knowledge({{{"variant", 0}}, {{"time_ms", 100}, {"error", 0.01}}});
  tuner.add_knowledge({{{"variant", 1}}, {{"time_ms", 20}, {"error", 0.08}}});
  tuner.add_knowledge({{{"variant", 2}}, {{"time_ms", 50}, {"error", 0.03}}});
  tuner.add_constraint({"error", ea::Constraint::Kind::LessEqual, 0.05, 2});
  tuner.set_rank({"time_ms", false});
  auto best = tuner.select();
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->knobs.at("variant"), 2.0);
}

TEST(Autotuner, MissingConstrainedMetricIsInfeasible) {
  // A point that never measured a constrained metric used to read as 0.0,
  // trivially passing any LessEqual bound and beating measured points.
  ea::Autotuner tuner;
  tuner.add_knowledge({{{"v", 0}}, {{"time_ms", 50}, {"error", 0.02}}});
  tuner.add_knowledge({{{"v", 1}}, {{"time_ms", 10}}});  // no error metric
  tuner.add_constraint({"error", ea::Constraint::Kind::LessEqual, 0.05, 2});
  tuner.set_rank({"time_ms", false});
  auto best = tuner.select();
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->knobs.at("v"), 0.0)
      << "unmeasured point must not satisfy the error constraint";
  EXPECT_EQ(tuner.last_relaxations(), 0);
}

TEST(Autotuner, MissingRankMetricRanksLast) {
  // An absent rank metric used to read as 0.0 and win any minimization.
  ea::Autotuner tuner;
  tuner.add_knowledge({{{"v", 0}}, {{"error", 0.01}}});  // no time_ms
  tuner.add_knowledge({{{"v", 1}}, {{"time_ms", 40}, {"error", 0.02}}});
  tuner.set_rank({"time_ms", false});
  auto best = tuner.select();
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->knobs.at("v"), 1.0)
      << "a measured point must outrank an unmeasured one";

  // All points unmeasured: selection still succeeds (first feasible wins).
  ea::Autotuner bare;
  bare.add_knowledge({{{"v", 7}}, {{"error", 0.01}}});
  bare.set_rank({"time_ms", false});
  auto fallback = bare.select();
  ASSERT_TRUE(fallback.has_value());
  EXPECT_DOUBLE_EQ(fallback->knobs.at("v"), 7.0);
}

TEST(Autotuner, RelaxesLowPriorityConstraints) {
  ea::Autotuner tuner;
  tuner.add_knowledge({{{"v", 0}}, {{"time_ms", 10}, {"error", 0.5}}});
  tuner.add_constraint({"error", ea::Constraint::Kind::LessEqual, 0.1, 1});
  tuner.set_rank({"time_ms", false});
  auto best = tuner.select();
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(tuner.last_relaxations(), 1);
}

TEST(Autotuner, AdaptsToObservedSlowdown) {
  // Point A is expected-fastest; observations reveal a 10x slowdown (e.g.
  // the FPGA variant lost its node), so the tuner switches to point B.
  ea::Autotuner tuner;
  tuner.add_knowledge({{{"v", 0}}, {{"time_ms", 10}}});
  tuner.add_knowledge({{{"v", 1}}, {{"time_ms", 40}}});
  tuner.set_rank({"time_ms", false});
  auto first = tuner.select();
  ASSERT_TRUE(first.has_value());
  EXPECT_DOUBLE_EQ(first->knobs.at("v"), 0.0);

  for (int i = 0; i < 12; ++i) tuner.observe("time_ms", 100.0);
  EXPECT_GT(tuner.correction("time_ms"), 5.0);
  // Correction applies globally; both inflate, but relative order is what a
  // per-variant environment shift changes. Model the environment shift by
  // feeding knowledge of the degraded variant:
  ea::Autotuner shifted;
  shifted.add_knowledge({{{"v", 0}}, {{"time_ms", 100}}});  // degraded
  shifted.add_knowledge({{{"v", 1}}, {{"time_ms", 40}}});
  shifted.set_rank({"time_ms", false});
  auto second = shifted.select();
  ASSERT_TRUE(second.has_value());
  EXPECT_DOUBLE_EQ(second->knobs.at("v"), 1.0);
}

TEST(Autotuner, FailsWithoutKnowledge) {
  ea::Autotuner tuner;
  EXPECT_FALSE(tuner.select().has_value());
}

TEST(Autotuner, SlidingMonitorWindow) {
  ea::SlidingMonitor mon(3);
  mon.push(1);
  mon.push(2);
  mon.push(3);
  mon.push(10);
  EXPECT_EQ(mon.count(), 3u);
  EXPECT_DOUBLE_EQ(mon.mean(), 5.0);
  EXPECT_DOUBLE_EQ(mon.last(), 10.0);
}

// ---------------------------------------------- autotuner x libvirt (§VI-B/C)

TEST(Autotuner, UsesLibvirtStatusForDecisions) {
  // Paper: "the node where the hypervisor is installed can respond to
  // queries about available resources ... The autotuner can use this feature
  // to make decisions." Knowledge has an FPGA variant; whether it is
  // feasible depends on the node's VF availability, queried via the
  // libvirt-like status API.
  ev::VirtNode node("phys0", 16, {ep::alveo_u55c()}, /*max_vfs_per_card=*/1);
  auto vm_other = node.create_vm("tenant", 4).value();
  auto vf_taken = node.attach_vf(vm_other, 0).value();

  auto build_tuner = [&](bool fpga_available) {
    ea::Autotuner tuner;
    tuner.add_knowledge({{{"variant", 0}}, {{"time_ms", 40.0}, {"fpga", 0.0}}});
    tuner.add_knowledge({{{"variant", 1}}, {{"time_ms", 5.0}, {"fpga", 1.0}}});
    // Constraint derived from the libvirt query: fpga-requiring points are
    // only feasible when a VF is free.
    tuner.add_constraint({"fpga", ea::Constraint::Kind::LessEqual,
                          fpga_available ? 1.0 : 0.0, 5});
    tuner.set_rank({"time_ms", false});
    return tuner;
  };

  auto status = node.status();
  bool vf_free = status.cards[0].attached_vfs < status.cards[0].max_vfs;
  EXPECT_FALSE(vf_free);  // the single VF is taken
  auto constrained = build_tuner(vf_free).select();
  ASSERT_TRUE(constrained.has_value());
  EXPECT_DOUBLE_EQ(constrained->knobs.at("variant"), 0.0);  // cpu fallback

  // The tenant releases its VF: the query now reports capacity and the
  // tuner switches to the FPGA variant.
  ASSERT_TRUE(node.detach_vf(vm_other, vf_taken).is_ok());
  status = node.status();
  vf_free = status.cards[0].attached_vfs < status.cards[0].max_vfs;
  EXPECT_TRUE(vf_free);
  auto free_pick = build_tuner(vf_free).select();
  ASSERT_TRUE(free_pick.has_value());
  EXPECT_DOUBLE_EQ(free_pick->knobs.at("variant"), 1.0);
}
