// Traffic example (paper §II-D + §VIII): run the Fig. 4 ConDRust
// map-matching coordination program through the deterministic dfg executor,
// compare against full offline Viterbi, and let the compile-time partitioner
// decide which sub-kernels go to the FPGA.
//
//   $ ./examples/traffic_mapmatch

#include <cstdio>

#include "frontend/condrust_parser.hpp"
#include "platform/fault_injector.hpp"
#include "runtime/dfg_executor.hpp"
#include "support/table.hpp"
#include "transforms/dfg_partition.hpp"
#include "usecases/speednet.hpp"
#include "usecases/traffic.hpp"
#include "usecases/traffic_model.hpp"

namespace tr = everest::usecases::traffic;
namespace er = everest::runtime;
namespace et = everest::transforms;

int main() {
  auto net = tr::make_grid_network(12, 1.0, 5);
  auto trace = tr::make_trace(net, 400, 0.04, 11);
  std::printf("== Map matching on a %zu-segment grid, %zu noisy FCD points ==\n\n",
              net.segments.size(), trace.points.size());

  // 1. The ConDRust program (Fig. 4) into a dfg graph.
  std::printf("ConDRust source:%s\n", tr::mapmatch_condrust_source().c_str());
  auto module = everest::frontend::parse_condrust(tr::mapmatch_condrust_source());
  if (!module) {
    std::fprintf(stderr, "parse failed: %s\n", module.error().message.c_str());
    return 1;
  }

  // 2. Execute with 1 and 8 workers; ConDRust semantics guarantee identical
  // results.
  er::NodeRegistry registry;
  tr::register_mapmatch_operators(registry, net);
  std::map<std::string, er::Stream> inputs;
  inputs["points"] = tr::trace_to_stream(trace);

  auto seq = er::execute_dfg(*module.value(), registry, inputs, {.workers = 1});
  auto par = er::execute_dfg(*module.value(), registry, inputs, {.workers = 8});
  if (!seq || !par) {
    std::fprintf(stderr, "execution failed\n");
    return 1;
  }
  bool deterministic = seq->at("best") == par->at("best");

  std::vector<int> streaming;
  for (const auto &rec : seq->at("best"))
    streaming.push_back(static_cast<int>(rec[0]));

  // 3. Full offline Viterbi for comparison.
  auto offline = tr::map_match(net, trace.points);
  if (!offline) {
    std::fprintf(stderr, "viterbi failed: %s\n", offline.error().message.c_str());
    return 1;
  }

  std::printf("streaming accuracy: %.1f%%   offline Viterbi: %.1f%%   "
              "deterministic across workers: %s\n\n",
              100.0 * tr::matching_accuracy(streaming, trace.true_segments),
              100.0 * tr::matching_accuracy(*offline, trace.true_segments),
              deterministic ? "yes" : "NO");

  // 3b. The same pipeline under seeded fault injection: node invocations
  // flake and fold steps die mid-stream, the executor retries and restores
  // checkpoints, and the result must still match the clean run exactly.
  everest::platform::FaultPlan fault_plan;
  fault_plan.node_fault_rate = 0.05;
  fault_plan.fold_fault_rate = 0.02;
  everest::platform::FaultInjector injector(/*seed=*/2026, fault_plan);
  er::DfgExecOptions faulted_options;
  faulted_options.workers = 8;
  faulted_options.faults = &injector;
  faulted_options.retry.max_attempts = 8;
  faulted_options.checkpoint.interval = 32;
  er::DfgRunStats resil_stats;
  auto faulted = er::execute_dfg(*module.value(), registry, inputs,
                                 faulted_options, &resil_stats);
  if (!faulted) {
    std::fprintf(stderr, "faulted execution did not recover: %s\n",
                 faulted.error().message.c_str());
    return 1;
  }
  bool recovered = faulted->at("best") == seq->at("best");
  std::printf("faulted run (seed %llu): %zu faults injected, %zu element "
              "retries,\n  %zu checkpoints saved, %zu restores, %zu elements "
              "replayed -> output %s\n\n",
              static_cast<unsigned long long>(injector.seed()),
              resil_stats.faults_injected, resil_stats.element_retries,
              resil_stats.checkpoints_saved, resil_stats.checkpoint_restores,
              resil_stats.elements_replayed,
              recovered ? "identical to the clean run" : "DIVERGED");
  deterministic = deterministic && recovered;

  // 4. Compile-time CPU/FPGA placement of the sub-kernels (costs measured
  // offline; candidates is HLS-friendly, folds stay on CPU).
  std::map<std::string, et::NodeCost> costs;
  costs["candidates"] = {4.0, 0.25, 180'000, 400.0 * 96};
  costs["emission_score"] = {0.8, 0.1, 60'000, 400.0 * 96};
  costs["greedy_pick"] = {0.2, 0.15, 30'000, 400.0 * 8};
  costs["viterbi_step"] = {1.5, 1.5, 0, 400.0 * 96};
  costs["decode"] = {0.1, 0.2, 20'000, 8.0};
  auto placement = et::partition_dfg(*module.value(), costs);
  if (!placement) {
    std::fprintf(stderr, "partition failed: %s\n",
                 placement.error().message.c_str());
    return 1;
  }
  everest::support::Table table({"sub-kernel", "placement"});
  for (const auto &[name, where] : placement->placement) {
    if (name != "__host") table.add_row({name, where});
  }
  std::printf("%s\npredicted latency %.2f ms, %lld LUTs (%zu assignments "
              "explored)\n\n",
              table.render().c_str(), placement->predicted_ms,
              static_cast<long long>(placement->luts_used),
              placement->explored);

  // 5. The daily model computation: ODM demand -> macroscopic parameters
  // (speed/flow/intensity per 15-minute interval) + per-segment prediction
  // coefficients; plus the CNN speed predictor over yesterday's profile.
  auto odm = tr::make_odm(net, 8000.0, 21);
  auto model = tr::build_model(net, odm, 22);
  if (!model) {
    std::fprintf(stderr, "traffic model failed: %s\n",
                 model.error().message.c_str());
    return 1;
  }
  // Busiest segment at the evening rush.
  std::size_t busiest = 0;
  for (std::size_t s = 0; s < model->segments.size(); ++s) {
    if (model->segments[s].flow[70] > model->segments[busiest].flow[70])
      busiest = s;
  }
  const auto &state = model->segments[busiest];
  std::printf("busiest segment #%zu at 17:30: flow %.0f veh/15min, "
              "speed %.1f km/h, intensity %.1f\n",
              busiest, state.flow[70], state.speed_kmh[70],
              state.intensity[70]);
  std::printf("prediction coefficients: c0=%.1f c1=%.2f c2=%.2f c3=%.2f "
              "c4=%.2f  (predict(17:30) = %.1f km/h)\n",
              model->coeffs[busiest].c[0], model->coeffs[busiest].c[1],
              model->coeffs[busiest].c[2], model->coeffs[busiest].c[3],
              model->coeffs[busiest].c[4], model->coeffs[busiest].predict(70));

  auto cnn = everest::usecases::speednet::load_model(42);
  if (cnn) {
    std::vector<double> temp(96, 14.0), precip(96, 0.0);
    auto input = everest::usecases::speednet::make_input(state.speed_kmh, temp,
                                                         precip);
    auto next = everest::usecases::speednet::predict(*cnn, input);
    if (next) {
      std::printf("CNN (untrained demo weights) next-hour outputs: "
                  "%.1f %.1f %.1f %.1f\n",
                  (*next)[0], (*next)[1], (*next)[2], (*next)[3]);
    }
  }
  return deterministic ? 0 : 1;
}
