// F4 (paper Fig. 4): the ConDRust map-matching coordination program.
// Reproduces the figure's point — the imperative Rust-subset program yields
// a deterministic parallel dataflow — by executing it over worker counts
// 1..16 and checking (a) bit-identical outputs and (b) throughput scaling of
// the stateless stages.

#include <cstdio>

#include "median_time.hpp"

#include "frontend/condrust_parser.hpp"
#include "runtime/dfg_executor.hpp"
#include "support/table.hpp"
#include "usecases/traffic.hpp"

namespace tr = everest::usecases::traffic;
namespace er = everest::runtime;

namespace {

struct Setup {
  std::shared_ptr<everest::ir::Module> module;
  er::NodeRegistry registry;
  std::map<std::string, er::Stream> inputs;
  tr::FcdTrace trace;
};

Setup make_setup(int points) {
  Setup s;
  auto net = tr::make_grid_network(16, 1.0, 5);
  s.trace = tr::make_trace(net, points, 0.04, 11);
  s.module = everest::frontend::parse_condrust(tr::mapmatch_condrust_source())
                 .value_or(nullptr);
  tr::register_mapmatch_operators(s.registry, net);
  s.inputs["points"] = tr::trace_to_stream(s.trace);
  return s;
}

}  // namespace

int main() {
  std::printf("== F4: ConDRust map matching (Fig. 4) ==\n\n");

  auto setup = make_setup(1000);
  if (!setup.module) {
    std::fprintf(stderr, "parse failed\n");
    return 1;
  }

  everest::support::Table table({"workers", "identical to w=1",
                                 "streaming accuracy"});
  auto baseline =
      er::execute_dfg(*setup.module, setup.registry, setup.inputs,
                      {.workers = 1});
  if (!baseline) {
    std::fprintf(stderr, "execution failed: %s\n",
                 baseline.error().message.c_str());
    return 1;
  }
  std::vector<int> matched;
  for (const auto &rec : baseline->at("best"))
    matched.push_back(static_cast<int>(rec[0]));
  double acc = tr::matching_accuracy(matched, setup.trace.true_segments);

  bool all_identical = true;
  for (int workers : {1, 2, 4, 8, 16}) {
    auto out =
        er::execute_dfg(*setup.module, setup.registry, setup.inputs,
                        {.workers = workers});
    bool same = out.has_value() && out->at("best") == baseline->at("best");
    all_identical = all_identical && same;
    char a[32];
    std::snprintf(a, sizeof a, "%.1f%%", 100.0 * acc);
    table.add_row({std::to_string(workers), same ? "yes" : "NO", a});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("determinism (ConDRust guarantee): %s\n\n",
              all_identical ? "HOLDS" : "VIOLATED");

  constexpr int kPoints = 2000;
  auto timed = make_setup(kPoints);
  everest::support::Table timing({"case", "median [ms]", "points/s"});
  for (int workers : {1, 2, 4, 8, 16}) {
    double ms = everest::bench::median_ms([&] {
      er::execute_dfg(*timed.module, timed.registry, timed.inputs,
                      {.workers = workers});
    });
    char m[32], rate[32];
    std::snprintf(m, sizeof m, "%.3f", ms);
    std::snprintf(rate, sizeof rate, "%.0f", kPoints / (ms / 1000.0));
    timing.add_row({"MapMatchWorkers/" + std::to_string(workers), m, rate});
  }
  std::printf("%s\n", timing.render().c_str());
  return all_identical ? 0 : 1;
}
