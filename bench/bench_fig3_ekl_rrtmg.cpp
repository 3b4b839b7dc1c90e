// F3 (paper Fig. 3): the EKL major-absorber kernel. Reproduces the figure's
// two claims: (a) the EKL program is tiny compared to the loop
// implementation ("This code snippet corresponds to 200 lines of Fortran");
// (b) it compiles and computes the same values. Times the reference kernel,
// the EKL interpreter, and the lowered TeIL interpreter across g-point
// counts (median of a fixed repetition count).

#include <cstdio>
#include <memory>
#include <string>

#include "median_time.hpp"

#include "frontend/ekl_parser.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "transforms/ekl_eval.hpp"
#include "transforms/ekl_to_teil.hpp"
#include "transforms/teil_eval.hpp"
#include "usecases/rrtmg.hpp"

namespace rr = everest::usecases::rrtmg;
namespace et = everest::transforms;

namespace {

rr::Data data_for(std::int64_t ng) {
  rr::Config config;
  config.ncells = 64;
  config.ng = ng;
  return rr::make_data(config);
}

/// One row of the speed table: `label` timed by median_ms.
template <typename Fn>
void add_timing(everest::support::Table &table, const std::string &label,
                Fn &&fn) {
  char ms[32];
  std::snprintf(ms, sizeof ms, "%.3f", everest::bench::median_ms(fn));
  table.add_row({label, ms});
}

}  // namespace

int main() {
  std::printf("== F3: EKL RRTMG kernel (Fig. 3) ==\n\n");

  // Code-size claim.
  std::size_t ekl_lines = everest::frontend::count_ekl_lines(rr::ekl_source());
  std::size_t ref_lines = rr::reference_line_count();
  everest::support::Table loc({"implementation", "lines", "ratio"});
  loc.add_row({"EKL (Fig. 3 syntax)", std::to_string(ekl_lines), "1.0x"});
  char ratio[32];
  std::snprintf(ratio, sizeof ratio, "%.1fx",
                static_cast<double>(ref_lines) / ekl_lines);
  loc.add_row({"reference C++ loops (major term only)",
               std::to_string(ref_lines), ratio});
  loc.add_row({"full Fortran RRTMG (paper's count)", "200", "-"});
  std::printf("%s\n", loc.render().c_str());

  // Correctness across g-point sweeps.
  everest::support::Table correctness({"ng", "max |EKL - ref|",
                                       "max |TeIL - ref|"});
  for (std::int64_t ng : {4, 8, 16, 32}) {
    auto data = data_for(ng);
    auto module = everest::frontend::parse_ekl(rr::ekl_source());
    auto bindings = rr::bindings(data);
    auto direct = et::evaluate_ekl(*module.value(), bindings);
    auto teil = et::lower_ekl_to_teil(*module.value(), bindings);
    auto lowered = et::evaluate_teil(*teil.value(), bindings.inputs);
    auto ref = rr::reference_tau(data);
    char e1[32], e2[32];
    std::snprintf(e1, sizeof e1, "%.2e",
                  everest::support::max_abs_diff(direct.value().at("tau").data(),
                                                 ref.data()));
    std::snprintf(e2, sizeof e2, "%.2e",
                  everest::support::max_abs_diff(lowered.value().at("tau").data(),
                                                 ref.data()));
    correctness.add_row({std::to_string(ng), e1, e2});
  }
  std::printf("%s\n", correctness.render().c_str());

  everest::support::Table timing({"case", "median [ms]"});
  for (std::int64_t ng : {8, 16, 32}) {
    auto data = data_for(ng);
    add_timing(timing, "ReferenceKernel/" + std::to_string(ng),
               [&] { rr::reference_tau(data); });
  }
  auto module = everest::frontend::parse_ekl(rr::ekl_source());
  for (std::int64_t ng : {8, 16}) {
    auto data = data_for(ng);
    auto bindings = rr::bindings(data);
    add_timing(timing, "EklInterpreter/" + std::to_string(ng),
               [&] { et::evaluate_ekl(*module.value(), bindings); });
  }
  for (std::int64_t ng : {8, 16}) {
    auto data = data_for(ng);
    auto bindings = rr::bindings(data);
    auto teil = et::lower_ekl_to_teil(*module.value(), bindings);
    add_timing(timing, "TeilInterpreter/" + std::to_string(ng),
               [&] { et::evaluate_teil(*teil.value(), bindings.inputs); });
  }
  auto bindings = rr::bindings(data_for(8));
  add_timing(timing, "FullCompile", [&] {
    auto parsed = everest::frontend::parse_ekl(rr::ekl_source());
    et::lower_ekl_to_teil(*parsed.value(), bindings);
  });
  std::printf("%s\n", timing.render().c_str());
  return 0;
}
