// Tests for the lowering pipeline: EKL evaluation, ekl->teil, teil
// evaluation, cfdlang->teil, einsum extraction/ordering, loop lowering,
// base2 legalization, and dfg partitioning. Includes the Fig. 3 end-to-end
// equivalence property against the hand-written RRTMG reference.

#include <gtest/gtest.h>

#include "dialects/registry.hpp"
#include "frontend/cfdlang_parser.hpp"
#include "frontend/condrust_parser.hpp"
#include "frontend/ekl_parser.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "transforms/base2_legalize.hpp"
#include "transforms/cfdlang_to_teil.hpp"
#include "transforms/dfg_partition.hpp"
#include "transforms/ekl_eval.hpp"
#include "transforms/ekl_to_teil.hpp"
#include "transforms/esn_extract.hpp"
#include "runtime/dfg_executor.hpp"
#include "transforms/loop_eval.hpp"
#include "transforms/teil_eval.hpp"
#include "transforms/teil_to_loops.hpp"
#include "usecases/rrtmg.hpp"

namespace ef = everest::frontend;
namespace ei = everest::ir;
namespace en = everest::numerics;
namespace et = everest::transforms;
namespace rr = everest::usecases::rrtmg;

class TransformTest : public ::testing::Test {
protected:
  void SetUp() override {
    everest::dialects::register_everest_dialects(ctx_);
  }
  ei::Context ctx_;
};

// --------------------------------------------------------- EKL evaluation

TEST_F(TransformTest, EvalSimpleScale) {
  auto m = ef::parse_ekl(R"(
kernel scale
index i
input a[i]
b = a[i] * 2 + 1
output b
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  et::EklBindings bind;
  bind.inputs.emplace("a", en::Tensor(en::Shape{3}, std::vector<double>{1, 2, 3}));
  auto out = et::evaluate_ekl(**m, bind);
  ASSERT_TRUE(out.has_value()) << out.error().message;
  const auto &b = out->at("b");
  EXPECT_DOUBLE_EQ(b(0), 3.0);
  EXPECT_DOUBLE_EQ(b(2), 7.0);
}

TEST_F(TransformTest, EvalBroadcastOuter) {
  auto m = ef::parse_ekl(R"(
kernel outer
index i, j
input a[i]
input b[j]
c = a[i] * b[j]
output c
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  et::EklBindings bind;
  bind.inputs.emplace("a", en::Tensor(en::Shape{2}, std::vector<double>{2, 3}));
  bind.inputs.emplace("b", en::Tensor(en::Shape{3}, std::vector<double>{1, 10, 100}));
  auto out = et::evaluate_ekl(**m, bind);
  ASSERT_TRUE(out.has_value()) << out.error().message;
  const auto &c = out->at("c");
  EXPECT_EQ(c.shape(), (en::Shape{2, 3}));
  EXPECT_DOUBLE_EQ(c(1, 2), 300.0);
}

TEST_F(TransformTest, EvalSumReduction) {
  auto m = ef::parse_ekl(R"(
kernel dot
index i
input a[i]
input b[i]
d = sum(i) a[i] * b[i]
output d
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  et::EklBindings bind;
  bind.inputs.emplace("a", en::Tensor(en::Shape{3}, std::vector<double>{1, 2, 3}));
  bind.inputs.emplace("b", en::Tensor(en::Shape{3}, std::vector<double>{4, 5, 6}));
  auto out = et::evaluate_ekl(**m, bind);
  ASSERT_TRUE(out.has_value()) << out.error().message;
  EXPECT_DOUBLE_EQ(out->at("d").flat(0), 32.0);
}

TEST_F(TransformTest, EvalGatherSubscriptedSubscripts) {
  auto m = ef::parse_ekl(R"(
kernel g
index i
input table[k]
input sel[i]
v = table[sel[i]]
output v
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  et::EklBindings bind;
  bind.inputs.emplace("table",
                      en::Tensor(en::Shape{4}, std::vector<double>{10, 20, 30, 40}));
  bind.inputs.emplace("sel", en::Tensor(en::Shape{3}, std::vector<double>{2, 0, 3}));
  auto out = et::evaluate_ekl(**m, bind);
  ASSERT_TRUE(out.has_value()) << out.error().message;
  const auto &v = out->at("v");
  EXPECT_DOUBLE_EQ(v(0), 30.0);
  EXPECT_DOUBLE_EQ(v(1), 10.0);
  EXPECT_DOUBLE_EQ(v(2), 40.0);
}

TEST_F(TransformTest, EvalMissingInputFails) {
  auto m = ef::parse_ekl("kernel k\nindex i\ninput a[i]\nb = a * 1\noutput b\n");
  ASSERT_TRUE(m.has_value());
  auto out = et::evaluate_ekl(**m, {});
  EXPECT_FALSE(out.has_value());
}

TEST_F(TransformTest, EvalConflictingExtentsFail) {
  auto m = ef::parse_ekl(R"(
kernel k
index i
input a[i]
input b[i]
c = a + b
output c
)");
  ASSERT_TRUE(m.has_value());
  et::EklBindings bind;
  bind.inputs.emplace("a", en::Tensor(en::Shape{3}));
  bind.inputs.emplace("b", en::Tensor(en::Shape{4}));
  EXPECT_FALSE(et::evaluate_ekl(**m, bind).has_value());
}

// ------------------------------------------------ Fig. 3 RRTMG end to end

TEST_F(TransformTest, RrtmgEklMatchesReference) {
  rr::Config cfg;
  cfg.ncells = 10;
  cfg.nbnd = 3;
  cfg.ng = 5;
  rr::Data data = rr::make_data(cfg);

  auto m = ef::parse_ekl(rr::ekl_source());
  ASSERT_TRUE(m.has_value()) << m.error().message;
  ASSERT_TRUE(ctx_.verify(**m).is_ok()) << ctx_.verify(**m).message();

  auto out = et::evaluate_ekl(**m, rr::bindings(data));
  ASSERT_TRUE(out.has_value()) << out.error().message;
  const auto &tau = out->at("tau");
  en::Tensor ref = rr::reference_tau(data);
  ASSERT_EQ(tau.shape(), ref.shape());
  EXPECT_LT(everest::support::max_abs_diff(tau.data(), ref.data()), 1e-12);
}

TEST_F(TransformTest, RrtmgTeilLoweringMatchesReference) {
  rr::Config cfg;
  cfg.ncells = 8;
  cfg.nbnd = 2;
  cfg.ng = 4;
  cfg.seed = 7;
  rr::Data data = rr::make_data(cfg);

  auto m = ef::parse_ekl(rr::ekl_source());
  ASSERT_TRUE(m.has_value());
  auto bind = rr::bindings(data);
  auto teil = et::lower_ekl_to_teil(**m, bind);
  ASSERT_TRUE(teil.has_value()) << teil.error().message;
  ASSERT_TRUE(ctx_.verify(**teil).is_ok()) << ctx_.verify(**teil).message();

  auto out = et::evaluate_teil(**teil, bind.inputs);
  ASSERT_TRUE(out.has_value()) << out.error().message;
  en::Tensor ref = rr::reference_tau(data);
  EXPECT_LT(everest::support::max_abs_diff(out->at("tau").data(), ref.data()),
            1e-12);
}

// Property: ekl evaluation and teil lowering agree on random programs/data.
class EklTeilEquivalence : public TransformTest,
                           public ::testing::WithParamInterface<int> {};

TEST_P(EklTeilEquivalence, RandomData) {
  rr::Config cfg;
  cfg.ncells = 6;
  cfg.nbnd = 2;
  cfg.ng = 3;
  cfg.seed = static_cast<std::uint64_t>(GetParam());
  rr::Data data = rr::make_data(cfg);

  auto m = ef::parse_ekl(rr::ekl_source());
  ASSERT_TRUE(m.has_value());
  auto bind = rr::bindings(data);

  auto direct = et::evaluate_ekl(**m, bind);
  ASSERT_TRUE(direct.has_value());
  auto teil = et::lower_ekl_to_teil(**m, bind);
  ASSERT_TRUE(teil.has_value());
  auto lowered = et::evaluate_teil(**teil, bind.inputs);
  ASSERT_TRUE(lowered.has_value());
  EXPECT_LT(everest::support::max_abs_diff(direct->at("tau").data(),
                                           lowered->at("tau").data()),
            1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EklTeilEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------------------------------- cfdlang -> teil

TEST_F(TransformTest, CfdlangMatmulLowersAndEvaluates) {
  auto m = ef::parse_cfdlang(R"(
program mm
input A : [2, 3]
input B : [3, 2]
output C = contract(outer(A, B), 1, 2)
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  auto teil = et::lower_cfdlang_to_teil(**m);
  ASSERT_TRUE(teil.has_value()) << teil.error().message;
  ASSERT_TRUE(ctx_.verify(**teil).is_ok()) << ctx_.verify(**teil).message();

  std::map<std::string, en::Tensor> inputs;
  inputs.emplace("A", en::Tensor(en::Shape{2, 3},
                                 std::vector<double>{1, 2, 3, 4, 5, 6}));
  inputs.emplace("B", en::Tensor(en::Shape{3, 2},
                                 std::vector<double>{7, 8, 9, 10, 11, 12}));
  auto out = et::evaluate_teil(**teil, inputs);
  ASSERT_TRUE(out.has_value()) << out.error().message;
  const auto &c = out->at("C");
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST_F(TransformTest, CfdlangTraceViaRepeatedLetters) {
  auto m = ef::parse_cfdlang(R"(
program tr
input A : [3, 3]
output t = contract(A, 0, 1)
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  auto teil = et::lower_cfdlang_to_teil(**m);
  ASSERT_TRUE(teil.has_value()) << teil.error().message;
  std::map<std::string, en::Tensor> inputs;
  inputs.emplace("A", en::Tensor(en::Shape{3, 3},
                                 std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
  auto out = et::evaluate_teil(**teil, inputs);
  ASSERT_TRUE(out.has_value()) << out.error().message;
  EXPECT_DOUBLE_EQ(out->at("t").flat(0), 15.0);
}

// ----------------------------------------------------- einsum extraction

TEST_F(TransformTest, ExtractAndReorderEinsum) {
  // Chain contraction a[i,j] * b[j,k] * c[k] summed over j,k: greedy order
  // should contract b*c first (small intermediate).
  auto m = ef::parse_ekl(R"(
kernel chain
index i, j, k
input a[i, j]
input b[j, k]
input c[k]
r = sum(j, k) a[i, j] * b[j, k] * c[k]
output r
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;

  et::EklBindings bind;
  everest::support::Pcg32 rng(99);
  en::Tensor a(en::Shape{40, 30}), b(en::Shape{30, 20}), c(en::Shape{20});
  for (auto &v : a.data()) v = rng.normal();
  for (auto &v : b.data()) v = rng.normal();
  for (auto &v : c.data()) v = rng.normal();
  bind.inputs.emplace("a", a);
  bind.inputs.emplace("b", b);
  bind.inputs.emplace("c", c);

  auto direct = et::evaluate_ekl(**m, bind);
  ASSERT_TRUE(direct.has_value());

  auto teil = et::lower_ekl_to_teil(**m, bind);
  ASSERT_TRUE(teil.has_value());
  std::size_t raised = et::extract_einsums(**teil);
  EXPECT_EQ(raised, 1u);
  et::eliminate_dead_code(**teil);

  auto einsums = (*teil)->find_all("esn.einsum");
  ASSERT_EQ(einsums.size(), 1u);
  EXPECT_EQ(einsums[0]->num_operands(), 3u);
  ASSERT_TRUE(ctx_.verify(**teil).is_ok()) << ctx_.verify(**teil).message();

  auto naive = et::plan_einsum(*einsums[0], /*optimize=*/false);
  auto greedy = et::plan_einsum(*einsums[0], /*optimize=*/true);
  EXPECT_LT(greedy.estimated_flops, naive.estimated_flops);

  auto flops = et::lower_esn(**teil, /*optimize_order=*/true);
  ASSERT_TRUE(flops.has_value()) << flops.error().message;
  et::eliminate_dead_code(**teil);
  ASSERT_TRUE(ctx_.verify(**teil).is_ok()) << ctx_.verify(**teil).message();
  EXPECT_EQ((*teil)->find_all("esn.einsum").size(), 0u);
  EXPECT_GE((*teil)->find_all("teil.contract").size(), 2u);

  auto lowered = et::evaluate_teil(**teil, bind.inputs);
  ASSERT_TRUE(lowered.has_value()) << lowered.error().message;
  EXPECT_LT(everest::support::max_abs_diff(direct->at("r").data(),
                                           lowered->at("r").data()),
            1e-7);
}

TEST_F(TransformTest, DeadCodeElimination) {
  auto m = ef::parse_ekl(R"(
kernel dce
index i
input a[i]
unused = a * 3
b = a * 2
output b
)");
  ASSERT_TRUE(m.has_value());
  et::EklBindings bind;
  bind.inputs.emplace("a", en::Tensor(en::Shape{2}));
  auto teil = et::lower_ekl_to_teil(**m, bind);
  ASSERT_TRUE(teil.has_value());
  std::size_t before = (*teil)->op_count();
  std::size_t removed = et::eliminate_dead_code(**teil);
  EXPECT_GT(removed, 0u);
  EXPECT_EQ((*teil)->op_count(), before - removed);
  ASSERT_TRUE(ctx_.verify(**teil).is_ok());
}

// --------------------------------------------------------- teil -> loops

TEST_F(TransformTest, LoopLoweringStructure) {
  auto m = ef::parse_ekl(R"(
kernel dot
index i
input a[i]
input b[i]
d = sum(i) a[i] * b[i]
output d
)");
  ASSERT_TRUE(m.has_value());
  et::EklBindings bind;
  bind.inputs.emplace("a", en::Tensor(en::Shape{16}));
  bind.inputs.emplace("b", en::Tensor(en::Shape{16}));
  auto teil = et::lower_ekl_to_teil(**m, bind);
  ASSERT_TRUE(teil.has_value());
  auto loops = et::lower_teil_to_loops(**teil);
  ASSERT_TRUE(loops.has_value()) << loops.error().message;
  ASSERT_TRUE(ctx_.verify(**loops).is_ok()) << ctx_.verify(**loops).message();

  // Expect loop nests with trip_count attributes and memref traffic.
  auto fors = (*loops)->find_all("scf.for");
  ASSERT_FALSE(fors.empty());
  for (auto *f : fors) EXPECT_GT(f->attr_int("trip_count"), 0);
  EXPECT_FALSE((*loops)->find_all("memref.load").empty());
  EXPECT_FALSE((*loops)->find_all("memref.store").empty());

  // Input/output buffers are tagged for Olympus.
  std::size_t io = 0;
  for (auto *alloc : (*loops)->find_all("memref.alloc")) {
    std::string kind = alloc->attr_string("kind", "");
    if (kind == "input" || kind == "output") ++io;
    EXPECT_GT(alloc->attr_int("bytes"), 0);
  }
  EXPECT_EQ(io, 3u);  // a, b in; d out
}

// ----------------------------------------------------------- base2 types

TEST_F(TransformTest, MakeFormatSpecs) {
  EXPECT_TRUE(et::make_format("f32").has_value());
  EXPECT_TRUE(et::make_format("fixed<16,8>").has_value());
  EXPECT_TRUE(et::make_format("float<5,10>").has_value());
  EXPECT_TRUE(et::make_format("posit<16,1>").has_value());
  EXPECT_FALSE(et::make_format("complex<2>").has_value());
  EXPECT_FALSE(et::make_format("fixed<1,0>").has_value());
}

TEST_F(TransformTest, AnnotateBase2RetypesTensors) {
  auto m = ef::parse_ekl("kernel k\nindex i\ninput a[i]\nb = a * 2\noutput b\n");
  ASSERT_TRUE(m.has_value());
  et::EklBindings bind;
  bind.inputs.emplace("a", en::Tensor(en::Shape{4}));
  auto teil = et::lower_ekl_to_teil(**m, bind);
  ASSERT_TRUE(teil.has_value());
  auto width = et::annotate_base2(**teil, "fixed<16,8>");
  ASSERT_TRUE(width.has_value()) << width.error().message;
  EXPECT_EQ(*width, 16);
  auto *input = (*teil)->find_first("teil.input");
  ASSERT_NE(input, nullptr);
  EXPECT_EQ(input->result(0)->type().str(), "tensor<4x!base2.fixed<16,8>>");
  EXPECT_EQ(input->attr_string("base2.format"), "fixed<16,8>");
}

TEST_F(TransformTest, QuantizedEvalDegradesGracefully) {
  rr::Config cfg;
  cfg.ncells = 6;
  cfg.nbnd = 2;
  cfg.ng = 3;
  rr::Data data = rr::make_data(cfg);
  auto m = ef::parse_ekl(rr::ekl_source());
  ASSERT_TRUE(m.has_value());
  auto bind = rr::bindings(data);
  auto teil = et::lower_ekl_to_teil(**m, bind);
  ASSERT_TRUE(teil.has_value());

  auto exact = et::evaluate_teil(**teil, bind.inputs);
  ASSERT_TRUE(exact.has_value());

  auto fmt16 = et::make_format("fixed<16,12>");
  auto fmt8 = et::make_format("fixed<8,6>");
  ASSERT_TRUE(fmt16.has_value());
  ASSERT_TRUE(fmt8.has_value());
  auto q16 = et::evaluate_teil(**teil, bind.inputs, fmt16->get());
  auto q8 = et::evaluate_teil(**teil, bind.inputs, fmt8->get());
  ASSERT_TRUE(q16.has_value());
  ASSERT_TRUE(q8.has_value());

  double err16 = everest::support::max_abs_diff(exact->at("tau").data(),
                                                q16->at("tau").data());
  double err8 = everest::support::max_abs_diff(exact->at("tau").data(),
                                               q8->at("tau").data());
  EXPECT_GT(err16, 0.0);
  EXPECT_GT(err8, err16);  // fewer bits, more error
  EXPECT_LT(err16, 0.05);  // but 16-bit stays close
}

// -------------------------------------------------------- dfg partitioning

TEST_F(TransformTest, PartitionPrefersFpgaForComputeHeavy) {
  auto m = ef::parse_condrust(R"(
fn pipe(xs: Stream<f64>) -> Stream<f64> {
    let a = heavy(xs);
    let b = light(a);
    return b;
}
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  std::map<std::string, et::NodeCost> costs;
  costs["heavy"] = {100.0, 5.0, 200'000, 1000.0};
  costs["light"] = {1.0, 1.6, 150'000, 1000.0};  // not worth offloading
  auto result = et::partition_dfg(**m, costs);
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_EQ(result->placement.at("heavy"), "fpga");
  EXPECT_EQ(result->placement.at("light"), "cpu");
}

TEST_F(TransformTest, PartitionAvoidsPingPongTransfers) {
  // heavy1 -> light -> heavy2: even though light itself is faster on CPU,
  // leaving it between two FPGA stages would cost two extra PCIe crossings.
  auto m = ef::parse_condrust(R"(
fn pipe(xs: Stream<f64>) -> Stream<f64> {
    let a = heavy1(xs);
    let b = light(a);
    let c = heavy2(b);
    return c;
}
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  std::map<std::string, et::NodeCost> costs;
  costs["heavy1"] = {100.0, 5.0, 200'000, 64.0e6};
  costs["light"] = {1.0, 1.2, 50'000, 64.0e6};  // 64 MB per batch boundary
  costs["heavy2"] = {100.0, 5.0, 200'000, 1.0e3};
  auto result = et::partition_dfg(**m, costs);
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_EQ(result->placement.at("light"), "fpga");
}

TEST_F(TransformTest, PartitionHonorsLutBudget) {
  auto m = ef::parse_condrust(R"(
fn pipe(xs: Stream<f64>) -> Stream<f64> {
    let a = big1(xs);
    let b = big2(a);
    return b;
}
)");
  ASSERT_TRUE(m.has_value());
  std::map<std::string, et::NodeCost> costs;
  costs["big1"] = {50.0, 1.0, 900'000, 10.0};
  costs["big2"] = {50.0, 1.0, 900'000, 10.0};
  et::PlacementBudget budget;
  budget.available_luts = 1'000'000;  // only one fits
  auto result = et::partition_dfg(**m, costs, budget);
  ASSERT_TRUE(result.has_value()) << result.error().message;
  int on_fpga = (result->placement.at("big1") == "fpga") +
                (result->placement.at("big2") == "fpga");
  EXPECT_EQ(on_fpga, 1);
  EXPECT_LE(result->luts_used, budget.available_luts);
}

TEST_F(TransformTest, PartitionHonorsPinnedPlacement) {
  auto m = ef::parse_condrust(R"(
fn pipe(xs: Stream<f64>) -> Stream<f64> {
    #[cpu]
    let a = heavy(xs);
    return a;
}
)");
  ASSERT_TRUE(m.has_value());
  std::map<std::string, et::NodeCost> costs;
  costs["heavy"] = {100.0, 1.0, 1000, 10.0};
  auto result = et::partition_dfg(**m, costs);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->placement.at("heavy"), "cpu");
}

TEST_F(TransformTest, PartitionMissingCostFails) {
  auto m = ef::parse_condrust(R"(
fn pipe(xs: Stream<f64>) -> Stream<f64> {
    let a = mystery(xs);
    return a;
}
)");
  ASSERT_TRUE(m.has_value());
  EXPECT_FALSE(et::partition_dfg(**m, {}).has_value());
}

// -------------------------------------------------------------- flop count

TEST_F(TransformTest, TeilFlopCountPositive) {
  rr::Config cfg;
  rr::Data data = rr::make_data(cfg);
  auto m = ef::parse_ekl(rr::ekl_source());
  ASSERT_TRUE(m.has_value());
  auto teil = et::lower_ekl_to_teil(**m, rr::bindings(data));
  ASSERT_TRUE(teil.has_value());
  EXPECT_GT(et::teil_flop_count(**teil), 1000u);
}

// ---------------------------------------------------------------------
// Randomized differential testing: for ~50 seeded random elementwise EKL
// programs, the EKL evaluator, the TeIL evaluator (after lowering), the
// loop-IR interpreter (after a second lowering — the exact IR HLS sees),
// and the ConDRust dfg executor must agree elementwise to 1e-9.

namespace {

struct RandomExpr {
  enum class Tok { A, B, Const, Add, Sub, Mul };
  std::string text;  // EKL expression over a[i], b[i], and int constants
  std::vector<std::pair<Tok, double>> postfix;  // same expr, for the dfg node
  bool uses_input = false;
};

RandomExpr gen_expr(everest::support::Pcg32 &rng, int depth) {
  RandomExpr e;
  if (depth == 0 || rng.uniform() < 0.3) {
    double leaf = rng.uniform();
    if (leaf < 0.4) {
      e.text = "a[i]";
      e.postfix = {{RandomExpr::Tok::A, 0.0}};
      e.uses_input = true;
    } else if (leaf < 0.8) {
      e.text = "b[i]";
      e.postfix = {{RandomExpr::Tok::B, 0.0}};
      e.uses_input = true;
    } else {
      int k = 1 + static_cast<int>(rng.uniform() * 9.0);
      e.text = std::to_string(k);
      e.postfix = {{RandomExpr::Tok::Const, static_cast<double>(k)}};
    }
    return e;
  }
  RandomExpr lhs = gen_expr(rng, depth - 1);
  RandomExpr rhs = gen_expr(rng, depth - 1);
  double pick = rng.uniform();
  const char *op = pick < 0.34 ? "+" : pick < 0.67 ? "-" : "*";
  RandomExpr::Tok tok = pick < 0.34   ? RandomExpr::Tok::Add
                        : pick < 0.67 ? RandomExpr::Tok::Sub
                                      : RandomExpr::Tok::Mul;
  e.text = "(" + lhs.text + " " + op + " " + rhs.text + ")";
  e.postfix = lhs.postfix;
  e.postfix.insert(e.postfix.end(), rhs.postfix.begin(), rhs.postfix.end());
  e.postfix.push_back({tok, 0.0});
  e.uses_input = lhs.uses_input || rhs.uses_input;
  return e;
}

double eval_postfix(const RandomExpr &expr, double a, double b) {
  std::vector<double> stack;
  for (const auto &[tok, value] : expr.postfix) {
    switch (tok) {
      case RandomExpr::Tok::A: stack.push_back(a); break;
      case RandomExpr::Tok::B: stack.push_back(b); break;
      case RandomExpr::Tok::Const: stack.push_back(value); break;
      default: {
        double r = stack.back(); stack.pop_back();
        double l = stack.back(); stack.pop_back();
        stack.push_back(tok == RandomExpr::Tok::Add   ? l + r
                        : tok == RandomExpr::Tok::Sub ? l - r
                                                      : l * r);
      }
    }
  }
  return stack.back();
}

}  // namespace

TEST_F(TransformTest, DifferentialRandomEklAcrossAllEvaluators) {
  everest::support::Pcg32 rng(20260807);
  namespace er = everest::runtime;
  constexpr std::int64_t n = 16;
  constexpr int kCases = 50;
  for (int c = 0; c < kCases; ++c) {
    RandomExpr expr = gen_expr(rng, 2 + c % 2);
    if (!expr.uses_input) {  // keep the output a vector over i
      expr.text = "(" + expr.text + " + a[i])";
      expr.postfix.push_back({RandomExpr::Tok::A, 0.0});
      expr.postfix.push_back({RandomExpr::Tok::Add, 0.0});
    }
    std::string source = "kernel rnd" + std::to_string(c) +
                         "\nindex i\ninput a[i]\ninput b[i]\nc = " + expr.text +
                         "\noutput c\n";
    SCOPED_TRACE(source);

    et::EklBindings bind;
    en::Tensor a(en::Shape{n});
    en::Tensor b(en::Shape{n});
    for (auto &v : a.data()) v = rng.uniform() * 4.0 - 2.0;
    for (auto &v : b.data()) v = rng.uniform() * 4.0 - 2.0;
    bind.inputs.emplace("a", a);
    bind.inputs.emplace("b", b);

    auto m = ef::parse_ekl(source);
    ASSERT_TRUE(m.has_value()) << m.error().message;
    auto direct = et::evaluate_ekl(**m, bind);
    ASSERT_TRUE(direct.has_value()) << direct.error().message;
    const auto &ref = direct->at("c");
    ASSERT_EQ(ref.shape(), (en::Shape{n}));

    auto teil = et::lower_ekl_to_teil(**m, bind);
    ASSERT_TRUE(teil.has_value()) << teil.error().message;
    auto teil_out = et::evaluate_teil(**teil, bind.inputs);
    ASSERT_TRUE(teil_out.has_value()) << teil_out.error().message;

    auto loops = et::lower_teil_to_loops(**teil);
    ASSERT_TRUE(loops.has_value()) << loops.error().message;
    auto loops_out = et::evaluate_loops(**loops, bind.inputs);
    ASSERT_TRUE(loops_out.has_value()) << loops_out.error().message;

    er::NodeRegistry registry;
    registry.register_node("apply_expr", [expr](const auto &in) {
      return er::Record{eval_postfix(expr, (*in[0])[0], (*in[1])[0])};
    });
    auto graph = ef::parse_condrust(R"(
fn pipe(a: Stream<f64>, b: Stream<f64>) -> Stream<f64> {
    let c = apply_expr(a, b);
    return c;
}
)");
    ASSERT_TRUE(graph.has_value()) << graph.error().message;
    std::map<std::string, er::Stream> streams;
    for (std::int64_t i = 0; i < n; ++i) {
      streams["a"].push_back({a(i)});
      streams["b"].push_back({b(i)});
    }
    auto dfg_out = er::execute_dfg(**graph, registry, streams, {.workers = 4});
    ASSERT_TRUE(dfg_out.has_value()) << dfg_out.error().message;
    ASSERT_EQ(dfg_out->at("c").size(), static_cast<std::size_t>(n));

    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_NEAR(teil_out->at("c")(i), ref(i), 1e-9) << "teil, i=" << i;
      EXPECT_NEAR(loops_out->at("c")(i), ref(i), 1e-9) << "loops, i=" << i;
      EXPECT_NEAR(dfg_out->at("c")[static_cast<std::size_t>(i)][0], ref(i),
                  1e-9)
          << "dfg, i=" << i;
    }
  }
}

TEST_F(TransformTest, DifferentialRandomCfdlangMatmuls) {
  everest::support::Pcg32 rng(7);
  for (int c = 0; c < 10; ++c) {
    std::int64_t m = 2 + static_cast<std::int64_t>(rng.uniform() * 6.0);
    std::int64_t k = 2 + static_cast<std::int64_t>(rng.uniform() * 6.0);
    std::int64_t n = 2 + static_cast<std::int64_t>(rng.uniform() * 6.0);
    std::string source = "\nprogram p\ninput A : [" + std::to_string(m) + ", " +
                         std::to_string(k) + "]\ninput B : [" +
                         std::to_string(k) + ", " + std::to_string(n) +
                         "]\noutput C = contract(outer(A, B), 1, 2)\n";
    SCOPED_TRACE(source);

    en::Tensor A(en::Shape{m, k});
    en::Tensor B(en::Shape{k, n});
    for (auto &v : A.data()) v = rng.uniform() * 2.0 - 1.0;
    for (auto &v : B.data()) v = rng.uniform() * 2.0 - 1.0;
    std::map<std::string, en::Tensor> inputs{{"A", A}, {"B", B}};

    auto prog = ef::parse_cfdlang(source);
    ASSERT_TRUE(prog.has_value()) << prog.error().message;
    auto teil = et::lower_cfdlang_to_teil(**prog);
    ASSERT_TRUE(teil.has_value()) << teil.error().message;
    auto teil_out = et::evaluate_teil(**teil, inputs);
    ASSERT_TRUE(teil_out.has_value()) << teil_out.error().message;
    auto loops = et::lower_teil_to_loops(**teil);
    ASSERT_TRUE(loops.has_value()) << loops.error().message;
    auto loops_out = et::evaluate_loops(**loops, inputs);
    ASSERT_TRUE(loops_out.has_value()) << loops_out.error().message;

    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < n; ++j) {
        double want = 0.0;
        for (std::int64_t kk = 0; kk < k; ++kk) want += A(i, kk) * B(kk, j);
        EXPECT_NEAR(teil_out->at("C")(i, j), want, 1e-9);
        EXPECT_NEAR(loops_out->at("C")(i, j), want, 1e-9);
      }
  }
}
