// Tests for the language frontends: EKL, CFDlang, ConDRust, and the
// ONNX-style model importer.

#include <gtest/gtest.h>

#include "dialects/registry.hpp"
#include "frontend/cfdlang_parser.hpp"
#include "frontend/condrust_parser.hpp"
#include "frontend/ekl_parser.hpp"
#include "frontend/onnx_import.hpp"
#include "ir/parser.hpp"

namespace ef = everest::frontend;
namespace ei = everest::ir;
namespace en = everest::numerics;

class FrontendTest : public ::testing::Test {
protected:
  void SetUp() override {
    everest::dialects::register_everest_dialects(ctx_);
  }
  ei::Context ctx_;
};

// ------------------------------------------------------------------- EKL

TEST_F(FrontendTest, EklMinimalProgram) {
  auto m = ef::parse_ekl(R"(
kernel scale
index i
input a[i]
b = a[i] * 2
output b
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  EXPECT_TRUE(ctx_.verify(**m).is_ok());
  EXPECT_NE((*m)->find_first("ekl.kernel"), nullptr);
  EXPECT_EQ((*m)->find_all("ekl.binary").size(), 1u);
}

TEST_F(FrontendTest, EklSumAndSelect) {
  auto m = ef::parse_ekl(R"(
kernel k
index i, j
input a[i, j]
input t
s = sum(j) select(a[i, j] <= t, a[i, j], t)
output s
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  EXPECT_TRUE(ctx_.verify(**m).is_ok());
  EXPECT_EQ((*m)->find_all("ekl.sum").size(), 1u);
  EXPECT_EQ((*m)->find_all("ekl.select").size(), 1u);
  EXPECT_EQ((*m)->find_all("ekl.compare").size(), 1u);
}

TEST_F(FrontendTest, EklStackSyntax) {
  auto m = ef::parse_ekl(R"(
kernel k
index i
input j[i]
pair = [j, j + 1]
output pair
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  auto stacks = (*m)->find_all("ekl.stack");
  ASSERT_EQ(stacks.size(), 1u);
  EXPECT_EQ(stacks[0]->num_operands(), 2u);
}

TEST_F(FrontendTest, EklErrors) {
  // Undefined name.
  EXPECT_FALSE(ef::parse_ekl("kernel k\nb = nope\noutput b\n").has_value());
  // No outputs.
  EXPECT_FALSE(ef::parse_ekl("kernel k\nindex i\ninput a[i]\n").has_value());
  // Duplicate definition.
  EXPECT_FALSE(ef::parse_ekl(R"(
kernel k
index i
input a[i]
a = a * 2
output a
)").has_value());
  // Over-subscription.
  EXPECT_FALSE(ef::parse_ekl(R"(
kernel k
index i, j
input a[i]
b = a[i, j]
output b
)").has_value());
  // Assignment to an index.
  EXPECT_FALSE(ef::parse_ekl(R"(
kernel k
index i
input a[i]
i = a
output a
)").has_value());
}

TEST_F(FrontendTest, EklFig3ParsesAndVerifies) {
  // The paper's Fig. 3 kernel, as shipped in the RRTMG use case.
  auto m = ef::parse_ekl(R"(
kernel fig3
index x, g, bnd, t, p, e
input pres[x]
input strato
input bnd_to_flav[s, bnd]
input j_T[x]
input j_p[x]
input j_eta[f, x]
input r_mix[f, x, e]
input f_major[f, x, t, p, e]
input k_major[T, P, H, g]
i_strato = select(pres[x] <= strato, 1, 0)
i_flav = bnd_to_flav[i_strato, bnd]
i_T = [j_T, j_T + 1]
i_eta = [j_eta[i_flav, x], j_eta[i_flav, x] + 1]
i_p = [j_p + i_strato, j_p + i_strato + 1]
tau_abs = r_mix[i_flav, x, e] * f_major[i_flav, x, t, p, e] * k_major[i_T[x, t], i_p[x, p], i_eta[x, bnd, e], g]
tau = sum(t, p, e) tau_abs
output tau
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  EXPECT_TRUE(ctx_.verify(**m).is_ok()) << ctx_.verify(**m).message();
  EXPECT_EQ((*m)->find_all("ekl.stack").size(), 3u);
  EXPECT_EQ((*m)->find_all("ekl.gather").size(), 10u);
}

TEST_F(FrontendTest, EklLineCount) {
  EXPECT_EQ(ef::count_ekl_lines("# comment\na = 1\n\nb = 2\n"), 2u);
}

// ---------------------------------------------------------------- CFDlang

TEST_F(FrontendTest, CfdlangMatmulProgram) {
  auto m = ef::parse_cfdlang(R"(
program mm
input A : [4, 5]
input B : [5, 6]
output C = contract(outer(A, B), 1, 2)
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  EXPECT_TRUE(ctx_.verify(**m).is_ok()) << ctx_.verify(**m).message();
  auto contracts = (*m)->find_all("cfdlang.contract");
  ASSERT_EQ(contracts.size(), 1u);
  EXPECT_EQ(contracts[0]->result(0)->type().str(), "tensor<4x6xf64>");
}

TEST_F(FrontendTest, CfdlangErrors) {
  EXPECT_FALSE(ef::parse_cfdlang("program p\ninput A : [2]\n").has_value());
  EXPECT_FALSE(
      ef::parse_cfdlang("program p\noutput C = undefined_name\n").has_value());
  // Contraction dims of different extents.
  EXPECT_FALSE(ef::parse_cfdlang(R"(
program p
input A : [2, 3]
output C = contract(A, 0, 1)
)").has_value());
}

TEST_F(FrontendTest, CfdlangTranspose) {
  auto m = ef::parse_cfdlang(R"(
program t
input A : [2, 3]
output B = transpose(A, 1, 0)
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  auto ops = (*m)->find_all("cfdlang.transpose");
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0]->result(0)->type().str(), "tensor<3x2xf64>");
}

// --------------------------------------------------------------- ConDRust

TEST_F(FrontendTest, CondrustFig4MapMatching) {
  auto m = ef::parse_condrust(R"(
// Fig. 4: map matching a single element
fn map_match(points: Stream<Point>) -> Stream<Seg> {
    #[fpga]
    let cands = candidates(points);
    let scored = emission_score(cands, points);
    let path = fold viterbi_step(scored);
    let out = decode(path);
    return out;
}
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  EXPECT_TRUE(ctx_.verify(**m).is_ok()) << ctx_.verify(**m).message();
  auto nodes = (*m)->find_all("dfg.node");
  EXPECT_EQ(nodes.size(), 3u);
  EXPECT_EQ((*m)->find_all("dfg.fold").size(), 1u);
  // The #[fpga] attribute landed on `candidates`.
  bool found = false;
  for (auto *n : nodes) {
    if (n->attr_string("callee") == "candidates") {
      EXPECT_EQ(n->attr_string("placement"), "fpga");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(FrontendTest, CondrustOwnershipRebindRejected) {
  auto m = ef::parse_condrust(R"(
fn f(xs: Stream<f64>) -> Stream<f64> {
    let a = g(xs);
    let a = h(a);
    return a;
}
)");
  EXPECT_FALSE(m.has_value());
}

TEST_F(FrontendTest, CondrustErrors) {
  EXPECT_FALSE(ef::parse_condrust("let a = f(x);").has_value());  // no fn
  EXPECT_FALSE(ef::parse_condrust(R"(
fn f(xs: Stream<f64>) -> Stream<f64> {
    let a = g(nope);
    return a;
}
)").has_value());
  EXPECT_FALSE(ef::parse_condrust(R"(
fn f(xs: Stream<f64>) -> Stream<f64> {
    let a = g(xs);
}
)").has_value());  // no return
}

// ------------------------------------------------ located rejections

namespace {

everest::support::Expected<std::shared_ptr<ei::Module>> parse_as(
    std::string_view lang, std::string_view text) {
  if (lang == "ekl") return ef::parse_ekl(text);
  if (lang == "cfdlang") return ef::parse_cfdlang(text);
  if (lang == "condrust") return ef::parse_condrust(text);
  return ei::parse_module(text);
}

struct BadInput {
  const char *lang;
  const char *text;
  const char *loc;   // "<line>:<col>" the message must name
  const char *what;  // the message fragment naming the error site
};

// One bad input per error site of the four text parsers (and of the shared
// cursor's token readers).
const BadInput kBadInputs[] = {
    // EKL
    {"ekl", "kernel\n", "2:1", "expected kernel name"},
    {"ekl", "kernel k\nindex i\n", "3:1", "program declares no outputs"},
    {"ekl", "kernel k\nindex i, 3\n", "2:10", "expected index name"},
    {"ekl", "kernel k\n+ b\n", "2:1", "expected a statement"},
    {"ekl", "kernel k\ninput [i]\n", "2:7", "expected input name"},
    {"ekl", "kernel k\ninput a[1]\n", "2:9", "expected index name in input dims"},
    {"ekl", "kernel k\ninput a[i j]\n", "2:11", "expected ']' after input dims"},
    {"ekl", "kernel k\ninput a\ninput a\n", "3:7", "duplicate definition of 'a'"},
    {"ekl", "kernel k\noutput 5\n", "2:8", "expected output name"},
    {"ekl", "kernel k\noutput b\n", "2:8", "output of undefined name 'b'"},
    {"ekl", "kernel k\nb + 1\n", "2:3", "expected '=' in assignment"},
    {"ekl", "kernel k\nindex i\ni = 1\n", "3:1", "cannot assign to iteration index 'i'"},
    {"ekl", "kernel k\nb = 1\nb = 2\n", "3:1", "duplicate definition of 'b'"},
    {"ekl", "kernel k\nb = (1 + 2]\n", "2:11", "expected ')'"},
    {"ekl", "kernel k\nb = [1, 2)\n", "2:10", "expected ']' after stack"},
    {"ekl", "kernel k\nb = *\n", "2:5", "expected expression"},
    {"ekl", "kernel k\nindex i\nb = sum i 2\n", "3:9", "expected '(' after sum"},
    {"ekl", "kernel k\nb = sum(1) 2\n", "2:9", "expected index in sum"},
    {"ekl", "kernel k\nindex i\nb = sum(i] 2\n", "3:10", "expected ')' after sum indices"},
    {"ekl", "kernel k\nb = select 1\n", "2:12", "expected '(' after select"},
    {"ekl", "kernel k\nb = select(1, 2, 3)\n", "2:13", "expected comparison"},
    {"ekl", "kernel k\nb = select(1 < 2 3, 4)\n", "2:18", "expected ',' after condition"},
    {"ekl", "kernel k\nb = select(1 < 2, 3 4)\n", "2:21", "expected ',' in select"},
    {"ekl", "kernel k\nb = select(1 < 2, 3, 4]\n", "2:23", "expected ')' after select"},
    {"ekl", "kernel k\nb = nope\noutput b\n", "2:5", "use of undefined name 'nope'"},
    {"ekl", "kernel k\nindex i\ninput a[i]\nb = a[i)\n", "4:8", "expected ']' after subscripts"},
    {"ekl", "kernel k\nindex i, j\ninput a[i]\nb = a[i, j]\n", "4:5", "subscripted with 2 exprs but has rank 1"},
    {"ekl", "kernel k\nb = 1.2.3\noutput b\n", "2:5", "malformed number '1.2.3'"},
    {"ekl", "kernel k\nb = .x\n", "2:5", "expected a number"},
    // CFDlang
    {"cfdlang", "program p\ninput A : [2] junk\n", "2:15", "expected end of line"},
    {"cfdlang", "program p\ninput A : [2]\n", "3:1", "program has no output"},
    {"cfdlang", "program = A\n", "1:9", "expected program name"},
    {"cfdlang", "program p\nprogram q\n", "2:1", "duplicate program statement"},
    {"cfdlang", "input : [2]\n", "1:7", "expected input name"},
    {"cfdlang", "input A [2]\n", "1:9", "input needs ': [dims]'"},
    {"cfdlang", "input A : 2\n", "1:11", "expected '[' before input shape"},
    {"cfdlang", "input A : [abc, 3]\n", "1:12", "expected an integer"},
    {"cfdlang", "input A : [99999999999999999999]\n", "1:12", "integer out of range"},
    {"cfdlang", "input A : [2 3]\n", "1:14", "expected ']' after input shape"},
    {"cfdlang", "output = A\n", "1:8", "expected assignment target"},
    {"cfdlang", "input A : [2]\nB A\n", "2:3", "expected '=' in assignment"},
    {"cfdlang", "input A : [2]\noutput B = add A, A\n", "2:16", "expected '('"},
    {"cfdlang", "input A : [2, 2]\noutput B = transpose(A, 1, 0]\n", "2:29", "expected ')'"},
    {"cfdlang", "output B = 3\n", "1:12", "expected expression"},
    {"cfdlang", "input A : [2]\noutput B = add(A A)\n", "2:18", "expected ','"},
    {"cfdlang", "input A : [2]\noutput B = add(A, A]\n", "2:20", "expected ')'"},
    {"cfdlang", "input A : [2]\ninput B : [3]\noutput C = add(A, B)\n", "3:12", "add requires matching shapes"},
    {"cfdlang", "input A : [2, 2]\noutput C = contract(A, 0)\n", "2:12", "contract needs dim pairs"},
    {"cfdlang", "input A : [2, 3]\noutput C = contract(A, 0, 1)\n", "2:12", "invalid contraction dims"},
    {"cfdlang", "input A : [2, 3]\noutput B = transpose(A, 0)\n", "2:12", "transpose perm rank mismatch"},
    {"cfdlang", "input A : [2, 3]\noutput B = transpose(A, 0, 5)\n", "2:12", "transpose perm is not a permutation"},
    {"cfdlang", "output C = nope\n", "1:12", "undefined name 'nope'"},
    // ConDRust
    {"condrust", "fn f(xs: S) -> S {\n    let a = g(xs); junk\n", "2:20", "expected end of line"},
    {"condrust", "// only a comment\n", "2:1", "no fn found"},
    {"condrust", "fn f(xs: S) -> S {\n    let a = g(xs);\n}\n", "4:1", "fn has no return"},
    {"condrust", "#[gpu]\nfn f(xs: S) -> S {\n", "1:3", "unknown placement attribute"},
    {"condrust", "#[fpga\n", "1:7", "unterminated attribute"},
    {"condrust", "let a = f(x);\n", "1:1", "statement before fn signature"},
    {"condrust", "fn f(xs: S) -> S {\n    return;\n", "2:11", "expected a value to return"},
    {"condrust", "fn f(xs: S) -> S {\n    return nope;\n", "2:12", "return of undefined value 'nope'"},
    {"condrust", "fn f(xs: S) -> S {\n    xs = 1;\n", "2:5", "cannot parse statement"},
    {"condrust", "fn (xs: S)\n", "1:4", "expected fn name"},
    {"condrust", "fn f xs\n", "1:6", "malformed fn signature"},
    {"condrust", "fn f(: S)\n", "1:6", "expected parameter name"},
    {"condrust", "fn f(xs: S\n", "1:11", "malformed fn signature"},
    {"condrust", "fn f(xs: S) -> S {\n    let = g(xs);\n", "2:9", "expected a name after let"},
    {"condrust", "fn f(xs: S) -> S {\n    let a g(xs);\n", "2:11", "let without '='"},
    {"condrust", "fn f(xs: S) -> S {\n    let a = (xs);\n", "2:13", "expected a call expression"},
    {"condrust", "fn f(xs: S) -> S {\n    let a = g xs;\n", "2:15", "expected '(' after callee"},
    {"condrust", "fn f(xs: S) -> S {\n    let a = g(1);\n", "2:15", "expected an argument name"},
    {"condrust", "fn f(xs: S) -> S {\n    let a = g(nope);\n", "2:15", "use of undefined value 'nope'"},
    {"condrust", "fn f(xs: S) -> S {\n    let a = g(xs];\n", "2:17", "expected ')' after arguments"},
    {"condrust", "fn f(xs: S) -> S {\n    let a = g(xs);\n    let a = h(a);\n", "3:9", "rebinding of 'a'"},
    // Textual IR
    {"ir", "modul {}", "1:1", "expected 'module'"},
    {"ir", "module }", "1:8", "expected '{' after module"},
    {"ir", "module {\n}\nextra\n", "3:1", "trailing text after module"},
    {"ir", "module {\n  %0 = \"x.y\"() : () -> \n}\n", "3:1", "expected a type"},
    {"ir", "module {\n  %0 = \"x.y\"() : () -> q42\n}\n", "2:24", "type:"},
    {"ir", "module {\n  %0 \"x.y\"() : () -> f64\n}\n", "2:6", "expected '=' after results"},
    {"ir", "module {\n  x.y() : () -> ()\n}\n", "2:3", "expected quoted string"},
    {"ir", "module {\n  \"x.y\n}\n", "2:3", "unterminated string"},
    {"ir", "module {\n  \"x.y\" : () -> ()\n}\n", "2:9", "expected '(' for operands"},
    {"ir", "module {\n  \"x.y\"(1) : () -> ()\n}\n", "2:9", "expected '%'"},
    {"ir", "module {\n  \"x.y\"(%9) : (f64) -> ()\n}\n", "2:9", "use of undefined value %9"},
    {"ir", "module {\n  %0 = \"x.y\"() : () -> f64\n  \"x.z\"(%0 %0) : (f64) -> ()\n}\n", "3:12", "expected ')' after operands"},
    {"ir", "module {\n  \"x.y\"() ({\n  } {\n  }) : () -> ()\n}\n", "3:5", "expected ')' after regions"},
    {"ir", "module {\n  \"x.y\"() (x) : () -> ()\n}\n", "2:12", "expected '{' for region"},
    {"ir", "module {\n  \"x.y\"() {= 1} : () -> ()\n}\n", "2:12", "expected an attribute name"},
    {"ir", "module {\n  \"x.y\"() {a = } : () -> ()\n}\n", "2:16", "attribute:"},
    {"ir", "module {\n  \"x.y\"() {a = 1] : () -> ()\n}\n", "2:17", "expected '}' after attributes"},
    {"ir", "module {\n  \"x.y\"() -> ()\n}\n", "2:11", "expected ':' before signature"},
    {"ir", "module {\n  \"x.y\"() : -> ()\n}\n", "2:13", "expected '(' for operand types"},
    {"ir", "module {\n  \"x.y\"() : (f64] -> ()\n}\n", "2:17", "expected ')' after operand types"},
    {"ir", "module {\n  \"x.y\"() : () ()\n}\n", "2:16", "expected '->'"},
    {"ir", "module {\n  %0, %1 = \"x.y\"() : () -> (f64 f64)\n}\n", "2:33", "expected ')' after result types"},
    {"ir", "module {\n  %0 = \"x.y\"() : () -> ()\n}\n", "2:24", "result name/type count mismatch"},
    {"ir", "module {\n  \"x.y\"() ({\n  ^bb0(x: f64):\n  }) : () -> ()\n}\n", "3:8", "expected '%'"},
    {"ir", "module {\n  \"x.y\"() ({\n  ^bb0(%a f64):\n  }) : () -> ()\n}\n", "3:11", "expected ':' after block arg"},
    {"ir", "module {\n  \"x.y\"() ({\n  ^bb0 x\n  }) : () -> ()\n}\n", "3:8", "expected ':' after block label"},
};

}  // namespace

TEST(FrontendErrors, EveryRejectionIsLocatedInvalidArgument) {
  for (const BadInput &bad : kBadInputs) {
    SCOPED_TRACE(std::string(bad.lang) + " input:\n" + bad.text);
    auto parsed = parse_as(bad.lang, bad.text);
    ASSERT_FALSE(parsed.has_value());
    const auto &error = parsed.error();
    EXPECT_EQ(error.code_enum(), everest::support::ErrorCode::InvalidArgument)
        << error.message;
    EXPECT_EQ(error.message.rfind(std::string(bad.lang) + ": ", 0), 0u)
        << error.message;
    EXPECT_NE(error.message.find(" at " + std::string(bad.loc) + " ("),
              std::string::npos)
        << error.message;
    EXPECT_NE(error.message.find(bad.what), std::string::npos) << error.message;
  }
}

// Inputs the per-language lexers used to accept with a wrong meaning.
TEST(FrontendErrors, MalformedTokensAreRejectedNotTruncated) {
  // A non-numeric or negative extent used to become 0 or a dynamic dim.
  auto abc = ef::parse_cfdlang("input A : [abc, 3]\noutput B = A\n");
  ASSERT_FALSE(abc.has_value());
  EXPECT_NE(abc.error().message.find("at 1:12"), std::string::npos);
  auto negative = ef::parse_cfdlang("input A : [-4, 3]\noutput B = A\n");
  ASSERT_FALSE(negative.has_value());
  EXPECT_EQ(negative.error().code_enum(),
            everest::support::ErrorCode::InvalidArgument);
  EXPECT_NE(negative.error().message.find("at 1:12"), std::string::npos);
  // `1.2.3` used to be read as 1.2.
  auto number = ef::parse_ekl("kernel k\nb = 1.2 * 1.2.3\noutput b\n");
  ASSERT_FALSE(number.has_value());
  EXPECT_NE(number.error().message.find("at 2:11"), std::string::npos);
  // An unknown placement is malformed input like any other.
  auto gpu = ef::parse_condrust(
      "fn f(xs: S) -> S {\n    #[gpu]\n    let a = g(xs);\n    return a;\n}\n");
  ASSERT_FALSE(gpu.has_value());
  EXPECT_EQ(gpu.error().code_enum(),
            everest::support::ErrorCode::InvalidArgument);
  EXPECT_NE(gpu.error().message.find("at 2:7"), std::string::npos);
}

TEST_F(FrontendTest, CfdlangProgramIsAWholeWord) {
  // `programs` is an ordinary name: the statement used to be dropped, and
  // its tail taken as the program name.
  auto m = ef::parse_cfdlang(
      "programs = A\nprogram p\ninput A : [2]\noutput B = programs\n");
  ASSERT_FALSE(m.has_value());  // A is used before its input line
  EXPECT_NE(m.error().message.find("undefined name 'A' at 1:12"),
            std::string::npos)
      << m.error().message;
  auto ok = ef::parse_cfdlang(
      "input A : [2]\nprograms = A\nprogram p\noutput B = programs\n");
  ASSERT_TRUE(ok.has_value()) << ok.error().message;
  auto *program = (*ok)->find_first("cfdlang.program");
  ASSERT_NE(program, nullptr);
  EXPECT_EQ(program->attr_string("sym_name"), "p");
  EXPECT_EQ((*ok)->find_all("cfdlang.output").size(), 1u);
}

// ------------------------------------------------------------------- ONNX

TEST_F(FrontendTest, OnnxImportAndRun) {
  const char *json = R"({
    "name": "tiny",
    "inputs": [{"name": "x", "shape": [2]}],
    "initializers": [
      {"name": "W", "shape": [2, 2], "data": [1, 0, 0, 1]},
      {"name": "b", "shape": [2], "data": [0.5, -0.5]}
    ],
    "nodes": [
      {"op": "Gemm", "name": "fc", "inputs": ["x", "W", "b"], "output": "y"},
      {"op": "Relu", "name": "act", "inputs": ["y"], "output": "z"}
    ],
    "outputs": ["z"]
  })";
  auto model = ef::import_onnx_json(json);
  ASSERT_TRUE(model.has_value()) << model.error().message;
  EXPECT_EQ(model->parameter_count(), 6u);

  std::map<std::string, en::Tensor> inputs;
  inputs.emplace("x", en::Tensor(en::Shape{2}, std::vector<double>{1.0, -2.0}));
  auto out = ef::run_onnx(*model, inputs);
  ASSERT_TRUE(out.has_value()) << out.error().message;
  const auto &z = out->at("z");
  EXPECT_DOUBLE_EQ(z(0), 1.5);   // 1 + 0.5
  EXPECT_DOUBLE_EQ(z(1), 0.0);   // relu(-2.5)
}

TEST_F(FrontendTest, OnnxConvPipeline) {
  // Conv1D (identity kernel) -> MaxPool1D -> Flatten.
  const char *json = R"({
    "name": "conv",
    "inputs": [{"name": "x", "shape": [1, 4]}],
    "initializers": [
      {"name": "w", "shape": [1, 1, 1], "data": [2.0]}
    ],
    "nodes": [
      {"op": "Conv1D", "inputs": ["x", "w"], "output": "c"},
      {"op": "MaxPool1D", "inputs": ["c"], "output": "p", "attrs": {"window": 2}},
      {"op": "Flatten", "inputs": ["p"], "output": "f"}
    ],
    "outputs": ["f"]
  })";
  auto model = ef::import_onnx_json(json);
  ASSERT_TRUE(model.has_value()) << model.error().message;
  std::map<std::string, en::Tensor> inputs;
  inputs.emplace("x",
                 en::Tensor(en::Shape{1, 4}, std::vector<double>{1, 3, 2, 5}));
  auto out = ef::run_onnx(*model, inputs);
  ASSERT_TRUE(out.has_value()) << out.error().message;
  const auto &f = out->at("f");
  ASSERT_EQ(f.size(), 2);
  EXPECT_DOUBLE_EQ(f(0), 6.0);   // max(2, 6)
  EXPECT_DOUBLE_EQ(f(1), 10.0);  // max(4, 10)
}

TEST_F(FrontendTest, OnnxErrors) {
  EXPECT_FALSE(ef::import_onnx_json("{").has_value());
  EXPECT_FALSE(ef::import_onnx_json(R"({"nodes": [], "outputs": []})")
                   .has_value());
  // Data/shape mismatch.
  EXPECT_FALSE(ef::import_onnx_json(R"({
    "inputs": [], "outputs": ["y"],
    "initializers": [{"name": "w", "shape": [3], "data": [1, 2]}],
    "nodes": [{"op": "Relu", "inputs": ["w"], "output": "y"}]
  })").has_value());
}
