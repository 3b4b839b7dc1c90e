// Unit tests for the support substrate: Expected/Status, RNG, strings, the
// source cursor, JSON, tables, and statistics.

#include <gtest/gtest.h>

#include <cmath>

#include "support/expected.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/source_cursor.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace es = everest::support;

TEST(Expected, HoldsValue) {
  es::Expected<int> e(42);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, 42);
  EXPECT_EQ(e.value_or(7), 42);
}

TEST(Expected, HoldsError) {
  es::Expected<int> e(es::Error::make("boom", 3));
  ASSERT_FALSE(e.has_value());
  EXPECT_EQ(e.error().message, "boom");
  EXPECT_EQ(e.error().code, 3);
  EXPECT_EQ(e.value_or(7), 7);
}

TEST(Status, OkAndFailure) {
  EXPECT_TRUE(es::Status::ok().is_ok());
  auto s = es::Status::failure("bad");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.message(), "bad");
}

TEST(Error, CodedFactories) {
  EXPECT_EQ(es::Error::invalid_argument("x").code_enum(),
            es::ErrorCode::InvalidArgument);
  EXPECT_EQ(es::Error::not_found("x").code_enum(), es::ErrorCode::NotFound);
  EXPECT_EQ(es::Error::unsupported("x").code_enum(),
            es::ErrorCode::Unsupported);
  EXPECT_EQ(es::Error::resource_exhausted("x").code_enum(),
            es::ErrorCode::ResourceExhausted);
  EXPECT_EQ(es::Error::internal("x").code_enum(), es::ErrorCode::Internal);
  EXPECT_STREQ(es::Error::not_found("x").code_name(), "not-found");
  // Legacy message-only construction keeps working and maps to Internal.
  EXPECT_EQ(es::Error::make("legacy").code_enum(), es::ErrorCode::Internal);
  // Unknown numeric codes fold to Internal without losing the raw value.
  es::Error raw = es::Error::make("raw", 42);
  EXPECT_EQ(raw.code, 42);
  EXPECT_EQ(raw.code_enum(), es::ErrorCode::Internal);
}

TEST(Error, WithContextChainsMessagesAndKeepsCode) {
  auto e = es::Error::not_found("no such kernel")
               .with_context("load_kernel")
               .with_context("basecamp");
  EXPECT_EQ(e.message, "basecamp: load_kernel: no such kernel");
  EXPECT_EQ(e.code_enum(), es::ErrorCode::NotFound);

  const es::Error base = es::Error::unsupported("posit<64,8>");
  es::Error wrapped = base.with_context("format");
  EXPECT_EQ(base.message, "posit<64,8>");  // lvalue overload copies
  EXPECT_EQ(wrapped.message, "format: posit<64,8>");
  EXPECT_EQ(wrapped.code_enum(), es::ErrorCode::Unsupported);
}

TEST(Status, FailureWithErrorCode) {
  auto s = es::Status::failure("nope", es::ErrorCode::Unsupported);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.error().code_enum(), es::ErrorCode::Unsupported);
}

TEST(Rng, Deterministic) {
  es::Pcg32 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  es::Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange) {
  es::Pcg32 rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BoundedIsUnbiasedish) {
  es::Pcg32 rng(11);
  int counts[5] = {0};
  for (int i = 0; i < 50000; ++i) counts[rng.bounded(5)]++;
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, NormalMoments) {
  es::Pcg32 rng(42);
  es::RunningStats st;
  for (int i = 0; i < 20000; ++i) st.push(rng.normal(3.0, 2.0));
  EXPECT_NEAR(st.mean(), 3.0, 0.1);
  EXPECT_NEAR(st.stddev(), 2.0, 0.1);
}

TEST(Rng, DiscreteFollowsWeights) {
  es::Pcg32 rng(5);
  std::vector<double> w{1.0, 3.0};
  int ones = 0;
  for (int i = 0; i < 20000; ++i) ones += rng.discrete(w) == 1;
  EXPECT_NEAR(ones / 20000.0, 0.75, 0.02);
}

TEST(Rng, SplitIndependence) {
  es::Pcg32 parent(9);
  auto child = parent.split();
  // Child stream should not equal the parent's continuation.
  int same = 0;
  for (int i = 0; i < 32; ++i) same += parent.next() == child.next();
  EXPECT_LT(same, 3);
}

TEST(Strings, SplitJoinTrim) {
  auto parts = es::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(es::join({"x", "y"}, "::"), "x::y");
  EXPECT_EQ(es::trim("  hi \n"), "hi");
}

TEST(Strings, Predicates) {
  EXPECT_TRUE(es::starts_with("ekl.sum", "ekl."));
  EXPECT_FALSE(es::starts_with("ekl", "ekl."));
}

TEST(Strings, Format) {
  EXPECT_EQ(es::format_bytes(4096), "4.00 KiB");
  EXPECT_EQ(es::format_double(0.5), "0.5");
}

namespace {
constexpr es::SourceLanguage kHash{"hash", "#", false};
constexpr es::SourceLanguage kSlashLines{"lines", "//", true};
constexpr es::SourceLanguage kBare{"bare", "", false};
}  // namespace

TEST(SourceCursor, SkipsTheLanguagesCommentsAndLocatesTokens) {
  es::SourceCursor cur(kHash, "# note\n  alpha # tail\n\tbeta");
  EXPECT_EQ(cur.loc().line, 2u);
  EXPECT_EQ(cur.loc().col, 3u);
  EXPECT_EQ(cur.ident(), "alpha");
  EXPECT_EQ(cur.ident(), "beta");
  EXPECT_TRUE(cur.at_end());
  EXPECT_EQ(cur.loc().line, 3u);
  EXPECT_EQ(cur.loc().col, 6u);

  // '#' is punctuation where it is not the comment marker.
  es::SourceCursor slash(kSlashLines, "#[x] // c\nnext");
  EXPECT_TRUE(slash.consume("#["));
  EXPECT_EQ(slash.ident(), "x");
  EXPECT_TRUE(slash.consume(']'));
  EXPECT_EQ(slash.peek(), '\n');  // line oriented: the newline is a token
  EXPECT_TRUE(slash.consume('\n'));
  EXPECT_EQ(slash.ident(), "next");

  es::SourceCursor bare(kBare, "# x");
  EXPECT_EQ(bare.peek(), '#');
}

TEST(SourceCursor, CopiesSaveAndRestoreAndLocateTheirErrors) {
  es::SourceCursor cur(kBare, "one\n  two three");
  cur.ident();
  const es::SourceCursor saved = cur;
  EXPECT_EQ(cur.ident(), "two");
  EXPECT_FALSE(cur.consume_word("thr"));  // a prefix is not a word
  EXPECT_TRUE(cur.consume_word("three"));
  es::Error error = saved.error("bad thing");
  EXPECT_EQ(error.code_enum(), es::ErrorCode::InvalidArgument);
  EXPECT_EQ(error.message, "bare: bad thing at 2:3 (near 'two')");
  EXPECT_EQ(cur.error("late").message, "bare: late at 2:12 (at end of input)");
  cur = saved;
  EXPECT_EQ(cur.ident(), "two");

  es::SourceCursor line(kSlashLines, "a \nb");
  line.ident();
  EXPECT_EQ(line.error("x").message, "lines: x at 1:3 (at end of line)");
}

TEST(SourceCursor, NumbersAreWholeTokens) {
  es::SourceCursor cur(kBare, "1 2.5 .5 1e-3 7x");
  EXPECT_DOUBLE_EQ(*cur.number(), 1.0);
  EXPECT_DOUBLE_EQ(*cur.number(), 2.5);
  EXPECT_DOUBLE_EQ(*cur.number(), 0.5);
  EXPECT_DOUBLE_EQ(*cur.number(), 1e-3);
  EXPECT_DOUBLE_EQ(*cur.number(), 7.0);  // the number ends where 'x' starts
  EXPECT_EQ(cur.ident(), "x");
  for (const char *bad : {"1.2.3", "5e", "1e+", "."}) {
    es::SourceCursor b(kBare, bad);
    auto n = b.number();
    ASSERT_FALSE(n.has_value()) << bad;
    EXPECT_NE(n.error().message.find("at 1:1"), std::string::npos) << bad;
  }

  es::SourceCursor ints(kBare, "42 -1 99999999999999999999");
  EXPECT_EQ(*ints.integer(), 42);
  EXPECT_FALSE(ints.integer().has_value());  // no sign
  ints.consume('-');
  EXPECT_EQ(*ints.integer(), 1);
  EXPECT_FALSE(ints.integer().has_value());  // out of range
}

TEST(SourceCursor, SigilsStringsAndBalancedText) {
  es::SourceCursor cur(kBare, R"(%a.0 ^bb1 "q\"x" tensor<2x3xf64>, [1, "a,]"] }rest)");
  EXPECT_EQ(*cur.sigil_name('%'), "%a.0");
  EXPECT_EQ(*cur.sigil_name('^'), "^bb1");
  EXPECT_EQ(*cur.quoted(), "q\"x");
  EXPECT_EQ(cur.balanced_until(" ,"), "tensor<2x3xf64>");
  EXPECT_TRUE(cur.consume(','));
  // Nested groups and quoted text are opaque; a closer ends the item.
  EXPECT_EQ(cur.balanced_until(","), R"([1, "a,]"])");
  EXPECT_TRUE(cur.consume('}'));
  EXPECT_EQ(cur.ident(), "rest");

  es::SourceCursor open(kBare, "  \"never closed");
  auto s = open.quoted();
  ASSERT_FALSE(s.has_value());
  EXPECT_NE(s.error().message.find("unterminated string at 1:3"),
            std::string::npos);

  // A line-oriented language never reads past the end of the line.
  es::SourceCursor lines(kSlashLines, "Stream<\nPoint>");
  EXPECT_EQ(lines.balanced_until(","), "Stream<");
}

TEST(Json, BuildAndDump) {
  es::Json j = es::Json::object();
  j.set("anomalies", es::Json::array());
  es::Json arr = es::Json::array();
  arr.push_back(3);
  arr.push_back(17);
  j.set("anomalies", std::move(arr));
  j.set("model", "isolation_forest");
  EXPECT_EQ(j.dump(), R"({"anomalies":[3,17],"model":"isolation_forest"})");
}

TEST(Json, ParseRoundTrip) {
  const char *text =
      R"({"a": 1.5, "b": [true, false, null], "c": {"nested": "x\ny"}})";
  auto parsed = es::Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  auto reparsed = es::Json::parse(parsed->dump());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(parsed->dump(), reparsed->dump());
  EXPECT_DOUBLE_EQ((*parsed)["a"].as_number(), 1.5);
  EXPECT_EQ((*parsed)["b"].size(), 3u);
  EXPECT_EQ((*parsed)["c"]["nested"].as_string(), "x\ny");
}

TEST(Json, ParseErrors) {
  EXPECT_FALSE(es::Json::parse("{").has_value());
  EXPECT_FALSE(es::Json::parse("[1,]").has_value());
  EXPECT_FALSE(es::Json::parse("\"unterminated").has_value());
  EXPECT_FALSE(es::Json::parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(es::Json::parse("1 2").has_value());
}

TEST(Json, PrettyPrint) {
  auto j = es::Json::object();
  j.set("k", 1);
  EXPECT_EQ(j.dump(2), "{\n  \"k\": 1\n}");
}

TEST(Json, MissingKeyIsNull) {
  auto j = es::Json::object();
  EXPECT_TRUE(j["nope"].is_null());
  EXPECT_FALSE(j.contains("nope"));
}

TEST(Table, RendersAligned) {
  es::Table t({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"b", "20"});
  std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  // Numeric cells are right-aligned: "20" ends at same column as "1.5".
  auto lines = es::split(out, '\n');
  ASSERT_GE(lines.size(), 4u);
  EXPECT_EQ(lines[2].size(), lines[3].size());
}

TEST(Stats, Basics) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(es::mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(es::variance(xs), 2.5);
  EXPECT_DOUBLE_EQ(es::median(xs), 3.0);
  EXPECT_DOUBLE_EQ(es::quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(es::quantile(xs, 1.0), 5.0);
}

TEST(Stats, ErrorsMetrics) {
  std::vector<double> p{1, 2, 3}, t{1, 2, 5};
  EXPECT_NEAR(es::mae(p, t), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(es::rmse(p, t), std::sqrt(4.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(es::max_abs_diff(p, t), 2.0);
}

TEST(Stats, Pearson) {
  std::vector<double> a{1, 2, 3, 4}, b{2, 4, 6, 8}, c{4, 3, 2, 1};
  EXPECT_NEAR(es::pearson(a, b), 1.0, 1e-12);
  EXPECT_NEAR(es::pearson(a, c), -1.0, 1e-12);
  std::vector<double> constant{5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(es::pearson(a, constant), 0.0);
}

TEST(Stats, DetectionScore) {
  auto s = es::score_detection({1, 2, 3}, {2, 3, 4});
  EXPECT_EQ(s.true_positives, 2u);
  EXPECT_EQ(s.false_positives, 1u);
  EXPECT_EQ(s.false_negatives, 1u);
  EXPECT_NEAR(s.f1, 2.0 / 3.0, 1e-12);
}

TEST(Stats, RunningStatsMatchesBatch) {
  es::Pcg32 rng(3);
  std::vector<double> xs;
  es::RunningStats st;
  for (int i = 0; i < 500; ++i) {
    double x = rng.normal();
    xs.push_back(x);
    st.push(x);
  }
  EXPECT_NEAR(st.mean(), es::mean(xs), 1e-9);
  EXPECT_NEAR(st.variance(), es::variance(xs), 1e-9);
}
