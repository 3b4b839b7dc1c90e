// bench/bench_record.hpp
//
// The one result record every bench binary emits, and the one checker that
// judges it (the uniform-record idea of HPCC-FPGA's shared harness). A bench
// only measures: it appends flat records
//
//   {suite, case, layer, metric, unit, clock, value}
//
// where `clock` says which clock a number was read from, in evbench's
// vocabulary: "wall" (host steady clock), "sim" (the simulated device
// timeline, including any rate computed from simulated busy time) or "none"
// (counts, model constants, ratios of non-times and 1/0 flags). `value` is a
// finite number. BenchReport::finish writes the document, re-reads it, and
// runs check_records, which decides pass/fail from the single gate table in
// bench_record.cpp; no bench declares its own target.
#pragma once

#include <string>
#include <vector>

#include "support/json.hpp"

namespace everest::bench {

enum class Clock { Wall, Sim, None };

class BenchReport {
public:
  /// Appends records of one (suite, case, layer).
  class Case {
  public:
    /// Appends one record; booleans pass as 1/0.
    Case &add(const std::string &metric, const std::string &unit, Clock clock,
              double value);

  private:
    friend class BenchReport;
    Case(BenchReport &report, std::string suite, std::string case_name,
         std::string layer)
        : report_(report), suite_(std::move(suite)),
          case_(std::move(case_name)), layer_(std::move(layer)) {}
    BenchReport &report_;
    std::string suite_;
    std::string case_;
    std::string layer_;
  };

  [[nodiscard]] Case in(std::string suite, std::string case_name,
                        std::string layer) {
    return Case(*this, std::move(suite), std::move(case_name),
                std::move(layer));
  }

  /// The document: a JSON array of records.
  [[nodiscard]] const support::Json &document() const { return doc_; }

  /// Writes the document to `path`, re-reads and re-parses it, checks it,
  /// and prints every violation; returns the process exit code (0 = pass).
  [[nodiscard]] int finish(const std::string &path) const;

private:
  support::Json doc_ = support::Json::array();
};

/// Every reason `doc` fails (empty when it passes). A document fails when it
/// is not a non-empty array of well-formed records, when a record's value is
/// not a finite number (NaN/inf dump as null) or its clock is unknown, when a
/// (suite, case, layer, metric) key appears twice, when a gate of a suite in
/// the document matches no record, when a case of the document is matched
/// by no gate, or when a gate is violated.
std::vector<std::string> check_records(const support::Json &doc);

}  // namespace everest::bench
