#include "frontend/condrust_parser.hpp"

#include <map>
#include <vector>

#include "ir/builder.hpp"
#include "support/source_cursor.hpp"

namespace everest::frontend {

namespace {

using ir::Attribute;
using ir::Operation;
using ir::Type;
using ir::Value;
using support::Expected;
using support::SourceCursor;

Type stream_type(const std::string &elem = "f64") {
  return Type::custom("dfg", "stream", {elem});
}

constexpr support::SourceLanguage kCondrust{"condrust", "//", true};

class CondrustParser {
public:
  explicit CondrustParser(std::string_view text) : cur_(kCondrust, text) {}

  Expected<std::shared_ptr<ir::Module>> run() {
    while (cur_.next_line()) {
      if (auto s = parse_statement(); !s) return s.error();
      if (!cur_.end_line()) return cur_.error("expected end of line");
    }
    if (!b_) return cur_.error("no fn found");
    if (!saw_return_) return cur_.error("fn has no return");
    return module_;
  }

private:
  Expected<bool> parse_statement() {
    if (cur_.consume("#[")) {
      const SourceCursor at = cur_;
      pending_placement_ = cur_.ident();
      if (pending_placement_ != "cpu" && pending_placement_ != "fpga")
        return at.error("unknown placement attribute");
      if (!cur_.consume(']')) return cur_.error("unterminated attribute");
      return true;
    }
    if (cur_.consume_word("fn")) return parse_signature();

    if (!b_) return cur_.error("statement before fn signature");
    if (cur_.consume('}')) return true;

    if (cur_.consume_word("return")) {
      const SourceCursor at = cur_;
      std::string name(cur_.ident());
      if (name.empty()) return cur_.error("expected a value to return");
      cur_.consume(';');
      auto it = symbols_.find(name);
      if (it == symbols_.end())
        return at.error("return of undefined value '" + name + "'");
      b_->create("dfg.output", {it->second}, {}, {{"name", Attribute(name)}});
      saw_return_ = true;
      return true;
    }

    if (cur_.consume_word("let")) return parse_let();
    return cur_.error("cannot parse statement");
  }

  /// fn <name>(<param>: <type>, ...) [-> <type>] [{]
  Expected<bool> parse_signature() {
    std::string_view fn_name = cur_.ident();
    if (fn_name.empty()) return cur_.error("expected fn name");
    if (!cur_.consume('(')) return cur_.error("malformed fn signature");
    Operation *graph = Operation::create(
        module_->arena(), ir::Symbol("dfg.graph"), {}, {},
        {{"sym_name", Attribute(std::string(fn_name))}}, 1);
    ir::Block &body = graph->region(0).add_block();
    module_->body().attach(graph);
    b_ = std::make_unique<ir::OpBuilder>(&body);

    if (!cur_.consume(')')) {
      do {
        std::string pname(cur_.ident());
        if (pname.empty()) return cur_.error("expected parameter name");
        if (cur_.consume(':')) cur_.balanced_until(",");
        symbols_[pname] = b_->create_value("dfg.input", {}, stream_type(),
                                           {{"name", Attribute(pname)}});
      } while (cur_.consume(','));
      if (!cur_.consume(')')) return cur_.error("malformed fn signature");
    }
    if (cur_.consume("->")) cur_.balanced_until("{");
    cur_.consume('{');
    return true;
  }

  /// let [mut] <name>[: <type>] = [fold] <callee>(<arg>, ...)[;]
  Expected<bool> parse_let() {
    cur_.consume_word("mut");
    const SourceCursor at = cur_;
    std::string lhs(cur_.ident());
    if (lhs.empty()) return cur_.error("expected a name after let");
    if (cur_.consume(':')) cur_.balanced_until("=");
    if (!cur_.consume('=')) return cur_.error("let without '='");
    std::string_view callee = cur_.ident();
    bool is_fold = callee == "fold" && cur_.peek() != '(';  // "fold f(x)"
    if (is_fold) callee = cur_.ident();
    if (callee.empty()) return cur_.error("expected a call expression");
    if (!cur_.consume('(')) return cur_.error("expected '(' after callee");

    std::vector<Value *> operands;
    if (!cur_.consume(')')) {
      do {
        const SourceCursor arg_at = cur_;
        std::string_view arg = cur_.ident();
        if (arg.empty()) return cur_.error("expected an argument name");
        auto it = symbols_.find(arg);
        if (it == symbols_.end())
          return arg_at.error("use of undefined value '" + std::string(arg) +
                              "'");
        operands.push_back(it->second);
      } while (cur_.consume(','));
      if (!cur_.consume(')')) return cur_.error("expected ')' after arguments");
    }
    cur_.consume(';');

    ir::AttrDict attrs{{"callee", Attribute(std::string(callee))}};
    if (!pending_placement_.empty()) {
      attrs.set("placement", Attribute(std::string(pending_placement_)));
      pending_placement_ = {};
    }
    Value *result = b_->create_value(is_fold ? "dfg.fold" : "dfg.node",
                                     operands, stream_type(), std::move(attrs));
    if (symbols_.count(lhs))
      return at.error("rebinding of '" + lhs + "' (ownership violation)");
    symbols_[lhs] = result;
    return true;
  }

  SourceCursor cur_;
  std::shared_ptr<ir::Module> module_ = std::make_shared<ir::Module>();
  std::unique_ptr<ir::OpBuilder> b_;
  std::map<std::string, Value *, std::less<>> symbols_;
  std::string_view pending_placement_;
  bool saw_return_ = false;
};

}  // namespace

Expected<std::shared_ptr<ir::Module>> parse_condrust(std::string_view text) {
  return CondrustParser(text).run();
}

}  // namespace everest::frontend
