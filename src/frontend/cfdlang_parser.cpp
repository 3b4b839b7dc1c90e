#include "frontend/cfdlang_parser.hpp"

#include <map>

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

/// Computes the result shape of cfdlang ops from operand shapes.
std::vector<std::int64_t> dims_of(const Value *v) {
  return v->type().is_tensor() ? v->type().dims()
                               : std::vector<std::int64_t>{};
}

Type tensor_type(std::vector<std::int64_t> dims) {
  if (dims.empty()) return Type::floating(64);
  return Type::tensor(std::move(dims), Type::floating(64));
}

constexpr support::SourceLanguage kCfdlang{"cfdlang", "#", true};

class CfdParser {
public:
  explicit CfdParser(std::string_view text) : cur_(kCfdlang, text) {}

  Expected<std::shared_ptr<ir::Module>> run() {
    auto module = std::make_shared<ir::Module>();
    program_ = Operation::create(module->arena(), ir::Symbol("cfdlang.program"),
                                 {}, {}, {{"sym_name", Attribute("cfd")}}, 1);
    ir::Block &body = program_->region(0).add_block();
    module->body().attach(program_);
    builder_ = std::make_unique<ir::OpBuilder>(&body);

    while (cur_.next_line()) {
      if (auto s = parse_statement(); !s) return s.error();
      if (!cur_.end_line()) return cur_.error("expected end of line");
    }
    if (!saw_output_) return cur_.error("program has no output");
    return module;
  }

private:
  Expected<bool> parse_statement() {
    const SourceCursor at = cur_;
    if (cur_.consume_word("program")) {
      std::string_view name = cur_.ident();
      if (name.empty()) return cur_.error("expected program name");
      if (saw_program_) return at.error("duplicate program statement");
      program_->set_attr("sym_name", Attribute(std::string(name)));
      saw_program_ = true;
      return true;
    }

    if (cur_.consume_word("input")) {
      std::string_view id = cur_.ident();
      if (id.empty()) return cur_.error("expected input name");
      if (!cur_.consume(':')) return cur_.error("input needs ': [dims]'");
      if (!cur_.consume('['))
        return cur_.error("expected '[' before input shape");
      std::vector<std::int64_t> dims;
      if (!cur_.consume(']')) {
        do {
          auto d = cur_.integer();
          if (!d) return d.error();
          dims.push_back(*d);
        } while (cur_.consume(','));
        if (!cur_.consume(']'))
          return cur_.error("expected ']' after input shape");
      }
      symbols_[std::string(id)] = builder_->create_value(
          "cfdlang.input", {}, tensor_type(std::move(dims)),
          {{"name", Attribute(std::string(id))}});
      return true;
    }

    bool is_output = cur_.consume_word("output");
    std::string id(cur_.ident());
    if (id.empty()) return cur_.error("expected assignment target");
    if (!cur_.consume('=')) return cur_.error("expected '=' in assignment");
    auto value = parse_expr();
    if (!value) return value.error();
    symbols_[id] = *value;
    if (is_output) {
      builder_->create("cfdlang.output", {*value}, {},
                       {{"name", Attribute(id)}});
      saw_output_ = true;
    }
    return true;
  }

  /// Reads "(e" for the calls whose first argument is an expression.
  Expected<Value *> open_call() {
    if (!cur_.consume('(')) return cur_.error("expected '('");
    return parse_expr();
  }

  /// Reads ", i, j, ...)" closing a contract/transpose call.
  Expected<std::vector<std::int64_t>> int_args() {
    std::vector<std::int64_t> out;
    while (cur_.consume(',')) {
      auto i = cur_.integer();
      if (!i) return i.error();
      out.push_back(*i);
    }
    if (!cur_.consume(')')) return cur_.error("expected ')'");
    return out;
  }

  Expected<Value *> parse_expr() {
    const SourceCursor at = cur_;
    std::string_view head = cur_.ident();
    if (head.empty()) return cur_.error("expected expression");

    if (head == "outer" || head == "add") {
      auto a = open_call();
      if (!a) return a;
      if (!cur_.consume(',')) return cur_.error("expected ','");
      auto b = parse_expr();
      if (!b) return b;
      if (!cur_.consume(')')) return cur_.error("expected ')'");
      if (head == "add") {
        if ((*a)->type() != (*b)->type())
          return at.error("add requires matching shapes");
        return builder_->create_value("cfdlang.add", {*a, *b}, (*a)->type());
      }
      auto da = dims_of(*a);
      auto db = dims_of(*b);
      da.insert(da.end(), db.begin(), db.end());
      return builder_->create_value("cfdlang.outer", {*a, *b},
                                    tensor_type(std::move(da)));
    }

    if (head == "contract") {
      auto e = open_call();
      if (!e) return e;
      auto pairs = int_args();
      if (!pairs) return pairs.error();
      if (pairs->size() % 2 != 0 || pairs->empty())
        return at.error("contract needs dim pairs");
      auto dims = dims_of(*e);
      std::vector<bool> drop(dims.size(), false);
      for (std::size_t k = 0; k < pairs->size(); k += 2) {
        auto i = static_cast<std::size_t>((*pairs)[k]);
        auto j = static_cast<std::size_t>((*pairs)[k + 1]);
        if (i >= dims.size() || j >= dims.size() || dims[i] != dims[j])
          return at.error("invalid contraction dims");
        drop[i] = drop[j] = true;
      }
      std::vector<std::int64_t> out;
      for (std::size_t d = 0; d < dims.size(); ++d) {
        if (!drop[d]) out.push_back(dims[d]);
      }
      return builder_->create_value("cfdlang.contract", {*e},
                                    tensor_type(std::move(out)),
                                    {{"pairs", Attribute::int_array(*pairs)}});
    }

    if (head == "transpose") {
      auto e = open_call();
      if (!e) return e;
      auto perm = int_args();
      if (!perm) return perm.error();
      auto dims = dims_of(*e);
      if (perm->size() != dims.size())
        return at.error("transpose perm rank mismatch");
      std::vector<std::int64_t> out(dims.size());
      std::vector<bool> seen(dims.size(), false);
      for (std::size_t d = 0; d < perm->size(); ++d) {
        auto p = static_cast<std::size_t>((*perm)[d]);
        if (p >= dims.size() || seen[p])
          return at.error("transpose perm is not a permutation");
        seen[p] = true;
        out[d] = dims[p];
      }
      return builder_->create_value("cfdlang.transpose", {*e},
                                    tensor_type(std::move(out)),
                                    {{"perm", Attribute::int_array(*perm)}});
    }

    auto it = symbols_.find(head);
    if (it == symbols_.end())
      return at.error("undefined name '" + std::string(head) + "'");
    return it->second;
  }

  SourceCursor cur_;
  Operation *program_ = nullptr;
  std::unique_ptr<ir::OpBuilder> builder_;
  std::map<std::string, Value *, std::less<>> symbols_;
  bool saw_program_ = false;
  bool saw_output_ = false;
};

}  // namespace

Expected<std::shared_ptr<ir::Module>> parse_cfdlang(std::string_view text) {
  return CfdParser(text).run();
}

}  // namespace everest::frontend
