#include "frontend/ekl_parser.hpp"

#include <cctype>
#include <map>
#include <set>
#include <vector>

#include "dialects/ekl.hpp"
#include "ir/builder.hpp"
#include "support/source_cursor.hpp"
#include "support/strings.hpp"

namespace everest::frontend {

namespace {

using support::Expected;
using support::SourceCursor;

constexpr support::SourceLanguage kEkl{"ekl", "#", false};

class EklParser {
public:
  explicit EklParser(std::string_view text) : cur_(kEkl, text) {}

  Expected<std::shared_ptr<ir::Module>> run() {
    auto module = std::make_shared<ir::Module>();
    std::string kernel_name = "kernel";
    if (cur_.consume_word("kernel")) {
      kernel_name = cur_.ident();
      if (kernel_name.empty()) return cur_.error("expected kernel name");
    }
    ir::Operation &kernel =
        dialects::ekl::make_kernel(module->body(), kernel_name);
    builder_ = std::make_unique<ir::OpBuilder>(&kernel.region(0).front());

    while (!cur_.at_end()) {
      if (auto s = parse_statement(); !s) return s.error();
    }
    if (outputs_ == 0) return cur_.error("program declares no outputs");
    return module;
  }

private:
  /// Reads `ident {',' ident}`, reporting `what` when a name is missing.
  Expected<std::vector<std::string>> ident_list(std::string_view what) {
    std::vector<std::string> out;
    do {
      std::string name(cur_.ident());
      if (name.empty()) return cur_.error("expected " + std::string(what));
      out.push_back(std::move(name));
    } while (cur_.consume(','));
    return out;
  }

  /// Reads `expr {',' expr}`.
  Expected<std::vector<ir::Value *>> expr_list() {
    std::vector<ir::Value *> out;
    do {
      auto e = parse_expr();
      if (!e) return e.error();
      out.push_back(*e);
    } while (cur_.consume(','));
    return out;
  }

  Expected<bool> parse_statement() {
    const SourceCursor at = cur_;
    std::string head(cur_.ident());
    if (head.empty()) return cur_.error("expected a statement");

    if (head == "index") {
      auto names = ident_list("index name");
      if (!names) return names.error();
      indices_.insert(names->begin(), names->end());
      return true;
    }

    if (head == "input") {
      const SourceCursor name_at = cur_;
      std::string name(cur_.ident());
      if (name.empty()) return cur_.error("expected input name");
      std::vector<std::string> dims;
      if (cur_.consume('[')) {
        auto names = ident_list("index name in input dims");
        if (!names) return names.error();
        dims = std::move(*names);
        indices_.insert(dims.begin(), dims.end());
        if (!cur_.consume(']'))
          return cur_.error("expected ']' after input dims");
      }
      if (symbols_.count(name))
        return name_at.error("duplicate definition of '" + name + "'");
      symbols_[name] = dialects::ekl::make_input(*builder_, name, dims);
      return true;
    }

    if (head == "output") {
      const SourceCursor name_at = cur_;
      std::string name(cur_.ident());
      if (name.empty()) return cur_.error("expected output name");
      auto it = symbols_.find(name);
      if (it == symbols_.end())
        return name_at.error("output of undefined name '" + name + "'");
      dialects::ekl::make_output(*builder_, name, it->second);
      ++outputs_;
      return true;
    }

    // Assignment: name = expr
    if (!cur_.consume('=')) return cur_.error("expected '=' in assignment");
    if (indices_.count(head))
      return at.error("cannot assign to iteration index '" + head + "'");
    auto value = parse_expr();
    if (!value) return value.error();
    if (symbols_.count(head))
      return at.error("duplicate definition of '" + head + "'");
    symbols_[head] = *value;
    return true;
  }

  Expected<ir::Value *> parse_expr() {
    auto lhs = parse_term();
    if (!lhs) return lhs;
    for (char c = cur_.peek(); c == '+' || c == '-'; c = cur_.peek()) {
      cur_.consume(c);
      auto rhs = parse_term();
      if (!rhs) return rhs;
      lhs = dialects::ekl::make_binary(*builder_, c == '+' ? "add" : "sub",
                                       *lhs, *rhs);
    }
    return lhs;
  }

  Expected<ir::Value *> parse_term() {
    auto lhs = parse_factor();
    if (!lhs) return lhs;
    for (char c = cur_.peek(); c == '*' || c == '/'; c = cur_.peek()) {
      cur_.consume(c);
      auto rhs = parse_factor();
      if (!rhs) return rhs;
      lhs = dialects::ekl::make_binary(*builder_, c == '*' ? "mul" : "div",
                                       *lhs, *rhs);
    }
    return lhs;
  }

  Expected<ir::Value *> parse_factor() {
    char c = cur_.peek();
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
      auto number = cur_.number();
      if (!number) return number.error();
      return dialects::ekl::make_literal(*builder_, *number);
    }

    if (cur_.consume('(')) {
      auto inner = parse_expr();
      if (!inner) return inner;
      if (!cur_.consume(')')) return cur_.error("expected ')'");
      return inner;
    }

    if (cur_.consume('[')) {  // in-place construction
      auto parts = expr_list();
      if (!parts) return parts.error();
      if (!cur_.consume(']')) return cur_.error("expected ']' after stack");
      std::string new_index = "_s" + std::to_string(stack_counter_++);
      indices_.insert(new_index);
      return dialects::ekl::make_stack(*builder_, *parts, new_index);
    }

    const SourceCursor at = cur_;
    std::string name(cur_.ident());
    if (name.empty()) return cur_.error("expected expression");

    if (name == "sum") {
      if (!cur_.consume('(')) return cur_.error("expected '(' after sum");
      auto reduce = ident_list("index in sum");
      if (!reduce) return reduce.error();
      if (!cur_.consume(')'))
        return cur_.error("expected ')' after sum indices");
      // sum binds the whole following term (product chain), matching the
      // paper's  tau = sum(dT) sum(dp) ... r * alpha * k  reading.
      auto body = parse_term();
      if (!body) return body;
      return dialects::ekl::make_sum(*builder_, *body, *reduce);
    }

    if (name == "select") {
      if (!cur_.consume('(')) return cur_.error("expected '(' after select");
      auto lhs = parse_expr();
      if (!lhs) return lhs;
      static const std::pair<std::string_view, std::string> predicates[] = {
          {"<=", "le"}, {"<", "lt"},  {">=", "ge"},
          {">", "gt"},  {"==", "eq"}, {"!=", "ne"}};
      const std::string *predicate = nullptr;
      for (const auto &[punct, pred] : predicates) {
        if (cur_.consume(punct)) {
          predicate = &pred;
          break;
        }
      }
      if (!predicate) return cur_.error("expected comparison");
      auto rhs = parse_expr();
      if (!rhs) return rhs;
      ir::Value *cond =
          dialects::ekl::make_compare(*builder_, *predicate, *lhs, *rhs);
      if (!cur_.consume(',')) return cur_.error("expected ',' after condition");
      auto then_v = parse_expr();
      if (!then_v) return then_v;
      if (!cur_.consume(',')) return cur_.error("expected ',' in select");
      auto else_v = parse_expr();
      if (!else_v) return else_v;
      if (!cur_.consume(')')) return cur_.error("expected ')' after select");
      return dialects::ekl::make_select(*builder_, cond, *then_v, *else_v);
    }

    // Identifier: index reference, symbol reference, optionally subscripted.
    ir::Value *base = nullptr;
    if (indices_.count(name)) {
      base = dialects::ekl::make_index(*builder_, name);
    } else {
      auto it = symbols_.find(name);
      if (it == symbols_.end())
        return at.error("use of undefined name '" + name + "'");
      base = it->second;
    }

    if (cur_.consume('[')) {
      auto subs = expr_list();
      if (!subs) return subs.error();
      if (!cur_.consume(']'))
        return cur_.error("expected ']' after subscripts");
      auto rank = dialects::ekl::result_indices(*base).size();
      if (subs->size() > rank)
        return at.error("'" + name + "' subscripted with " +
                        std::to_string(subs->size()) + " exprs but has rank " +
                        std::to_string(rank));
      return dialects::ekl::make_gather(*builder_, base, *subs);
    }
    return base;
  }

  SourceCursor cur_;
  std::unique_ptr<ir::OpBuilder> builder_;
  std::map<std::string, ir::Value *> symbols_;
  std::set<std::string> indices_;
  int stack_counter_ = 0;
  int outputs_ = 0;
};

}  // namespace

Expected<std::shared_ptr<ir::Module>> parse_ekl(std::string_view text) {
  return EklParser(text).run();
}

std::size_t count_ekl_lines(std::string_view text) {
  std::size_t n = 0;
  for (const auto &line : support::split(text, '\n')) {
    auto t = support::trim(line);
    if (!t.empty() && t[0] != '#') ++n;
  }
  return n;
}

}  // namespace everest::frontend
