#include "ir/parser.hpp"

#include <map>
#include <vector>

#include "support/source_cursor.hpp"

namespace everest::ir {

namespace {

using support::Expected;
using support::SourceCursor;

constexpr support::SourceLanguage kIr{"ir", "", false};

class ModuleParser {
public:
  explicit ModuleParser(std::string_view text) : cur_(kIr, text) {}

  Expected<std::shared_ptr<Module>> run() {
    auto module = std::make_shared<Module>();
    if (!cur_.consume_word("module")) return cur_.error("expected 'module'");
    if (!cur_.consume('{')) return cur_.error("expected '{' after module");
    while (cur_.peek() != '}') {
      if (auto s = parse_op(module->body()); !s) return s.error();
    }
    cur_.consume('}');
    if (!cur_.at_end()) return cur_.error("trailing text after module");
    return module;
  }

private:
  /// Parses one type token (types never contain whitespace).
  Expected<Type> parse_type() {
    const SourceCursor at = cur_;
    std::string_view token = cur_.balanced_until(" ,");
    if (token.empty()) return at.error("expected a type");
    auto t = Type::parse(token);
    if (!t) return at.error(t.error().message);
    return t;
  }

  Expected<bool> parse_op(Block &block) {
    // Optional results: "%0, %1 = ".
    std::vector<std::string_view> result_names;
    if (cur_.peek() == '%') {
      while (true) {
        auto name = cur_.sigil_name('%');
        if (!name) return name.error();
        result_names.push_back(*name);
        if (!cur_.consume(',')) break;
      }
      if (!cur_.consume('=')) return cur_.error("expected '=' after results");
    }

    auto op_name = cur_.quoted();
    if (!op_name) return op_name.error();

    if (!cur_.consume('(')) return cur_.error("expected '(' for operands");
    std::vector<Value *> operands;
    if (cur_.peek() != ')') {
      while (true) {
        const SourceCursor at = cur_;
        auto name = cur_.sigil_name('%');
        if (!name) return name.error();
        auto it = values_.find(*name);
        if (it == values_.end())
          return at.error("use of undefined value " + std::string(*name));
        operands.push_back(it->second);
        if (!cur_.consume(',')) break;
      }
    }
    if (!cur_.consume(')')) return cur_.error("expected ')' after operands");

    // Create the op now (result types are appended after parsing the
    // signature via add_result); regions are parsed directly into it. The
    // result count is already known from the lhs names, so the inline
    // storage is sized exactly and add_result never spills.
    Operation *op = Operation::create_with_capacity(
        block.arena(), Symbol(*op_name), {}, operands.size(),
        result_names.size(), 0);
    for (Value *v : operands) op->append_operand(v);
    block.attach(op);

    // Optional regions: " ({ ... }, { ... })". In generic form '(' here
    // always means regions since the signature starts with ':'.
    if (cur_.consume('(')) {
      while (true) {
        if (auto s = parse_region(op->add_region()); !s) return s.error();
        if (!cur_.consume(',')) break;
      }
      if (!cur_.consume(')')) return cur_.error("expected ')' after regions");
    }

    // Optional attribute dictionary: "{key = value, unit_key}".
    if (cur_.consume('{') && !cur_.consume('}')) {
      do {
        const SourceCursor at = cur_;
        std::string_view key = cur_.balanced_until("=,");
        if (key.empty()) return at.error("expected an attribute name");
        Attribute value;  // a bare key is a unit attribute
        if (cur_.consume('=')) {
          const SourceCursor value_at = cur_;
          auto parsed = Attribute::parse(cur_.balanced_until(","));
          if (!parsed) return value_at.error(parsed.error().message);
          value = std::move(*parsed);
        }
        op->set_attr(std::string(key), std::move(value));
      } while (cur_.consume(','));
      if (!cur_.consume('}'))
        return cur_.error("expected '}' after attributes");
    }

    // Operand types are implied by the operands; they are skipped.
    if (!cur_.consume(':')) return cur_.error("expected ':' before signature");
    if (!cur_.consume('(')) return cur_.error("expected '(' for operand types");
    cur_.balanced_until("");
    if (!cur_.consume(')'))
      return cur_.error("expected ')' after operand types");
    if (!cur_.consume("->")) return cur_.error("expected '->'");

    const SourceCursor results_at = cur_;
    std::vector<Type> result_types;
    if (cur_.consume('(')) {
      if (!cur_.consume(')')) {
        do {
          auto t = parse_type();
          if (!t) return t.error();
          result_types.push_back(std::move(*t));
        } while (cur_.consume(','));
        if (!cur_.consume(')'))
          return cur_.error("expected ')' after result types");
      }
    } else {
      auto t = parse_type();
      if (!t) return t.error();
      result_types.push_back(std::move(*t));
    }

    if (result_types.size() != result_names.size())
      return results_at.error("result name/type count mismatch for op " +
                              *op_name);

    // Results become known only now; append them in place (arena values are
    // pointer-stable, so no rebuild or region shuffling is needed).
    for (std::size_t i = 0; i < result_types.size(); ++i)
      values_[result_names[i]] = op->add_result(std::move(result_types[i]));
    return true;
  }

  Expected<bool> parse_region(Region &region) {
    if (!cur_.consume('{')) return cur_.error("expected '{' for region");
    while (cur_.peek() != '}') {
      if (cur_.peek() == '^') {
        if (auto s = parse_block_header(region); !s) return s;
      } else {
        if (region.empty()) region.add_block();
        if (auto s = parse_op(region.back()); !s) return s;
      }
    }
    cur_.consume('}');
    return true;
  }

  Expected<bool> parse_block_header(Region &region) {
    auto label = cur_.sigil_name('^');
    if (!label) return label.error();
    Block &block = region.add_block();
    if (cur_.consume('(')) {
      while (cur_.peek() != ')') {
        auto name = cur_.sigil_name('%');
        if (!name) return name.error();
        if (!cur_.consume(':'))
          return cur_.error("expected ':' after block arg");
        auto t = parse_type();
        if (!t) return t.error();
        values_[*name] = &block.add_argument(std::move(*t));
        cur_.consume(',');
      }
      cur_.consume(')');
    }
    if (!cur_.consume(':')) return cur_.error("expected ':' after block label");
    return true;
  }

  SourceCursor cur_;
  std::map<std::string_view, Value *> values_;
};

}  // namespace

Expected<std::shared_ptr<Module>> parse_module(std::string_view text) {
  return ModuleParser(text).run();
}

}  // namespace everest::ir
