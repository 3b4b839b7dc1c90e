#include "ir/attributes.hpp"

#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/strings.hpp"

namespace everest::ir {

const AttrDict::Items &AttrDict::empty_items() {
  static const Items empty;
  return empty;
}

AttrDict::Items &AttrDict::mutable_items() {
  if (!items_)
    items_ = std::make_shared<Items>();
  else if (items_.use_count() > 1)
    items_ = std::make_shared<Items>(*items_);
  return *items_;
}

void AttrDict::set(Symbol key, Attribute value) {
  Items &items = mutable_items();
  auto it = items.begin();
  for (; it != items.end(); ++it) {
    if (it->first == key) {
      it->second = std::move(value);
      return;
    }
    if (key < it->first) break;
  }
  items.insert(it, NamedAttribute(key, std::move(value)));
}

// Out of line on purpose: inlined, the by-value move below lets GCC's
// -Wmaybe-uninitialized trace variant alternatives the caller never built.
void AttrDict::set(std::string_view key, Attribute value) {
  set(Symbol(key), std::move(value));
}

std::vector<std::int64_t> Attribute::as_int_vector() const {
  std::vector<std::int64_t> out;
  for (const auto &a : as_array()) out.push_back(a.as_int());
  return out;
}

std::vector<std::string> Attribute::as_string_vector() const {
  std::vector<std::string> out;
  for (const auto &a : as_array()) out.push_back(a.as_string());
  return out;
}

namespace {

std::string quote(const std::string &s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  out += '"';
  return out;
}

std::string format_double_attr(double d) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1.0e15) {
    // Keep a decimal point so the parser can distinguish from integers.
    std::array<char, 48> buf{};
    std::snprintf(buf.data(), buf.size(), "%.1f", d);
    return buf.data();
  }
  std::array<char, 48> buf{};
  std::snprintf(buf.data(), buf.size(), "%.17g", d);
  return buf.data();
}

}  // namespace

std::string Attribute::str() const {
  if (is_unit()) return "unit";
  if (is_bool()) return as_bool() ? "true" : "false";
  if (is_int()) return std::to_string(as_int());
  if (is_double()) return format_double_attr(std::get<double>(value_));
  if (is_string()) return quote(as_string());
  if (is_type()) return as_type().str();
  std::string out = "[";
  const auto &items = as_array();
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ", ";
    out += items[i].str();
  }
  out += ']';
  return out;
}

namespace {

/// Splits the body of an array attribute at top-level commas, respecting
/// nested brackets, angle brackets, and quoted strings.
support::Expected<std::vector<std::string>> split_array(std::string_view body) {
  std::vector<std::string> out;
  int depth = 0;
  bool in_string = false;
  std::string cur;
  for (std::size_t i = 0; i < body.size(); ++i) {
    char c = body[i];
    if (in_string) {
      cur += c;
      if (c == '\\' && i + 1 < body.size()) {
        cur += body[++i];
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      cur += c;
      continue;
    }
    if (c == '[' || c == '<') ++depth;
    if (c == ']' || c == '>') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (in_string || depth != 0)
    return support::Error::make("attribute: unbalanced array body");
  if (!support::trim(cur).empty() || !out.empty()) out.push_back(cur);
  return out;
}

}  // namespace

support::Expected<Attribute> Attribute::parse(std::string_view text) {
  text = support::trim(text);
  if (text.empty()) return support::Error::make("attribute: empty text");

  if (text == "unit") return Attribute();
  if (text == "true") return Attribute(true);
  if (text == "false") return Attribute(false);

  if (text.front() == '"') {
    if (text.size() < 2 || text.back() != '"')
      return support::Error::make("attribute: unterminated string");
    std::string out;
    for (std::size_t i = 1; i + 1 < text.size(); ++i) {
      char c = text[i];
      if (c == '\\' && i + 2 < text.size()) {
        char e = text[++i];
        out += (e == 'n') ? '\n' : e;
      } else {
        out += c;
      }
    }
    return Attribute(std::move(out));
  }

  if (text.front() == '[') {
    if (text.back() != ']')
      return support::Error::make("attribute: unterminated array");
    auto parts = split_array(text.substr(1, text.size() - 2));
    if (!parts) return parts.error();
    std::vector<Attribute> items;
    for (const auto &p : *parts) {
      auto a = Attribute::parse(p);
      if (!a) return a;
      items.push_back(std::move(*a));
    }
    return Attribute(std::move(items));
  }

  if (text.front() == '!' || support::starts_with(text, "tensor<") ||
      text == "index" || text == "none") {
    auto t = Type::parse(text);
    if (!t) return t.error();
    return Attribute(std::move(*t));
  }

  // Number: double if it contains '.', 'e', or 'E'; else integer. A bare
  // "iN"/"fN" is a type.
  bool looks_number = text[0] == '-' || text[0] == '+' ||
                      std::isdigit(static_cast<unsigned char>(text[0]));
  if (looks_number) {
    std::string token(text);
    bool is_float = token.find('.') != std::string::npos ||
                    token.find('e') != std::string::npos ||
                    token.find('E') != std::string::npos;
    char *end = nullptr;
    if (is_float) {
      double d = std::strtod(token.c_str(), &end);
      if (end && *end == '\0') return Attribute(d);
    } else {
      long long v = std::strtoll(token.c_str(), &end, 10);
      if (end && *end == '\0') return Attribute(static_cast<std::int64_t>(v));
    }
    return support::Error::make("attribute: malformed number '" + token + "'");
  }

  if ((text[0] == 'i' || text[0] == 'f') && text.size() > 1) {
    auto t = Type::parse(text);
    if (t) return Attribute(std::move(*t));
  }

  return support::Error::make("attribute: cannot parse '" + std::string(text) +
                              "'");
}

}  // namespace everest::ir
