// everest/ir/attributes.hpp
//
// Attributes: compile-time constant data attached to operations. A compact
// analogue of MLIR attributes: unit, bool, integer, float, string, type,
// and arrays thereof.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "ir/interner.hpp"
#include "ir/types.hpp"

namespace everest::ir {

/// A constant attribute value with structural equality and a canonical
/// textual form.
class Attribute {
public:
  /// Unit attribute (presence-only flag).
  Attribute() : value_(std::monostate{}) {}
  Attribute(bool b) : value_(b) {}
  Attribute(std::int64_t i) : value_(i) {}
  Attribute(int i) : value_(static_cast<std::int64_t>(i)) {}
  Attribute(double d) : value_(d) {}
  Attribute(const char *s) : value_(std::string(s)) {}
  Attribute(std::string s) : value_(std::move(s)) {}
  Attribute(Type t) : value_(std::move(t)) {}
  Attribute(std::vector<Attribute> items) : value_(std::move(items)) {}

  /// Builds an array attribute from a vector of integers.
  static Attribute int_array(const std::vector<std::int64_t> &xs) {
    std::vector<Attribute> items;
    items.reserve(xs.size());
    for (auto x : xs) items.emplace_back(x);
    return Attribute(std::move(items));
  }

  /// Builds an array attribute from a vector of strings.
  static Attribute string_array(const std::vector<std::string> &xs) {
    std::vector<Attribute> items;
    items.reserve(xs.size());
    for (const auto &x : xs) items.emplace_back(x);
    return Attribute(std::move(items));
  }

  [[nodiscard]] bool is_unit() const {
    return std::holds_alternative<std::monostate>(value_);
  }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(value_); }
  [[nodiscard]] bool is_int() const {
    return std::holds_alternative<std::int64_t>(value_);
  }
  [[nodiscard]] bool is_double() const {
    return std::holds_alternative<double>(value_);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool is_type() const { return std::holds_alternative<Type>(value_); }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<std::vector<Attribute>>(value_);
  }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(value_); }
  [[nodiscard]] std::int64_t as_int() const { return std::get<std::int64_t>(value_); }
  [[nodiscard]] double as_double() const {
    if (is_int()) return static_cast<double>(as_int());
    return std::get<double>(value_);
  }
  [[nodiscard]] const std::string &as_string() const {
    return std::get<std::string>(value_);
  }
  [[nodiscard]] const Type &as_type() const { return std::get<Type>(value_); }
  [[nodiscard]] const std::vector<Attribute> &as_array() const {
    return std::get<std::vector<Attribute>>(value_);
  }

  /// Convenience: array-of-int attribute back to a plain vector.
  [[nodiscard]] std::vector<std::int64_t> as_int_vector() const;
  /// Convenience: array-of-string attribute back to a plain vector.
  [[nodiscard]] std::vector<std::string> as_string_vector() const;

  bool operator==(const Attribute &other) const { return value_ == other.value_; }
  bool operator!=(const Attribute &other) const { return !(*this == other); }

  /// Canonical textual form: `unit`, `true`, `42`, `3.5 : f64`, `"s"`,
  /// `[a, b]`, or a type.
  [[nodiscard]] std::string str() const;

  /// Parses the canonical textual form.
  static support::Expected<Attribute> parse(std::string_view text);

private:
  std::variant<std::monostate, bool, std::int64_t, double, std::string, Type,
               std::vector<Attribute>>
      value_;
};

/// One attribute-dictionary entry: interned key + value.
using NamedAttribute = std::pair<Symbol, Attribute>;

/// An operation's attribute dictionary: a flat vector kept sorted by key
/// text. Dictionaries are tiny (1–4 entries), so lookups are linear scans
/// over contiguous storage — no per-node heap traffic like std::map — and
/// iteration order stays lexicographic, which the printer relies on for
/// canonical output.
///
/// Storage is copy-on-write: copying a dictionary (every op clone does)
/// shares the entry vector behind a refcount; the first set() on a shared
/// dictionary takes a private copy. An empty dictionary holds no storage.
class AttrDict {
public:
  AttrDict() = default;
  AttrDict(std::initializer_list<std::pair<std::string_view, Attribute>> items) {
    for (auto &item : items) set(Symbol(item.first), item.second);
  }

  /// Inserts or overwrites, keeping the vector sorted by key text.
  void set(Symbol key, Attribute value);
  void set(std::string_view key, Attribute value);

  /// Returns the value or nullptr. The Symbol overload is a pure pointer
  /// scan; the string overload compares spellings without interning.
  [[nodiscard]] const Attribute *find(Symbol key) const {
    for (const auto &item : items()) {
      if (item.first == key) return &item.second;
    }
    return nullptr;
  }
  [[nodiscard]] const Attribute *find(std::string_view key) const {
    for (const auto &item : items()) {
      if (item.first.view() == key) return &item.second;
    }
    return nullptr;
  }
  [[nodiscard]] bool contains(std::string_view key) const {
    return find(key) != nullptr;
  }

  [[nodiscard]] bool empty() const { return items().empty(); }
  [[nodiscard]] std::size_t size() const { return items().size(); }
  [[nodiscard]] std::vector<NamedAttribute>::const_iterator begin() const {
    return items().begin();
  }
  [[nodiscard]] std::vector<NamedAttribute>::const_iterator end() const {
    return items().end();
  }

private:
  using Items = std::vector<NamedAttribute>;

  [[nodiscard]] const Items &items() const {
    return items_ ? *items_ : empty_items();
  }
  static const Items &empty_items();
  /// Storage writable by this handle alone: allocates when null, clones when
  /// shared with another dictionary.
  Items &mutable_items();

  std::shared_ptr<Items> items_;
};

}  // namespace everest::ir
