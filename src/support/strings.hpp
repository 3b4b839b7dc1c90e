// everest/support/strings.hpp
//
// Small string utilities shared by the parsers, printers, and report writers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace everest::support {

/// Stable 64-bit FNV-1a hash. Used wherever a content address must be
/// reproducible across runs and platforms (the compile cache keys on it);
/// never replace with std::hash, whose value is implementation-defined.
constexpr std::uint64_t fnv1a(std::string_view text,
                              std::uint64_t seed = 14695981039346656037ull) {
  std::uint64_t hash = seed;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Joins `parts` with `sep` between elements.
std::string join(const std::vector<std::string> &parts, std::string_view sep);

/// True if `text` starts with the given prefix.
bool starts_with(std::string_view text, std::string_view prefix);

/// Formats a double compactly (no trailing zeros, max 6 significant digits).
std::string format_double(double value);

/// Formats a byte count with binary units ("4.00 KiB", "1.50 GiB").
std::string format_bytes(double bytes);

}  // namespace everest::support
