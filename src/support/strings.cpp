#include "support/strings.hpp"

#include <array>
#include <cctype>
#include <cstdio>

namespace everest::support {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

std::string join(const std::vector<std::string> &parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string format_double(double value) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.6g", value);
  return std::string(buf.data());
}

std::string format_bytes(double bytes) {
  static const char *units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.2f %s", bytes, units[u]);
  return std::string(buf.data());
}

}  // namespace everest::support
