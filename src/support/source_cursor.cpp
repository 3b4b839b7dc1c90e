#include "support/source_cursor.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>

#include "support/strings.hpp"

namespace everest::support {

namespace {

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)); }
bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }
bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

void SourceCursor::skip() {
  const std::string_view comment = lang_.line_comment;
  while (pos_ < text_.size()) {
    char c = text_[pos_];
    if (c == '\n' && lang_.line_oriented) return;
    if (is_space(c)) {
      ++pos_;
    } else if (!comment.empty() &&
               text_.substr(pos_, comment.size()) == comment) {
      pos_ = std::min(text_.find('\n', pos_), text_.size());
    } else {
      return;
    }
  }
}

char SourceCursor::peek() {
  skip();
  return pos_ < text_.size() ? text_[pos_] : '\0';
}

bool SourceCursor::next_line() {
  while (consume('\n')) {
  }
  return !at_end();
}

bool SourceCursor::consume(char c) {
  if (peek() != c || c == '\0') return false;
  ++pos_;
  return true;
}

bool SourceCursor::consume(std::string_view punct) {
  skip();
  if (text_.substr(pos_, punct.size()) != punct) return false;
  pos_ += punct.size();
  return true;
}

bool SourceCursor::consume_word(std::string_view word) {
  skip();
  std::size_t after = pos_ + word.size();
  if (text_.substr(pos_, word.size()) != word ||
      (after < text_.size() && is_word(text_[after])))
    return false;
  pos_ = after;
  return true;
}

std::string_view SourceCursor::ident() {
  char c = peek();
  if (!std::isalpha(static_cast<unsigned char>(c)) && c != '_') return {};
  std::size_t start = pos_;
  while (pos_ < text_.size() && is_word(text_[pos_])) ++pos_;
  return text_.substr(start, pos_ - start);
}

Expected<double> SourceCursor::number() {
  char c = peek();
  std::size_t start = pos_;
  if (!is_digit(c) &&
      !(c == '.' && start + 1 < text_.size() && is_digit(text_[start + 1])))
    return error("expected a number");
  // The span a number may occupy: digits, '.', exponent marks, and a sign
  // right after an exponent mark. The whole span must parse.
  while (pos_ < text_.size()) {
    char d = text_[pos_];
    bool sign = (d == '+' || d == '-') &&
                (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E');
    if (!is_digit(d) && d != '.' && d != 'e' && d != 'E' && !sign) break;
    ++pos_;
  }
  std::string token(text_.substr(start, pos_ - start));
  char *end = nullptr;
  double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) {
    pos_ = start;
    return error("malformed number '" + token + "'");
  }
  return value;
}

Expected<std::int64_t> SourceCursor::integer() {
  if (!is_digit(peek())) return error("expected an integer");
  std::int64_t value = 0;
  auto [end, ec] =
      std::from_chars(text_.data() + pos_, text_.data() + text_.size(), value);
  if (ec != std::errc()) return error("integer out of range");
  pos_ = static_cast<std::size_t>(end - text_.data());
  return value;
}

Expected<std::string_view> SourceCursor::sigil_name(char sigil) {
  if (peek() != sigil) return error(std::string("expected '") + sigil + "'");
  std::size_t start = pos_++;
  while (pos_ < text_.size() && (is_word(text_[pos_]) || text_[pos_] == '.'))
    ++pos_;
  return text_.substr(start, pos_ - start);
}

Expected<std::string> SourceCursor::quoted() {
  if (peek() != '"') return error("expected quoted string");
  const SourceCursor open = *this;
  ++pos_;
  std::string out;
  while (pos_ < text_.size() && text_[pos_] != '"') {
    if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
    out += text_[pos_++];
  }
  if (pos_ >= text_.size()) return open.error("unterminated string");
  ++pos_;
  return out;
}

std::string_view SourceCursor::balanced_until(std::string_view stops) {
  skip();
  std::size_t start = pos_;
  int depth = 0;
  while (pos_ < text_.size()) {
    char c = text_[pos_];
    if (c == '"') {  // a quoted string is opaque
      for (++pos_; pos_ < text_.size() && text_[pos_] != '"'; ++pos_)
        if (text_[pos_] == '\\') ++pos_;
      pos_ = std::min(pos_ + 1, text_.size());
      continue;
    }
    if (c == '\n' && lang_.line_oriented) break;
    if (depth == 0 &&
        stops.find(is_space(c) ? ' ' : c) != std::string_view::npos)
      break;
    if (c == '(' || c == '[' || c == '{' || c == '<') {
      ++depth;
    } else if (c == ')' || c == ']' || c == '}' || c == '>') {
      if (depth == 0) break;
      --depth;
    }
    ++pos_;
  }
  return trim(text_.substr(start, pos_ - start));
}

SourceLoc SourceCursor::loc() {
  skip();
  SourceLoc loc;
  std::size_t line_start = 0;
  for (std::size_t i = 0; i < pos_; ++i) {
    if (text_[i] == '\n') {
      ++loc.line;
      line_start = i + 1;
    }
  }
  loc.col = pos_ - line_start + 1;
  return loc;
}

Error SourceCursor::error(std::string_view msg) const {
  SourceCursor at = *this;
  SourceLoc loc = at.loc();
  std::string where;
  if (at.pos_ >= text_.size()) {
    where = "(at end of input)";
  } else if (text_[at.pos_] == '\n') {
    where = "(at end of line)";
  } else {
    std::size_t end = at.pos_;
    while (end < text_.size() && end - at.pos_ < 24 && !is_space(text_[end]))
      ++end;
    where = "(near '" + std::string(text_.substr(at.pos_, end - at.pos_)) +
            "')";
  }
  return Error::invalid_argument(std::string(lang_.name) + ": " +
                                 std::string(msg) + " at " +
                                 std::to_string(loc.line) + ":" +
                                 std::to_string(loc.col) + " " + where);
}

}  // namespace everest::support
