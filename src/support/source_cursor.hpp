// everest/support/source_cursor.hpp
//
// The one lexer behind every text frontend (EKL, CFDlang, ConDRust) and the
// textual IR. A SourceCursor is a cheap value over the source text: copying
// it saves a position, assigning the copy back restores it, and any copy can
// report an error located at its own position.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "support/expected.hpp"

namespace everest::support {

/// 1-based line and byte column of a position in a source text.
struct SourceLoc {
  std::size_t line = 1;
  std::size_t col = 1;
};

/// The lexical conventions a language fixes once, as a constant.
struct SourceLanguage {
  std::string_view name;          // error prefix: "<name>: <msg> at ..."
  std::string_view line_comment;  // "#", "//", or "" for none
  bool line_oriented;             // '\n' ends a statement and is not skipped
};

class SourceCursor {
public:
  /// The cursor views `text`, which must outlive it.
  SourceCursor(SourceLanguage lang, std::string_view text)
      : lang_(lang), text_(text) {}

  /// Skips whitespace and line comments (newlines too, unless the language
  /// is line oriented) and returns the next character, '\0' at the end.
  char peek();
  bool at_end() { return peek() == '\0'; }

  /// Line-oriented languages hold one statement per line. next_line skips
  /// blank and comment-only lines and is false at the end of input;
  /// end_line consumes the newline that must end a statement.
  bool next_line();
  bool end_line() { return at_end() || consume('\n'); }

  /// Consumes `punct` (one or more characters) if it comes next.
  bool consume(char c);
  bool consume(std::string_view punct);

  /// Consumes the whole word `word` if it comes next (not as the prefix of
  /// a longer identifier).
  bool consume_word(std::string_view word);

  /// Reads [A-Za-z_][A-Za-z0-9_]*; empty, consuming nothing, if none is next.
  std::string_view ident();

  /// Reads a decimal number ("1", "2.5", ".5", "1e-3"). A digit run that
  /// does not parse as a whole ("1.2.3", "5e") is an error, never a prefix.
  Expected<double> number();

  /// Reads an unsigned decimal integer.
  Expected<std::int64_t> integer();

  /// Reads `sigil` followed by [A-Za-z0-9_.]* (IR value and block names);
  /// the result keeps the sigil.
  Expected<std::string_view> sigil_name(char sigil);

  /// Reads a "..." string, resolving backslash escapes.
  Expected<std::string> quoted();

  /// Reads raw text up to the first character of `stops` that sits outside
  /// any (), [], {} or <> group and quoted string, or up to a closer that
  /// ends the enclosing group, or up to the end of a line-oriented line. A
  /// ' ' in `stops` matches any whitespace. Nothing is consumed past the
  /// stop; the result is trimmed.
  std::string_view balanced_until(std::string_view stops);

  /// Location of the next token, counted on demand from the text.
  SourceLoc loc();

  /// "<lang>: <msg> at <line>:<col> (near '<tok>')" as invalid-argument,
  /// located at the next token of this cursor (or a saved copy of it).
  Error error(std::string_view msg) const;

private:
  void skip();

  SourceLanguage lang_;
  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace everest::support
