// Token-level C++ lexer for af_lint (DESIGN.md §6.1).
//
// v1 of the linter blanked comments and literals with a per-line state
// machine; it reset string state at end-of-line (so raw strings leaked into
// "code") and collected `af_lint: allow` suppressions from *raw* lines (so a
// marker inside a string literal suppressed real findings). This lexer is
// the v2 foundation: one pass over the file produces
//
//   * a real token stream — identifiers, numbers, string/char literals
//     (including raw strings and encoding prefixes), multi-char operators,
//     comments and whole preprocessor directives, each with its source line —
//     which the semantic rules (iteration dataflow, status tracking) walk
//     directly, and
//   * blanked "code lines" — byte-aligned with the original lines, with
//     every comment and literal body replaced by spaces — which the
//     declaration-shaped line rules still pattern-match against.
//
// It is a *lexer*, not a preprocessor: macros are not expanded and
// conditional-compilation branches are all lexed. That is exactly what a
// convention checker wants — conventions hold in every branch.
#pragma once

#include <string>
#include <vector>

namespace af::lint {

enum class Tok {
  kIdent,         // identifiers and keywords (no distinction needed here)
  kNumber,        // numeric literal, including digit separators / suffixes
  kString,        // ordinary or encoded string literal ("..", u8"..", ...)
  kRawString,     // raw string literal R"delim(..)delim" (any prefix)
  kChar,          // character literal ('a', L'\n', ...)
  kPunct,         // operator / punctuation; multi-char ops are one token
  kComment,       // // or /* */ comment, full text including markers
  kPreprocessor,  // one whole directive, backslash continuations merged
};

struct Token {
  Tok kind = Tok::kPunct;
  std::string text;  // for literals: the full source spelling
  int line = 0;      // 1-based line the token starts on
  int end_line = 0;  // 1-based line the token ends on (== line if one-line)
};

struct Lexed {
  std::vector<std::string> raw_lines;   // original lines, \r\n normalized
  std::vector<std::string> code_lines;  // comments + literal bodies blanked
  std::vector<Token> tokens;            // every token, comments included
};

/// Lexes one translation unit's worth of text. Never fails: unterminated
/// constructs lex as whatever they look like through end-of-file.
[[nodiscard]] Lexed lex(const std::string& content);

/// True for tokens the semantic rules should see (skips comments and
/// preprocessor directives).
[[nodiscard]] inline bool is_code(const Token& t) {
  return t.kind != Tok::kComment && t.kind != Tok::kPreprocessor;
}

}  // namespace af::lint
