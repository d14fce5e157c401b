// Small cross-file semantic model for af_lint v2 (DESIGN.md §6.1).
//
// Built from the token stream (lexer.h), one pass per file: namespaces and
// class/struct scopes are tracked by brace nesting, member variables are
// recorded with their type head (the qualified name before any template
// argument list — "std::unordered_map", "af::Mutex", "ssd::Oracle"), and
// every function body's token extent is captured together with its
// enclosing class. That is deliberately far short of a C++ parser — no
// overload resolution, no templates, no typedef chasing — but it is enough
// for the semantic rules:
//
//   * the determinism rule resolves `for (auto& kv : packed_)` in
//     mrsm_ftl.cpp to the std::unordered_map member declared in mrsm_ftl.h;
//   * the status rule walks declared-function body extents.
//
// Name resolution is by qualified-name *suffix* ("Oracle" resolves to
// "af::ssd::Oracle"), which is unambiguous in this tree and
// keeps the model independent of using-directives.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "lexer.h"

namespace af::lint {

struct MemberVar {
  std::string name;       // as declared, e.g. "packed_"
  std::string type_head;  // qualified head, e.g. "std::unordered_map"
  int line = 0;
};

struct FunctionInfo {
  std::string cls;   // qualified enclosing class, "" for free functions
  std::string name;  // unqualified
  std::string file;
  int line = 0;
  std::size_t body_begin = 0;  // token index of the opening '{'
  std::size_t body_end = 0;    // token index one past the closing '}'
};

struct ClassInfo {
  std::string name;  // fully qualified, e.g. "af::ssd::Engine::GcPerf"
  std::string file;
  int line = 0;
  std::vector<MemberVar> members;

  [[nodiscard]] const MemberVar* member(const std::string& n) const {
    for (const auto& m : members) {
      if (m.name == n) return &m;
    }
    return nullptr;
  }
};

struct SourceFile {
  std::string path;     // repo-relative display path
  std::string content;  // full text
};

class Model {
 public:
  /// Parses `files` (each already display-pathed) into one shared model.
  /// Lexing happens internally; per-file token streams are retained so rules
  /// can walk function bodies.
  static Model build(const std::vector<SourceFile>& files);

  [[nodiscard]] const std::vector<ClassInfo>& classes() const {
    return classes_;
  }
  [[nodiscard]] const std::vector<FunctionInfo>& functions() const {
    return functions_;
  }
  /// Token stream of one parsed file ("" when the path is unknown).
  [[nodiscard]] const std::vector<Token>* tokens(const std::string& path) const;

  /// Resolves a possibly-qualified type name to a known class by
  /// qualified-name suffix match ("Oracle", "ssd::Oracle" and
  /// "af::ssd::Oracle" all resolve the same). Returns nullptr when unknown
  /// or ambiguous.
  [[nodiscard]] const ClassInfo* resolve_class(const std::string& name) const;

  /// Looks up `name` as a member of `cls` or any of its enclosing classes
  /// (an inner class's method may name an outer member).
  [[nodiscard]] const MemberVar* resolve_member(const std::string& cls,
                                                const std::string& name) const;

 private:
  std::vector<ClassInfo> classes_;
  std::vector<FunctionInfo> functions_;
  std::map<std::string, std::vector<Token>> tokens_;
};

/// True when `qualified` ends with `suffix` on a `::` boundary
/// ("a::b::c" matches suffix "b::c" and "c" but not "::c"-less "bc").
[[nodiscard]] bool qualified_suffix_match(const std::string& qualified,
                                          const std::string& suffix);

}  // namespace af::lint
