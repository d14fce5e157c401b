#include "model.h"

#include <algorithm>

namespace af::lint {
namespace {

[[nodiscard]] bool is_ident(const Token& t, const char* s) {
  return t.kind == Tok::kIdent && t.text == s;
}
[[nodiscard]] bool is_punct(const Token& t, const char* s) {
  return t.kind == Tok::kPunct && t.text == s;
}

/// Annotation macros whose (args) groups are attributes, never calls or
/// function heads.
[[nodiscard]] bool is_annotation_macro(const std::string& s) {
  return s == "AF_GUARDED_BY" || s == "AF_PT_GUARDED_BY" ||
         s == "AF_REQUIRES" || s == "AF_EXCLUSIVE_LOCKS_REQUIRED" ||
         s == "AF_ACQUIRE" || s == "AF_RELEASE" || s == "AF_TRY_ACQUIRE" ||
         s == "AF_EXCLUDES" || s == "AF_CAPABILITY" ||
         s == "AF_RETURN_CAPABILITY" || s == "AF_THREAD_ANNOTATION";
}

[[nodiscard]] bool is_access_specifier(const std::string& s) {
  return s == "public" || s == "private" || s == "protected";
}

/// Per-file parser: walks the code tokens with a scope stack and fills the
/// shared class/function tables.
class FileParser {
 public:
  FileParser(const SourceFile& file, const std::vector<Token>& toks,
             std::vector<ClassInfo>& classes,
             std::vector<FunctionInfo>& functions)
      : path_(file.path), toks_(toks), classes_(classes),
        functions_(functions) {}

  void run() { parse_region(0, toks_.size(), /*class_idx=*/-1); }

 private:
  struct Stmt {
    std::vector<std::size_t> idx;  // token indices (brace-init groups elided)
    std::ptrdiff_t brace_init_at = -1;  // position in idx before a {…} init
  };

  [[nodiscard]] const Token& tok(std::size_t i) const { return toks_[i]; }

  /// Index one past the brace/paren group opened at `open`.
  [[nodiscard]] std::size_t skip_group(std::size_t open, std::size_t end,
                                       const char* ob, const char* cb) const {
    int depth = 0;
    for (std::size_t i = open; i < end; ++i) {
      if (!is_code(tok(i))) continue;
      if (is_punct(tok(i), ob)) ++depth;
      if (is_punct(tok(i), cb) && --depth == 0) return i + 1;
    }
    return end;
  }

  /// Parses statements in [begin, end); `class_idx` indexes classes_ when
  /// this region is a class body, -1 for namespace / top-level regions.
  void parse_region(std::size_t begin, std::size_t end,
                    std::ptrdiff_t class_idx) {
    std::size_t i = begin;
    Stmt stmt;
    int paren_depth = 0;
    auto reset = [&] { stmt = Stmt{}; };
    while (i < end) {
      const Token& t = tok(i);
      if (!is_code(t)) {
        ++i;
        continue;
      }
      // Access labels restart the statement.
      if (paren_depth == 0 && stmt.idx.size() == 1 &&
          tok(stmt.idx[0]).kind == Tok::kIdent &&
          is_access_specifier(tok(stmt.idx[0]).text) && is_punct(t, ":")) {
        reset();
        ++i;
        continue;
      }
      if (is_punct(t, "(")) ++paren_depth;
      if (is_punct(t, ")")) --paren_depth;
      if (paren_depth == 0 && is_punct(t, ";")) {
        if (class_idx >= 0) maybe_member(stmt, class_idx);
        reset();
        ++i;
        continue;
      }
      if (paren_depth == 0 && is_punct(t, "{")) {
        const std::size_t close = skip_group(i, end, "{", "}");
        if (!dispatch_brace(stmt, i, close, class_idx)) {
          // Brace initializer: elide the group, keep scanning the statement.
          if (stmt.brace_init_at < 0) {
            stmt.brace_init_at =
                static_cast<std::ptrdiff_t>(stmt.idx.size());
          }
          i = close;
          continue;
        }
        reset();
        i = close;
        continue;
      }
      stmt.idx.push_back(i);
      ++i;
    }
  }

  /// Classifies the brace opened at `open` given the statement prefix.
  /// Returns true when the brace was consumed as a scope/body (statement
  /// done), false when it is a brace initializer the caller should elide.
  bool dispatch_brace(const Stmt& stmt, std::size_t open, std::size_t close,
                      std::ptrdiff_t class_idx) {
    const auto& p = stmt.idx;
    if (p.empty()) return true;  // bare block
    if (is_ident(tok(p[0]), "namespace")) {
      std::string ns;
      for (std::size_t k = 1; k < p.size(); ++k) {
        if (tok(p[k]).kind == Tok::kIdent) {
          if (!ns.empty()) ns += "::";
          ns += tok(p[k]).text;
        }
      }
      namespaces_.push_back(ns);
      parse_region(open + 1, close - 1, -1);
      namespaces_.pop_back();
      return true;
    }
    if (is_ident(tok(p[0]), "enum")) return true;  // opaque
    // class/struct/union definition? (`enum class` was caught above; a
    // keyword appearing inside template params is preceded by '<'.)
    for (std::size_t k = 0; k < p.size(); ++k) {
      if (tok(p[k]).kind != Tok::kIdent) continue;
      const std::string& kw = tok(p[k]).text;
      if (kw != "class" && kw != "struct" && kw != "union") continue;
      if (k > 0 && (is_punct(tok(p[k - 1]), "<") ||
                    is_punct(tok(p[k - 1]), ","))) {
        continue;  // template parameter, keep looking
      }
      return open_class(p, k, open, close);
    }
    // Function body? Find the first (name)(args) group at top level whose
    // head is a plain identifier (annotation macros excluded).
    const std::ptrdiff_t name_at = function_name_index(p);
    if (name_at >= 0) {
      record_function(p, static_cast<std::size_t>(name_at), open, close,
                      class_idx);
      return true;
    }
    return false;  // brace initializer
  }

  bool open_class(const std::vector<std::size_t>& p, std::size_t kw_at,
                  std::size_t open, std::size_t close) {
    // Name: the last plain identifier before the base clause (a lone ':').
    std::string name;
    int line = tok(p[kw_at]).line;
    for (std::size_t k = kw_at + 1; k < p.size(); ++k) {
      const Token& t = tok(p[k]);
      if (is_punct(t, ":")) break;
      if (t.kind == Tok::kIdent && t.text != "final" &&
          !is_annotation_macro(t.text)) {
        // Skip annotation-macro argument contents.
        if (k + 1 < p.size() && is_punct(tok(p[k + 1]), "(")) {
          // could be a macro we don't know; treat its head as candidate
          // only if nothing better follows.
        }
        name = t.text;
        line = t.line;
      }
    }
    if (name.empty()) return true;  // anonymous struct: opaque block
    std::string qualified;
    for (const auto& ns : namespaces_) {
      if (!ns.empty()) qualified += ns + "::";
    }
    for (const auto& c : class_stack_) qualified += c + "::";
    qualified += name;
    classes_.push_back(ClassInfo{qualified, path_, line, {}});
    const std::ptrdiff_t idx =
        static_cast<std::ptrdiff_t>(classes_.size()) - 1;
    class_stack_.push_back(name);
    parse_region(open + 1, close - 1, idx);
    class_stack_.pop_back();
    return true;
  }

  /// Index into `p` of the function name, or -1 when the prefix does not
  /// look like a function head.
  [[nodiscard]] std::ptrdiff_t function_name_index(
      const std::vector<std::size_t>& p) const {
    int depth = 0;
    for (std::size_t k = 0; k + 1 < p.size(); ++k) {
      if (is_punct(tok(p[k]), "(")) ++depth;
      if (is_punct(tok(p[k]), ")")) --depth;
      if (depth != 0) continue;
      if (tok(p[k]).kind == Tok::kIdent && is_punct(tok(p[k + 1]), "(") &&
          !is_annotation_macro(tok(p[k]).text)) {
        return static_cast<std::ptrdiff_t>(k);
      }
      // operator overloads: record under the name "operator".
      if (is_ident(tok(p[k]), "operator")) {
        return static_cast<std::ptrdiff_t>(k);
      }
    }
    return -1;
  }

  void record_function(const std::vector<std::size_t>& p, std::size_t name_at,
                       std::size_t open, std::size_t close,
                       std::ptrdiff_t class_idx) {
    FunctionInfo fn;
    fn.file = path_;
    fn.name = tok(p[name_at]).text;
    fn.line = tok(p[name_at]).line;
    fn.body_begin = open;
    fn.body_end = close;
    // Enclosing class: explicit A::B:: qualifier on the name wins (an
    // out-of-line definition), else the surrounding class scope.
    std::string qual;
    std::size_t k = name_at;
    while (k >= 2 && is_punct(tok(p[k - 1]), "::") &&
           tok(p[k - 2]).kind == Tok::kIdent) {
      qual = tok(p[k - 2]).text + (qual.empty() ? "" : "::" + qual);
      k -= 2;
    }
    if (!qual.empty()) {
      std::string prefix;
      for (const auto& ns : namespaces_) {
        if (!ns.empty()) prefix += ns + "::";
      }
      fn.cls = prefix + qual;
    } else if (class_idx >= 0) {
      fn.cls = classes_[static_cast<std::size_t>(class_idx)].name;
    }
    functions_.push_back(std::move(fn));
  }

  void maybe_member(const Stmt& stmt, std::ptrdiff_t class_idx) {
    const auto& p = stmt.idx;
    if (p.empty()) return;
    static const char* kSkipLeaders[] = {"using",  "typedef", "friend",
                                         "static", "template", "enum",
                                         "return", "namespace"};
    if (tok(p[0]).kind == Tok::kIdent) {
      for (const char* s : kSkipLeaders) {
        if (tok(p[0]).text == s) return;
      }
    }
    // Truncate at a top-level '=' (initializer) or at the elided {…} init.
    std::size_t limit = p.size();
    if (stmt.brace_init_at >= 0) {
      limit = static_cast<std::size_t>(stmt.brace_init_at);
    }
    int depth = 0;
    for (std::size_t k = 0; k < limit; ++k) {
      if (is_punct(tok(p[k]), "(")) ++depth;
      if (is_punct(tok(p[k]), ")")) --depth;
      if (depth == 0 && is_punct(tok(p[k]), "=")) {
        limit = k;
        break;
      }
    }
    if (limit == 0) return;
    // Drop a trailing AF_GUARDED_BY / AF_PT_GUARDED_BY(...) annotation.
    if (limit >= 4 && is_punct(tok(p[limit - 1]), ")")) {
      // Find the group's opening paren and its head.
      int d = 0;
      std::size_t openk = limit;
      for (std::size_t k = limit; k-- > 0;) {
        if (is_punct(tok(p[k]), ")")) ++d;
        if (is_punct(tok(p[k]), "(") && --d == 0) {
          openk = k;
          break;
        }
      }
      if (openk > 0 && tok(p[openk - 1]).kind == Tok::kIdent &&
          (tok(p[openk - 1]).text == "AF_GUARDED_BY" ||
           tok(p[openk - 1]).text == "AF_PT_GUARDED_BY")) {
        limit = openk - 1;
      }
    }
    if (limit < 2) return;
    // A remaining paren means a function/ctor declaration, not a member.
    depth = 0;
    for (std::size_t k = 0; k < limit; ++k) {
      if (is_punct(tok(p[k]), "(")) return;
      if (is_punct(tok(p[k]), "[")) return;  // arrays / attributes: skip
    }
    // Name = last identifier; type = tokens before it.
    if (tok(p[limit - 1]).kind != Tok::kIdent) return;
    MemberVar m;
    m.name = tok(p[limit - 1]).text;
    m.line = tok(p[limit - 1]).line;
    // Type head: skip leading cv/storage words, then join ident::ident…
    std::size_t k = 0;
    while (k + 1 < limit && tok(p[k]).kind == Tok::kIdent &&
           (tok(p[k]).text == "const" || tok(p[k]).text == "mutable" ||
            tok(p[k]).text == "volatile" || tok(p[k]).text == "inline" ||
            tok(p[k]).text == "constexpr")) {
      ++k;
    }
    std::string head;
    while (k + 1 < limit) {
      if (tok(p[k]).kind == Tok::kIdent) {
        head += tok(p[k]).text;
        if (k + 2 < limit && is_punct(tok(p[k + 1]), "::")) {
          head += "::";
          k += 2;
          continue;
        }
      }
      break;
    }
    if (head.empty()) return;
    m.type_head = head;
    classes_[static_cast<std::size_t>(class_idx)].members.push_back(
        std::move(m));
  }

  const std::string& path_;
  const std::vector<Token>& toks_;
  std::vector<ClassInfo>& classes_;
  std::vector<FunctionInfo>& functions_;
  std::vector<std::string> namespaces_;
  std::vector<std::string> class_stack_;
};

}  // namespace

bool qualified_suffix_match(const std::string& qualified,
                            const std::string& suffix) {
  if (suffix.empty() || qualified.size() < suffix.size()) return false;
  if (qualified.compare(qualified.size() - suffix.size(), suffix.size(),
                        suffix) != 0) {
    return false;
  }
  if (qualified.size() == suffix.size()) return true;
  const std::size_t before = qualified.size() - suffix.size();
  return before >= 2 && qualified.compare(before - 2, 2, "::") == 0;
}

Model Model::build(const std::vector<SourceFile>& files) {
  Model m;
  for (const SourceFile& f : files) {
    Lexed lx = lex(f.content);
    auto [it, inserted] = m.tokens_.emplace(f.path, std::move(lx.tokens));
    if (!inserted) continue;
    FileParser(f, it->second, m.classes_, m.functions_).run();
  }
  return m;
}

const std::vector<Token>* Model::tokens(const std::string& path) const {
  const auto it = tokens_.find(path);
  return it == tokens_.end() ? nullptr : &it->second;
}

const ClassInfo* Model::resolve_class(const std::string& name) const {
  if (name.empty()) return nullptr;
  const ClassInfo* found = nullptr;
  for (const auto& c : classes_) {
    if (!qualified_suffix_match(c.name, name)) continue;
    if (found != nullptr && found->name != c.name) return nullptr;  // ambiguous
    found = &c;
  }
  return found;
}

const MemberVar* Model::resolve_member(const std::string& cls,
                                       const std::string& name) const {
  // Walk the class and its enclosing classes (inner scopes see outer
  // members), innermost first.
  std::string probe = cls;
  while (!probe.empty()) {
    for (const auto& c : classes_) {
      if (c.name != probe && !qualified_suffix_match(c.name, probe)) continue;
      if (const MemberVar* m = c.member(name)) return m;
    }
    const std::size_t cut = probe.rfind("::");
    if (cut == std::string::npos) break;
    probe = probe.substr(0, cut);
  }
  return nullptr;
}

}  // namespace af::lint
