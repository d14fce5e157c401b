#include "lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string_view>

#include "lexer.h"
#include "model.h"

namespace af::lint {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// File preprocessing (lexer-backed)
// ---------------------------------------------------------------------------

struct FileView {
  std::string path;
  std::vector<std::string> raw;   // original lines
  std::vector<std::string> code;  // comments + literal bodies blanked (lexer)
  std::vector<std::set<std::string>> allows;  // per-line allowed rules
  std::set<std::string> file_allows;
};

/// Parses "rule1, rule2" out of an `allow(...)` / `allow-file(...)` marker.
std::vector<std::string> parse_rule_list(const std::string& line,
                                         std::size_t open_paren) {
  std::vector<std::string> rules;
  const std::size_t close = line.find(')', open_paren);
  if (close == std::string::npos) return rules;
  std::string inside = line.substr(open_paren + 1, close - open_paren - 1);
  std::stringstream ss(inside);
  std::string rule;
  while (std::getline(ss, rule, ',')) {
    const auto b = rule.find_first_not_of(" \t");
    const auto e = rule.find_last_not_of(" \t");
    if (b != std::string::npos) rules.push_back(rule.substr(b, e - b + 1));
  }
  return rules;
}

/// Suppressions come from *comment tokens only* — a marker spelled inside a
/// string literal (the v1 blind spot) never suppresses anything. A line
/// marker applies to its own line, then through the rest of the comment
/// block (lines with no code) to the first code line below, so a wrapped
/// justification comment still covers its target.
void collect_suppressions(FileView& f, const std::vector<Token>& tokens) {
  f.allows.assign(f.raw.size(), {});
  const auto apply_line_marker = [&](const std::string& rule,
                                     std::size_t idx) {
    if (idx >= f.raw.size()) return;
    f.allows[idx].insert(rule);
    std::size_t j = idx + 1;
    while (j < f.raw.size() &&
           f.code[j].find_first_not_of(" \t") == std::string::npos) {
      f.allows[j].insert(rule);
      ++j;
    }
    if (j < f.raw.size()) f.allows[j].insert(rule);
  };
  static constexpr std::string_view kFileMarker = "af_lint: allow-file(";
  static constexpr std::string_view kLineMarker = "af_lint: allow(";
  for (const Token& t : tokens) {
    if (t.kind != Tok::kComment) continue;
    // Scan the comment text line by line so a marker deep inside a block
    // comment anchors to the line it is written on.
    std::size_t offset = 0;
    std::size_t begin = 0;
    while (begin <= t.text.size()) {
      const std::size_t nl = t.text.find('\n', begin);
      const std::string line = t.text.substr(
          begin, nl == std::string::npos ? std::string::npos : nl - begin);
      const std::size_t idx = static_cast<std::size_t>(t.line - 1) + offset;
      if (const auto pos = line.find(kFileMarker); pos != std::string::npos) {
        for (auto& r : parse_rule_list(line, pos + kFileMarker.size() - 1)) {
          f.file_allows.insert(r);
        }
      }
      if (const auto pos = line.find(kLineMarker); pos != std::string::npos) {
        for (auto& r : parse_rule_list(line, pos + kLineMarker.size() - 1)) {
          apply_line_marker(r, idx);
        }
      }
      if (nl == std::string::npos) break;
      begin = nl + 1;
      ++offset;
    }
  }
}

bool allowed(const FileView& f, const std::string& rule, std::size_t line_idx) {
  if (f.file_allows.count(rule)) return true;
  return line_idx < f.allows.size() && f.allows[line_idx].count(rule) > 0;
}

void report(const FileView& f, std::vector<Finding>& out, std::size_t line_idx,
            std::string rule, std::string message) {
  if (allowed(f, rule, line_idx)) return;
  out.push_back(Finding{f.path, static_cast<int>(line_idx) + 1,
                        std::move(rule), std::move(message)});
}

bool starts_with(const std::string& s, std::string_view prefix) {
  return s.rfind(prefix, 0) == 0;
}
bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ---------------------------------------------------------------------------
// Rule: pragma-once
// ---------------------------------------------------------------------------

void rule_pragma_once(const FileView& f, std::vector<Finding>& out) {
  if (!ends_with(f.path, ".h")) return;
  for (const std::string& line : f.code) {
    if (line.find("#pragma once") != std::string::npos) return;
  }
  report(f, out, 0, "pragma-once", "header is missing #pragma once");
}

// ---------------------------------------------------------------------------
// Rule: nodiscard-status
// ---------------------------------------------------------------------------

void rule_nodiscard_status(const FileView& f, std::vector<Finding>& out) {
  if (!starts_with(f.path, "src/") || !ends_with(f.path, ".h")) return;
  // Member/free function declarations returning a status-ish type. The type
  // list covers bool plus the project's completion/result structs — anything
  // whose silent drop loses a failure or a completion time.
  static const std::regex kDecl(
      R"(^\s*(?:virtual\s+)?(?:static\s+)?(?:constexpr\s+)?)"
      R"((?:[A-Za-z_]\w*::)*(bool|SimTime|SimDuration|Status|Programmed|Completion|ReplayResult|ReadResult))"
      R"(\s+([A-Za-z_]\w*)\s*\()");
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    std::smatch m;
    if (!std::regex_search(line, m, kDecl)) continue;
    if (line.find("operator") != std::string::npos ||
        line.find("friend") != std::string::npos ||
        line.find("using") != std::string::npos ||
        line.find("= delete") != std::string::npos) {
      continue;
    }
    std::string context = line;
    if (i >= 1) context = f.code[i - 1] + context;
    if (i >= 2) context = f.code[i - 2] + context;
    if (context.find("[[nodiscard]]") != std::string::npos) continue;
    report(f, out, i, "nodiscard-status",
           "status-returning API '" + m[2].str() + "' (returns " + m[1].str() +
               ") must be [[nodiscard]]");
  }
}

// ---------------------------------------------------------------------------
// Rule: nodiscard-recovery
// ---------------------------------------------------------------------------

void rule_nodiscard_recovery(const FileView& f, std::vector<Finding>& out) {
  if (!starts_with(f.path, "src/") || !ends_with(f.path, ".h")) return;
  // Mount/recovery status APIs must be [[nodiscard]]: a silently dropped
  // mount() / recover*() return value (or a RecoveryReport) is a crash
  // recovery whose outcome nobody checked. Complements nodiscard-status,
  // which keys off the return type — this rule keys off the name, so even a
  // recovery API returning some new type stays guarded.
  static const std::regex kNamed(
      R"(^\s*(?:virtual\s+)?(?:static\s+)?(?:constexpr\s+)?(?:const\s+)?)"
      R"((?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*[&*]?\s+)"
      R"(((?:mount|recover|remount)\w*)\s*\()");
  static const std::regex kReport(
      R"(^\s*(?:virtual\s+)?(?:static\s+)?(?:constexpr\s+)?(?:const\s+)?)"
      R"((?:[A-Za-z_]\w*::)*(RecoveryReport|CrashReplayResult)\s*[&*]?\s+)"
      R"(([A-Za-z_]\w*)\s*\()");
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    if (line.find("operator") != std::string::npos ||
        line.find("friend") != std::string::npos ||
        line.find("using") != std::string::npos ||
        line.find("= delete") != std::string::npos) {
      continue;
    }
    std::string type, name;
    std::smatch m;
    if (std::regex_search(line, m, kNamed) && m[1].str() != "void") {
      type = m[1].str();
      name = m[2].str();
    } else if (std::regex_search(line, m, kReport)) {
      type = m[1].str();
      name = m[2].str();
    } else {
      continue;
    }
    std::string context = line;
    if (i >= 1) context = f.code[i - 1] + context;
    if (i >= 2) context = f.code[i - 2] + context;
    if (context.find("[[nodiscard]]") != std::string::npos) continue;
    report(f, out, i, "nodiscard-recovery",
           "mount/recovery status API '" + name + "' (returns " + type +
               ") must be [[nodiscard]] — recovery outcomes cannot be "
               "silently ignored");
  }
}

// ---------------------------------------------------------------------------
// Rule: check-side-effects
// ---------------------------------------------------------------------------

/// Extracts the balanced-paren argument list starting right after
/// `open_paren` on line `line_idx`, spanning lines if needed.
std::string macro_args(const FileView& f, std::size_t line_idx,
                       std::size_t open_paren) {
  std::string args;
  int depth = 0;
  for (std::size_t i = line_idx; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    for (std::size_t j = i == line_idx ? open_paren : 0; j < line.size(); ++j) {
      const char c = line[j];
      if (c == '(') {
        ++depth;
        if (depth == 1) continue;  // skip the opening paren itself
      } else if (c == ')') {
        --depth;
        if (depth == 0) return args;
      }
      if (depth >= 1) args.push_back(c);
    }
    args.push_back(' ');
  }
  return args;
}

std::string first_top_level_arg(const std::string& args) {
  int depth = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const char c = args[i];
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') --depth;
    if (c == ',' && depth == 0) return args.substr(0, i);
  }
  return args;
}

/// True when `expr` contains a mutation: increment/decrement, a plain or
/// compound assignment, or a well-known mutating container/atomic call.
bool has_side_effect(const std::string& expr, std::string* what) {
  if (expr.find("++") != std::string::npos ||
      expr.find("--") != std::string::npos) {
    *what = "increment/decrement";
    return true;
  }
  static const char* kMutators[] = {".exchange(", ".fetch_", ".pop",
                                    ".push_",     ".insert(", ".emplace",
                                    ".erase(",    ".clear(",  ".reset(",
                                    ".release("};
  for (const char* m : kMutators) {
    if (expr.find(m) != std::string::npos) {
      *what = std::string("mutating call '") + m + "...'";
      return true;
    }
  }
  for (std::size_t i = 0; i < expr.size(); ++i) {
    if (expr[i] != '=') continue;
    const char prev = i > 0 ? expr[i - 1] : '\0';
    const char next = i + 1 < expr.size() ? expr[i + 1] : '\0';
    if (next == '=') {
      ++i;  // ==, skip both
      continue;
    }
    if (prev == '=' || prev == '!' || prev == '<' || prev == '>') continue;
    if (prev == '+' || prev == '-' || prev == '*' || prev == '/' ||
        prev == '%' || prev == '&' || prev == '|' || prev == '^') {
      *what = "compound assignment";
      return true;
    }
    *what = "assignment";
    return true;
  }
  return false;
}

void rule_check_side_effects(const FileView& f, std::vector<Finding>& out) {
  if (f.path == "src/common/check.h") return;  // the macro's own definition
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    const auto first = line.find_first_not_of(" \t");
    if (first != std::string::npos && line.compare(first, 7, "#define") == 0) {
      continue;
    }
    for (const char* macro : {"AF_CHECK_MSG", "AF_CHECK"}) {
      std::size_t pos = 0;
      const std::string name(macro);
      while ((pos = line.find(name, pos)) != std::string::npos) {
        const std::size_t after = pos + name.size();
        // Exact token: AF_CHECK must not match inside AF_CHECK_MSG.
        if (after < line.size() &&
            (std::isalnum(static_cast<unsigned char>(line[after])) ||
             line[after] == '_')) {
          ++pos;
          continue;
        }
        const std::size_t paren = line.find('(', after);
        if (paren == std::string::npos) break;
        const std::string args = macro_args(f, i, paren);
        const std::string cond =
            name == "AF_CHECK_MSG" ? first_top_level_arg(args) : args;
        std::string what;
        if (has_side_effect(cond, &what)) {
          report(f, out, i, "check-side-effects",
                 name + " condition has a side effect (" + what +
                     "); checks must be deletable without changing behaviour");
        }
        pos = after;
      }
      if (line.find(name) != std::string::npos) break;  // MSG already handled
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: no-raw-thread
// ---------------------------------------------------------------------------

void rule_no_raw_thread(const FileView& f, std::vector<Finding>& out) {
  if (starts_with(f.path, "src/common/")) return;
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    std::size_t pos = 0;
    while ((pos = line.find("std::thread", pos)) != std::string::npos) {
      // std::thread::hardware_concurrency() is a read-only capability query.
      if (line.compare(pos + 11, 2, "::") == 0) {
        pos += 11;
        continue;
      }
      report(f, out, i, "no-raw-thread",
             "raw std::thread outside src/common — use af::ThreadPool / "
             "parallel_for");
      pos += 11;
    }
    if (line.find("std::jthread") != std::string::npos ||
        line.find("std::async") != std::string::npos) {
      report(f, out, i, "no-raw-thread",
             "raw thread primitive outside src/common — use af::ThreadPool / "
             "parallel_for");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: no-nondeterminism
// ---------------------------------------------------------------------------

void rule_no_nondeterminism(const FileView& f, std::vector<Finding>& out) {
  if (starts_with(f.path, "src/common/")) return;
  static const char* kPatterns[] = {
      "std::rand",    "srand(",          "std::random_device",
      "system_clock", "steady_clock",    "high_resolution_clock",
      "std::clock",   "time(nullptr)",   "time(NULL)",
      "gettimeofday", "getrandom",
  };
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    for (const char* p : kPatterns) {
      if (f.code[i].find(p) != std::string::npos) {
        report(f, out, i, "no-nondeterminism",
               std::string("nondeterministic source '") + p +
                   "' outside src/common — replays must be bit-identical "
                   "(seed af::Rng / pass timestamps in)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: deadline-clock
// ---------------------------------------------------------------------------

void rule_deadline_clock(const FileView& f, std::vector<Finding>& out) {
  // The deadline subsystem (DESIGN.md §11) budgets reads in simulated
  // nanoseconds: deadline budgets and suspend decisions are all SimTime
  // arithmetic. Any host-clock primitive inside src/ssd or src/sim — even a
  // "harmless" sleep in a debug hook — couples tail-latency decisions to
  // wall time, which breaks the replay-bit-identical contract and makes
  // preemptions fire nondeterministically under sanitizer or CI load.
  // Stricter than no-nondeterminism on purpose: here even std::chrono
  // durations and sleeps are out; timing comes from nand/timing.h constants.
  if (!starts_with(f.path, "src/ssd/") && !starts_with(f.path, "src/sim/")) {
    return;
  }
  static const char* kPatterns[] = {
      "std::chrono",   "sleep_for(", "sleep_until(",
      "clock_gettime", "nanosleep",  "timespec",
  };
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    for (const char* p : kPatterns) {
      if (f.code[i].find(p) != std::string::npos) {
        report(f, out, i, "deadline-clock",
               std::string("host-clock primitive '") + p +
                   "' in the deadline/simulated-time subsystem — deadlines "
                   "are SimTime arithmetic on request arrival times, never "
                   "wall time");
        break;  // one finding per line, whichever pattern hits first
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: integrity-status
// ---------------------------------------------------------------------------

void rule_integrity_status(const FileView& f, std::vector<Finding>& out) {
  // Engine::flash_read returns a ReadResult whose status can say "this data
  // is gone" (uncorrectable, no parity stripe). A call in statement position
  // throws that verdict away — [[nodiscard]] catches the bare call, but not
  // one hidden behind a comma operator or cast-free discard idioms; this
  // rule closes the class at the source level.
  if (!starts_with(f.path, "src/")) return;
  static constexpr std::string_view kCall = "flash_read(";
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    std::size_t pos = 0;
    while ((pos = line.find(kCall, pos)) != std::string::npos) {
      // Token boundary: map_flash_read / mount-scan helpers with the name as
      // a suffix return plain SimTime and are not this rule's business.
      if (pos > 0 && (std::isalnum(static_cast<unsigned char>(line[pos - 1])) ||
                      line[pos - 1] == '_')) {
        pos += kCall.size();
        continue;
      }
      // Walk back over the object chain (receiver, ., ->, ::) to find what
      // syntactically precedes the call expression.
      std::size_t chain = pos;
      while (chain > 0) {
        const char c = line[chain - 1];
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == '.' || c == ':' || c == '>' || c == '-') {
          --chain;
        } else {
          break;
        }
      }
      std::string prefix = line.substr(0, chain);
      const auto last = prefix.find_last_not_of(" \t");
      prefix = last == std::string::npos ? "" : prefix.substr(0, last + 1);
      // A call that starts its line may be the continuation of a wrapped
      // expression (argument list, assignment RHS) — the decisive character
      // then lives on an earlier line. Comment-only lines are already
      // blanked in f.code, so they skip naturally.
      for (std::size_t li = i; prefix.empty() && li > 0;) {
        const std::string& prev = f.code[--li];
        const auto plast = prev.find_last_not_of(" \t");
        if (plast != std::string::npos) prefix = prev.substr(0, plast + 1);
      }
      // Statement position: nothing before the call, or the previous
      // statement just ended. Anything else — assignment, return, argument,
      // declaration, explicit (void) — consumes or visibly discards it.
      if (prefix.empty() || prefix.back() == ';' || prefix.back() == '{' ||
          prefix.back() == '}') {
        report(f, out, i, "integrity-status",
               "flash_read result discarded — its ReadResult carries the "
               "data-integrity verdict (uncorrectable/lost); consume .done "
               "and .status, or discard explicitly with (void)");
      }
      pos += kCall.size();
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: nodiscard-space-status
// ---------------------------------------------------------------------------

void rule_nodiscard_space_status(const FileView& f, std::vector<Finding>& out) {
  // The capacity subsystem's admission/unmap APIs return state the caller
  // must act on: admit_write's Status decides whether a write may proceed at
  // all, trim's completion time feeds the timeline, and note_trim's seq
  // orders the tombstone against OOB claims. A call in statement position
  // silently drops that — same closure as integrity-status, keyed on the
  // space APIs.
  if (!starts_with(f.path, "src/")) return;
  static constexpr std::string_view kCalls[] = {
      "admit_write(", "note_trim(", "trim("};
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    for (const std::string_view call : kCalls) {
      std::size_t pos = 0;
      while ((pos = line.find(call, pos)) != std::string::npos) {
        // Token boundary: on_trim / prune_trim_log-style names carrying the
        // API name as a suffix are different functions.
        if (pos > 0 &&
            (std::isalnum(static_cast<unsigned char>(line[pos - 1])) ||
             line[pos - 1] == '_')) {
          pos += call.size();
          continue;
        }
        // Walk back over the object chain (receiver, ., ->, ::) to find
        // what syntactically precedes the call expression. A `()` in the
        // chain — `engine.array().note_trim(...)` — is hopped over whole.
        std::size_t chain = pos;
        while (chain > 0) {
          const char c = line[chain - 1];
          if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
              c == '.' || c == ':' || c == '>' || c == '-') {
            --chain;
          } else if (c == ')') {
            int depth = 0;
            std::size_t j = chain;
            while (j > 0) {
              if (line[j - 1] == ')') ++depth;
              if (line[j - 1] == '(' && --depth == 0) break;
              --j;
            }
            // Hop only over *call* parens (preceded by an identifier, as in
            // `array()`): a cast like `(void)` must stay in the prefix, where
            // it reads as an explicit discard.
            if (j <= 1 ||
                !(std::isalnum(static_cast<unsigned char>(line[j - 2])) ||
                  line[j - 2] == '_')) {
              break;
            }
            chain = j - 1;
          } else {
            break;
          }
        }
        std::string prefix = line.substr(0, chain);
        const auto last = prefix.find_last_not_of(" \t");
        prefix = last == std::string::npos ? "" : prefix.substr(0, last + 1);
        for (std::size_t li = i; prefix.empty() && li > 0;) {
          const std::string& prev = f.code[--li];
          const auto plast = prev.find_last_not_of(" \t");
          if (plast != std::string::npos) prefix = prev.substr(0, plast + 1);
        }
        // Statement position: nothing before the call, or the previous
        // statement just ended. Anything else — assignment, return,
        // argument, declaration, explicit (void) — consumes or visibly
        // discards it. A declaration (`virtual SimTime trim(`) never sits
        // in statement position, so headers pass untouched.
        if (prefix.empty() || prefix.back() == ';' || prefix.back() == '{' ||
            prefix.back() == '}') {
          const std::string name(call.substr(0, call.size() - 1));
          report(f, out, i, "nodiscard-space-status",
                 "space-status API '" + name +
                     "' result discarded — consume the Status/completion "
                     "(admission verdict, trim completion, tombstone seq), "
                     "or discard explicitly with (void)");
        }
        pos += call.size();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: bench-run-schemes
// ---------------------------------------------------------------------------

void rule_bench_run_schemes(const FileView& f, std::vector<Finding>& out) {
  if (!starts_with(f.path, "bench/")) return;
  if (f.path == "bench/common.cpp" || f.path == "bench/common.h") return;
  static const std::regex kSchemeLoop(R"(for\s*\(.*SchemeKind)");
  bool multi_scheme = false;
  for (const std::string& line : f.code) {
    if (line.find("all_schemes()") != std::string::npos ||
        std::regex_search(line, kSchemeLoop)) {
      multi_scheme = true;
      break;
    }
  }
  if (!multi_scheme) return;
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    if (f.code[i].find("trace::replay(") != std::string::npos) {
      report(f, out, i, "bench-run-schemes",
             "multi-scheme bench calls trace::replay directly — route the "
             "loop through bench::run_schemes / replay_grid");
    }
  }
}

// ---------------------------------------------------------------------------
// Semantic rules (model-based)
// ---------------------------------------------------------------------------

std::size_t next_code_tok(const std::vector<Token>& toks, std::size_t i,
                          std::size_t end) {
  for (++i; i < end; ++i) {
    if (is_code(toks[i])) return i;
  }
  return end;
}

bool tok_is(const Token& t, const char* s) {
  return t.kind == Tok::kPunct && t.text == s;
}

bool is_unordered_container(const std::string& name) {
  return name == "unordered_map" || name == "unordered_set" ||
         name == "unordered_multimap" || name == "unordered_multiset";
}

bool type_head_is_unordered(const std::string& type_head) {
  const std::size_t cut = type_head.rfind("::");
  const std::string last =
      cut == std::string::npos ? type_head : type_head.substr(cut + 2);
  return is_unordered_container(last);
}

/// Identifiers that mean "this value reaches an ordered artifact": the
/// serializer's byte sinks, table/CSV/JSON emitters, oracle updates,
/// checkpoint writers, stdio. Exact names for the short sink APIs,
/// substrings for the descriptive ones.
bool is_sink_ident(const std::string& id, std::string* which) {
  static const std::set<std::string> kExact = {
      "u8",   "u16",  "u32",  "u64",      "add_row", "printf",
      "fprintf", "cout", "cerr", "emit",  "encode",  "snapshot"};
  if (kExact.count(id) != 0) {
    *which = id;
    return true;
  }
  std::string low;
  low.reserve(id.size());
  for (char c : id) low.push_back(static_cast<char>(
      std::tolower(static_cast<unsigned char>(c))));
  for (const char* sub :
       {"sink", "oracle", "json", "serial", "checkpoint", "golden", "csv"}) {
    if (low.find(sub) != std::string::npos) {
      *which = id;
      return true;
    }
  }
  return false;
}

/// Resolves a `recv(.member)*` chain starting from the enclosing class to
/// the final member's type head ("" when any hop fails to resolve).
std::string chain_type_head(const Model& model, const std::string& cls,
                            const std::vector<std::string>& chain) {
  if (chain.empty()) return "";
  const MemberVar* m = model.resolve_member(cls, chain[0]);
  if (m == nullptr) return "";
  for (std::size_t k = 1; k < chain.size(); ++k) {
    const ClassInfo* c = model.resolve_class(m->type_head);
    if (c == nullptr) return "";
    m = model.resolve_member(c->name, chain[k]);
    if (m == nullptr) return "";
  }
  return m->type_head;
}

/// nondet-iteration-order: range-for over an unordered container (member or
/// in-body local) whose loop body reaches a serialization/ordering sink.
/// The clean pattern — collect keys, std::sort, then emit — never fires,
/// because the loop body itself only fills a vector.
void rule_nondet_iteration(const Model& model, const FunctionInfo& fn,
                           const std::vector<Token>& toks,
                           std::vector<Finding>& out) {
  // Locals of unordered type declared anywhere in this body:
  // `std::unordered_map<K, V> name;` — template arguments skipped by
  // angle-depth ('>>' closes two).
  std::map<std::string, std::string> unordered_locals;
  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    const Token& t = toks[i];
    if (!is_code(t) || t.kind != Tok::kIdent ||
        !is_unordered_container(t.text)) {
      continue;
    }
    const std::string head = "std::" + t.text;
    std::size_t j = next_code_tok(toks, i, fn.body_end);
    if (j < fn.body_end && tok_is(toks[j], "<")) {
      int angle = 1;
      while (angle > 0 && (j = next_code_tok(toks, j, fn.body_end)) <
                              fn.body_end) {
        if (tok_is(toks[j], "<")) ++angle;
        if (tok_is(toks[j], ">")) --angle;
        if (tok_is(toks[j], ">>")) angle -= 2;
      }
      j = next_code_tok(toks, j, fn.body_end);
    }
    while (j < fn.body_end &&
           (tok_is(toks[j], "&") || tok_is(toks[j], "*") ||
            (toks[j].kind == Tok::kIdent && toks[j].text == "const"))) {
      j = next_code_tok(toks, j, fn.body_end);
    }
    if (j < fn.body_end && toks[j].kind == Tok::kIdent) {
      unordered_locals[toks[j].text] = head;
    }
  }

  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    const Token& t = toks[i];
    if (!is_code(t) || t.kind != Tok::kIdent || t.text != "for") continue;
    std::size_t j = next_code_tok(toks, i, fn.body_end);
    if (j >= fn.body_end || !tok_is(toks[j], "(")) continue;
    // Find the top-level ':' and the closing ')' of the for-head. The lexer
    // makes '::' one token, so a bare ':' is unambiguous.
    int depth = 1;
    std::size_t colon = 0;
    std::size_t close = fn.body_end;
    std::size_t k = j;
    while (depth > 0 &&
           (k = next_code_tok(toks, k, fn.body_end)) < fn.body_end) {
      if (tok_is(toks[k], "(")) ++depth;
      if (tok_is(toks[k], ")")) {
        --depth;
        if (depth == 0) close = k;
      }
      if (depth == 1 && colon == 0 && tok_is(toks[k], ":")) colon = k;
    }
    if (colon == 0 || close >= fn.body_end) continue;
    // Range expression: a plain `recv(.member)*` chain, or a single name.
    std::vector<std::string> chain;
    bool resolvable = true;
    for (std::size_t r = next_code_tok(toks, colon, fn.body_end); r < close;
         r = next_code_tok(toks, r, fn.body_end)) {
      const Token& rt = toks[r];
      if (rt.kind == Tok::kIdent) {
        chain.push_back(rt.text);
      } else if (!tok_is(rt, ".") && !tok_is(rt, "->")) {
        resolvable = false;  // calls, indexing, casts: out of scope
        break;
      }
    }
    if (!resolvable || chain.empty()) continue;
    std::string head;
    std::string container = chain.back();
    if (chain.size() == 1 && unordered_locals.count(chain[0]) != 0) {
      head = unordered_locals[chain[0]];
    } else {
      head = chain_type_head(model, fn.cls, chain);
    }
    if (!type_head_is_unordered(head)) continue;
    // Loop body extent: braced block or single statement.
    std::size_t b = next_code_tok(toks, close, fn.body_end);
    std::size_t body_close = b;
    if (b < fn.body_end && tok_is(toks[b], "{")) {
      int bd = 1;
      while (bd > 0 &&
             (body_close = next_code_tok(toks, body_close, fn.body_end)) <
                 fn.body_end) {
        if (tok_is(toks[body_close], "{")) ++bd;
        if (tok_is(toks[body_close], "}")) --bd;
      }
    } else {
      while (body_close < fn.body_end && !tok_is(toks[body_close], ";")) {
        body_close = next_code_tok(toks, body_close, fn.body_end);
      }
    }
    std::string sink;
    for (std::size_t s = b; s < body_close && s < fn.body_end;
         s = next_code_tok(toks, s, fn.body_end)) {
      if (toks[s].kind == Tok::kIdent && is_sink_ident(toks[s].text, &sink)) {
        break;
      }
    }
    if (sink.empty()) continue;
    out.push_back(Finding{
        fn.file, t.line, "nondet-iteration-order",
        "iteration over unordered container '" + container +
            "' (" + head + ") reaches ordering-sensitive sink '" + sink +
            "' — hash iteration order is implementation-defined, so the "
            "emitted bytes are not replay-stable; collect the keys, "
            "std::sort, then emit (or justify with an af_lint allow)"});
  }
}

/// status-assigned-unchecked: a Status / ReadStatus value stored into a
/// local and never used again before its scope closes. Plain reassignment
/// is not a use; comparison, return, argument passing, member access and
/// (void)-cast all are.
void rule_status_unchecked(const FunctionInfo& fn,
                           const std::vector<Token>& toks,
                           std::vector<Finding>& out) {
  int depth = 0;
  std::vector<std::size_t> code_idx;  // code-token indices in body order
  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    if (is_code(toks[i])) code_idx.push_back(i);
  }
  for (std::size_t c = 0; c < code_idx.size(); ++c) {
    const Token& t = toks[code_idx[c]];
    if (tok_is(t, "{")) ++depth;
    if (tok_is(t, "}")) --depth;
    if (t.kind != Tok::kIdent ||
        (t.text != "Status" && t.text != "ReadStatus")) {
      continue;
    }
    if (c > 0) {
      const Token& prev = toks[code_idx[c - 1]];
      // `enum class Status`, `using Status = ...`, member access.
      if (prev.kind == Tok::kIdent &&
          (prev.text == "class" || prev.text == "struct" ||
           prev.text == "enum" || prev.text == "using" ||
           prev.text == "typename")) {
        continue;
      }
      if (tok_is(prev, ".") || tok_is(prev, "->")) continue;
    }
    if (c + 2 >= code_idx.size()) continue;
    const Token& name_tok = toks[code_idx[c + 1]];
    const Token& init_tok = toks[code_idx[c + 2]];
    if (name_tok.kind != Tok::kIdent) continue;
    if (!tok_is(init_tok, "=") && !tok_is(init_tok, "{")) continue;
    const int decl_depth = depth;
    // Scan to the end of the enclosing scope for a use.
    bool used = false;
    int d = decl_depth;
    for (std::size_t u = c + 2; u < code_idx.size(); ++u) {
      const Token& ut = toks[code_idx[u]];
      if (tok_is(ut, "{")) ++d;
      if (tok_is(ut, "}")) {
        --d;
        if (d < decl_depth) break;
      }
      if (ut.kind != Tok::kIdent || ut.text != name_tok.text) continue;
      const Token& pv = toks[code_idx[u - 1]];
      if (tok_is(pv, ".") || tok_is(pv, "->")) continue;  // other object
      if (u + 1 < code_idx.size() && tok_is(toks[code_idx[u + 1]], "=")) {
        continue;  // plain reassignment launders, it does not check
      }
      used = true;
      break;
    }
    if (used) continue;
    out.push_back(Finding{
        fn.file, name_tok.line, "status-assigned-unchecked",
        "Status value '" + name_tok.text +
            "' is assigned but never checked — the local assignment "
            "launders [[nodiscard]] away while kNoSpace/kReadOnly goes "
            "unhandled; compare it, return it, pass it on, or discard "
            "explicitly with (void)"});
  }
}

/// Runs the two semantic rules over a prebuilt model.
std::vector<Finding> semantic_findings(const Model& model) {
  std::vector<Finding> sem;
  for (const FunctionInfo& fn : model.functions()) {
    const std::vector<Token>* toks = model.tokens(fn.file);
    if (toks == nullptr) continue;
    if (starts_with(fn.file, "src/") || starts_with(fn.file, "bench/")) {
      rule_nondet_iteration(model, fn, *toks, sem);
    }
    if (starts_with(fn.file, "src/")) {
      rule_status_unchecked(fn, *toks, sem);
    }
  }
  return sem;
}

FileView make_view(const std::string& path, const Lexed& lx) {
  FileView f;
  f.path = path;
  f.raw = lx.raw_lines;
  f.code = lx.code_lines;
  collect_suppressions(f, lx.tokens);
  return f;
}

void run_line_rules(const FileView& f, std::vector<Finding>& out) {
  rule_pragma_once(f, out);
  rule_nodiscard_status(f, out);
  rule_nodiscard_recovery(f, out);
  rule_check_side_effects(f, out);
  rule_no_raw_thread(f, out);
  rule_no_nondeterminism(f, out);
  rule_deadline_clock(f, out);
  rule_integrity_status(f, out);
  rule_nodiscard_space_status(f, out);
  rule_bench_run_schemes(f, out);
}

void append_filtered(const FileView& f, std::vector<Finding>&& sem,
                     std::vector<Finding>& out) {
  for (auto& s : sem) {
    const std::size_t idx =
        s.line > 0 ? static_cast<std::size_t>(s.line - 1) : 0;
    if (!allowed(f, s.rule, idx)) out.push_back(std::move(s));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

std::vector<Finding> lint_content(const std::string& display_path,
                                  const std::string& content) {
  const Lexed lx = lex(content);
  const FileView f = make_view(display_path, lx);
  std::vector<Finding> out;
  run_line_rules(f, out);
  if (starts_with(display_path, "src/") ||
      starts_with(display_path, "bench/")) {
    const Model model =
        Model::build({SourceFile{display_path, content}});
    append_filtered(f, semantic_findings(model), out);
  }
  return out;
}

std::vector<Finding> lint_tree(const std::string& root) {
  std::vector<Finding> out;
  std::map<std::string, FileView> views;
  std::vector<SourceFile> model_files;
  for (const char* dir : {"src", "bench", "tests", "examples", "tools"}) {
    const fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cpp") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::stringstream ss;
      ss << in.rdbuf();
      const std::string display =
          fs::relative(entry.path(), root).generic_string();
      std::string content = ss.str();
      const Lexed lx = lex(content);
      FileView view = make_view(display, lx);
      run_line_rules(view, out);
      if (starts_with(display, "src/") || starts_with(display, "bench/")) {
        model_files.push_back(SourceFile{display, std::move(content)});
      }
      views.emplace(display, std::move(view));
    }
  }
  // Semantic rules run once over the shared src/+bench/ model, so member
  // types resolve across files; suppressions are honoured per file.
  const Model model = Model::build(model_files);
  for (auto& s : semantic_findings(model)) {
    const auto it = views.find(s.file);
    const std::size_t idx =
        s.line > 0 ? static_cast<std::size_t>(s.line - 1) : 0;
    if (it != views.end() && allowed(it->second, s.rule, idx)) continue;
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

std::string format(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

// ---------------------------------------------------------------------------
// CI-grade output: SARIF 2.1.0 + diff restriction
// ---------------------------------------------------------------------------

const std::vector<RuleMeta>& rule_catalogue() {
  static const std::vector<RuleMeta> kRules = {
      {"pragma-once", "every header uses #pragma once"},
      {"nodiscard-status",
       "status/result-returning APIs in src headers must be [[nodiscard]]"},
      {"nodiscard-recovery",
       "mount/recovery APIs must be [[nodiscard]] — recovery outcomes cannot "
       "be silently ignored"},
      {"check-side-effects",
       "AF_CHECK / AF_CHECK_MSG conditions must be side-effect free"},
      {"no-raw-thread",
       "raw thread primitives only inside src/common (ThreadPool owns all "
       "threads)"},
      {"no-nondeterminism",
       "nondeterministic sources only inside src/common (replays must be "
       "bit-identical)"},
      {"integrity-status",
       "flash_read results carry the data-integrity verdict and must not be "
       "discarded"},
      {"nodiscard-space-status",
       "capacity API results (admission, trim completion, tombstone seq) "
       "must not be discarded"},
      {"bench-run-schemes",
       "multi-scheme benches go through bench::run_schemes, not hand-rolled "
       "replay loops"},
      {"nondet-iteration-order",
       "unordered-container iteration must not feed serialization/ordering "
       "sinks — collect and sort first"},
      {"status-assigned-unchecked",
       "Status locals must be checked, propagated, or explicitly discarded"},
      {"deadline-clock",
       "deadline/simulated-time code in src/ssd + src/sim must not touch "
       "host clocks or sleeps — deadlines are SimTime arithmetic"},
  };
  return kRules;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

std::string to_sarif(const std::vector<Finding>& findings) {
  const auto& rules = rule_catalogue();
  std::map<std::string, std::size_t> rule_index;
  for (std::size_t i = 0; i < rules.size(); ++i) rule_index[rules[i].id] = i;

  std::ostringstream os;
  os << "{\n"
     << "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
        "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n"
     << "    {\n"
     << "      \"tool\": {\n"
     << "        \"driver\": {\n"
     << "          \"name\": \"af_lint\",\n"
     << "          \"semanticVersion\": \"2.0.0\",\n"
     << "          \"rules\": [\n";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    os << "            {\n"
       << "              \"id\": \"" << json_escape(rules[i].id) << "\",\n"
       << "              \"shortDescription\": { \"text\": \""
       << json_escape(rules[i].summary) << "\" },\n"
       << "              \"defaultConfiguration\": { \"level\": \"error\" }\n"
       << "            }" << (i + 1 < rules.size() ? "," : "") << "\n";
  }
  os << "          ]\n"
     << "        }\n"
     << "      },\n"
     << "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << "        {\n"
       << "          \"ruleId\": \"" << json_escape(f.rule) << "\",\n";
    if (const auto it = rule_index.find(f.rule); it != rule_index.end()) {
      os << "          \"ruleIndex\": " << it->second << ",\n";
    }
    os << "          \"level\": \"error\",\n"
       << "          \"message\": { \"text\": \"" << json_escape(f.message)
       << "\" },\n"
       << "          \"locations\": [\n"
       << "            {\n"
       << "              \"physicalLocation\": {\n"
       << "                \"artifactLocation\": { \"uri\": \""
       << json_escape(f.file) << "\", \"uriBaseId\": \"SRCROOT\" },\n"
       << "                \"region\": { \"startLine\": "
       << (f.line > 0 ? f.line : 1) << " }\n"
       << "              }\n"
       << "            }\n"
       << "          ]\n"
       << "        }" << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  os << "      ]\n"
     << "    }\n"
     << "  ]\n"
     << "}\n";
  return os.str();
}

bool ChangedLines::covers(const std::string& file, int line) const {
  const auto it = ranges.find(file);
  if (it == ranges.end()) return false;
  for (const auto& [first, last] : it->second) {
    if (line >= first && line <= last) return true;
  }
  return false;
}

ChangedLines parse_unified_diff(const std::string& diff_text) {
  ChangedLines out;
  std::istringstream in(diff_text);
  std::string line;
  std::string current;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.rfind("+++ ", 0) == 0) {
      std::string path = line.substr(4);
      // Strip git's tab-separated metadata and the b/ prefix.
      if (const auto tab = path.find('\t'); tab != std::string::npos) {
        path = path.substr(0, tab);
      }
      if (path == "/dev/null") {
        current.clear();
      } else if (path.rfind("b/", 0) == 0) {
        current = path.substr(2);
      } else {
        current = path;
      }
      continue;
    }
    if (current.empty() || line.rfind("@@", 0) != 0) continue;
    // "@@ -a,b +c,d @@" — the added range is c..c+d-1 (d defaults to 1;
    // d == 0 is a pure deletion and contributes nothing).
    const std::size_t plus = line.find('+');
    if (plus == std::string::npos) continue;
    int start = 0;
    int count = 1;
    std::size_t i = plus + 1;
    while (i < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[i]))) {
      start = start * 10 + (line[i] - '0');
      ++i;
    }
    if (i < line.size() && line[i] == ',') {
      ++i;
      count = 0;
      while (i < line.size() &&
             std::isdigit(static_cast<unsigned char>(line[i]))) {
        count = count * 10 + (line[i] - '0');
        ++i;
      }
    }
    if (count > 0) {
      out.ranges[current].push_back({start, start + count - 1});
    }
  }
  for (auto& [path, ranges] : out.ranges) {
    std::sort(ranges.begin(), ranges.end());
  }
  return out;
}

std::vector<Finding> restrict_to_changed(std::vector<Finding> findings,
                                         const ChangedLines& changed) {
  std::vector<Finding> out;
  for (auto& f : findings) {
    if (changed.covers(f.file, f.line)) out.push_back(std::move(f));
  }
  return out;
}

}  // namespace af::lint
