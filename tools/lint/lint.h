// af_lint — project-specific static checks the compiler can't express.
//
// v2 is built on a real C++ token stream (lexer.h) and a small cross-file
// semantic model (model.h): comments, raw strings and preprocessor
// directives are lexed properly, suppressions are collected from comment
// tokens only, and two semantic rules (nondet-iteration-order,
// status-assigned-unchecked) walk the model. The declaration-shaped rules
// below still pattern-match line-wise — against the lexer's blanked code
// view, so a rule token inside a raw string can no longer fire and a
// multi-line literal can no longer leak into "code". The 12 rules:
//
//   pragma-once        every header uses #pragma once
//   nodiscard-status   status/bool-returning FTL/flash APIs in src headers
//                      are [[nodiscard]] (a dropped program() status or
//                      completion time is a silent correctness bug)
//   nodiscard-recovery mount/recovery APIs in src headers are [[nodiscard]]
//   check-side-effects AF_CHECK/AF_CHECK_MSG conditions must be pure —
//                      checks are always-on, but a reader must be able to
//                      delete one without changing behaviour
//   no-raw-thread      std::thread/std::jthread/std::async only inside
//                      src/common (the ThreadPool owns all threads)
//   no-nondeterminism  std::rand/random_device/wall clocks only inside
//                      src/common (the simulator must replay bit-identically)
//   integrity-status   statement-position flash_read calls in src/ discard
//                      the data-integrity verdict
//   bench-run-schemes  bench binaries replaying several schemes go through
//                      bench::run_schemes, never a hand-rolled
//                      trace::replay loop (keeps fan-out + determinism
//                      checks in one place)
//   nodiscard-space-status
//                      statement-position calls of the capacity subsystem's
//                      admission/unmap APIs (admit_write, trim, note_trim)
//                      in src/ discard the admission verdict / completion /
//                      tombstone seq — the caller must consume it or
//                      (void)-discard explicitly
//   nondet-iteration-order
//                      range-for over an unordered_map/unordered_set member
//                      whose loop body reaches a serialization / table /
//                      oracle sink — iteration order is hash-seed dependent,
//                      so anything it feeds into a byte stream breaks the
//                      replay-bit-identical contract; collect-then-sort
//                      first, or justify with an allow comment
//   status-assigned-unchecked
//                      a Status / ReadStatus value stored into a local and
//                      then never compared, returned, passed on or
//                      (void)-discarded — the assignment launders the
//                      [[nodiscard]] away, and an unchecked kNoSpace /
//                      kReadOnly is a silently ignored admission verdict
//   deadline-clock     host-clock primitives (std::chrono, sleep_for/until,
//                      clock_gettime, nanosleep, timespec) inside src/ssd +
//                      src/sim — deadline budgets and suspend decisions are
//                      SimTime arithmetic; wall time there breaks
//                      bit-identical replay (stricter than
//                      no-nondeterminism: even chrono durations and sleeps
//                      are out)
//
// Suppressions (each needs a justification in the same comment; markers are
// recognized in comments only — never inside string literals):
//   // af_lint: allow(rule)        this line or the next line
//   // af_lint: allow-file(rule)   whole file
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace af::lint {

struct Finding {
  std::string file;
  int line = 0;  // 1-based
  std::string rule;
  std::string message;
};

/// Lints one file's `content` as if it lived at `display_path` (a
/// repo-relative path like "src/nand/flash_array.h" — several rules key off
/// the directory). Exposed separately from lint_tree so tests can feed
/// synthetic snippets under any pseudo-path. Semantic rules run against a
/// single-file model here (cross-file resolution needs lint_tree).
[[nodiscard]] std::vector<Finding> lint_content(const std::string& display_path,
                                                const std::string& content);

/// Lints every *.h / *.cpp under root/{src,bench,tests,examples,tools}.
/// Line rules run per file; the semantic rules run once against a shared
/// model of src/ + bench/, so member types resolve across files.
[[nodiscard]] std::vector<Finding> lint_tree(const std::string& root);

/// "file:line: [rule] message" — the clickable compiler-style form.
[[nodiscard]] std::string format(const Finding& f);

// ---------------------------------------------------------------------------
// CI-grade output
// ---------------------------------------------------------------------------

struct RuleMeta {
  std::string id;
  std::string summary;
};

/// Every rule af_lint can emit, in stable order — the SARIF rule table.
[[nodiscard]] const std::vector<RuleMeta>& rule_catalogue();

/// Serializes findings as a SARIF 2.1.0 log (one run, tool "af_lint", all
/// rules in the driver's rule table, results at level "error"). Paths are
/// emitted repo-relative with uriBaseId SRCROOT.
[[nodiscard]] std::string to_sarif(const std::vector<Finding>& findings);

/// The added/modified line set of a unified diff, per repo-relative path.
struct ChangedLines {
  /// path -> sorted [first, last] 1-based inclusive line ranges.
  std::map<std::string, std::vector<std::pair<int, int>>> ranges;

  [[nodiscard]] bool covers(const std::string& file, int line) const;
  [[nodiscard]] bool empty() const { return ranges.empty(); }
};

/// Parses `git diff --unified=0` output: "+++ b/<path>" headers and
/// "@@ -a,b +c,d @@" hunks; deleted-only hunks (d == 0) contribute nothing.
[[nodiscard]] ChangedLines parse_unified_diff(const std::string& diff_text);

/// Keeps only findings on changed lines — the PR-diff lint mode. Full-tree
/// runs on the main branch still see everything, so cross-file effects a
/// diff can't attribute to a changed line are caught there.
[[nodiscard]] std::vector<Finding> restrict_to_changed(
    std::vector<Finding> findings, const ChangedLines& changed);

}  // namespace af::lint
