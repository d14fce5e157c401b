// Fixture-driven tests for af_lint. Each fixture under tests/tools/fixtures
// is a source snippet stored as .txt (so the tree-wide af_lint_tree test and
// the build never see it as real C++); the tests lint it under a pseudo-path,
// because several rules key off the directory the file claims to live in.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"

namespace af::lint {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(AF_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<Finding> lint_fixture(const std::string& name,
                                  const std::string& pseudo_path) {
  return lint_content(pseudo_path, read_fixture(name));
}

int count_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

TEST(AfLint, BadHeaderMissingPragmaOnceAndNodiscard) {
  const auto findings = lint_fixture("bad_header.txt", "src/nand/bad_header.h");
  EXPECT_EQ(count_rule(findings, "pragma-once"), 1);
  // bool program(...) and SimTime schedule_read(...); void configure is not
  // a status API.
  EXPECT_EQ(count_rule(findings, "nodiscard-status"), 2);
  EXPECT_EQ(findings.size(), 3u);
}

TEST(AfLint, GoodHeaderIsClean) {
  const auto findings =
      lint_fixture("good_header.txt", "src/nand/good_header.h");
  for (const auto& f : findings) ADD_FAILURE() << format(f);
}

TEST(AfLint, NodiscardRuleOnlyCoversSrcHeaders) {
  // The same bad header under tests/ or as a .cpp is out of the rule's
  // jurisdiction (pragma-once still applies to any header).
  const auto in_tests =
      lint_fixture("bad_header.txt", "tests/nand/bad_header.h");
  EXPECT_EQ(count_rule(in_tests, "nodiscard-status"), 0);
  EXPECT_EQ(count_rule(in_tests, "pragma-once"), 1);
  const auto as_cpp = lint_fixture("bad_header.txt", "src/nand/bad_header.cpp");
  EXPECT_TRUE(as_cpp.empty());
}

TEST(AfLint, RecoveryApisMustBeNodiscard) {
  const auto findings =
      lint_fixture("bad_recovery.txt", "src/ssd/bad_recovery.h");
  // mount(), recover_block(), mount_root() by name; inspect_last() by its
  // RecoveryReport return. The void hooks and the annotated APIs stay clean.
  EXPECT_EQ(count_rule(findings, "nodiscard-recovery"), 4);
  // recover_block() returns bool, so the type-keyed rule fires there too.
  EXPECT_EQ(count_rule(findings, "nodiscard-status"), 1);
}

TEST(AfLint, RecoveryRuleOnlyCoversSrcHeaders) {
  const auto in_tests =
      lint_fixture("bad_recovery.txt", "tests/ssd/bad_recovery.h");
  EXPECT_EQ(count_rule(in_tests, "nodiscard-recovery"), 0);
  const auto as_cpp =
      lint_fixture("bad_recovery.txt", "src/ssd/bad_recovery.cpp");
  EXPECT_EQ(count_rule(as_cpp, "nodiscard-recovery"), 0);
}

TEST(AfLint, CheckSideEffects) {
  const auto findings = lint_fixture("bad_check.txt", "src/ftl/bad_check.cpp");
  // count++, flag.exchange(true), and the wrapped (count += 2) condition.
  // The pure comparisons — including the one whose *message* mentions
  // "= 10, or x++" inside a string literal — stay clean.
  EXPECT_EQ(count_rule(findings, "check-side-effects"), 3);
  EXPECT_EQ(findings.size(), 3u);
}

TEST(AfLint, RawThreadsOutsideCommon) {
  const auto findings =
      lint_fixture("bad_thread.txt", "bench/bad_thread.cpp");
  // std::thread and std::jthread construction and std::async;
  // hardware_concurrency() is a read-only query and stays legal.
  EXPECT_EQ(count_rule(findings, "no-raw-thread"), 3);
  EXPECT_EQ(findings.size(), 3u);
}

TEST(AfLint, RawThreadsAllowedInsideCommon) {
  const auto findings =
      lint_fixture("bad_thread.txt", "src/common/thread_pool_impl.cpp");
  EXPECT_TRUE(findings.empty());
}

TEST(AfLint, NondeterminismOutsideCommon) {
  const auto findings =
      lint_fixture("bad_nondet.txt", "tests/sim/bad_nondet.cpp");
  EXPECT_EQ(count_rule(findings, "no-nondeterminism"), 2);
}

TEST(AfLint, NondeterminismAllowedInsideCommon) {
  const auto findings =
      lint_fixture("bad_nondet.txt", "src/common/clock.cpp");
  EXPECT_TRUE(findings.empty());
}

TEST(AfLint, IntegrityStatusDiscardsAreFlagged) {
  const auto findings =
      lint_fixture("bad_integrity.txt", "src/ftl/bad_integrity.cpp");
  // The two statement-position calls; assignments, return, (void), the
  // map_flash_read suffix-lookalikes, the declaration line and the
  // allow()-suppressed probe all stay clean.
  EXPECT_EQ(count_rule(findings, "integrity-status"), 2);
  EXPECT_EQ(findings.size(), 2u);
}

TEST(AfLint, IntegrityStatusRuleOnlyCoversSrc) {
  const auto findings =
      lint_fixture("bad_integrity.txt", "tests/ftl/bad_integrity.cpp");
  EXPECT_EQ(count_rule(findings, "integrity-status"), 0);
}

TEST(AfLint, SpaceStatusDiscardsAreFlagged) {
  const auto findings =
      lint_fixture("bad_space.txt", "src/sim/bad_space.cpp");
  // The three statement-position calls (admit_write, trim, note_trim);
  // assignments, conditions, compound-assignment, (void), and the on_trim /
  // prune_trim_log suffix lookalikes stay clean.
  EXPECT_EQ(count_rule(findings, "nodiscard-space-status"), 3);
  EXPECT_EQ(findings.size(), 3u);
}

TEST(AfLint, SpaceStatusRuleOnlyCoversSrc) {
  const auto findings =
      lint_fixture("bad_space.txt", "tests/sim/bad_space.cpp");
  EXPECT_EQ(count_rule(findings, "nodiscard-space-status"), 0);
}

TEST(AfLint, MultiSchemeBenchMustUseRunSchemes) {
  const auto findings = lint_fixture("bad_bench.txt", "bench/bad_bench.cpp");
  EXPECT_EQ(count_rule(findings, "bench-run-schemes"), 1);
}

TEST(AfLint, BenchRuleOnlyAppliesToBenchDir) {
  const auto findings =
      lint_fixture("bad_bench.txt", "tests/integration/bad_bench.cpp");
  EXPECT_EQ(count_rule(findings, "bench-run-schemes"), 0);
}

TEST(AfLint, SuppressionsSilenceJustifiedFindings) {
  // allow-file(no-nondeterminism) covers both clock readings; the wrapped
  // allow(bench-run-schemes) comment block must carry down to the
  // trace::replay call below it.
  const auto findings =
      lint_fixture("suppressed.txt", "bench/suppressed.cpp");
  for (const auto& f : findings) ADD_FAILURE() << format(f);
}

TEST(AfLint, SuppressionIsRuleSpecific) {
  // An allow() for an unrelated rule must not silence the real finding.
  const std::string content =
      "// af_lint: allow(pragma-once)\n"
      "int f() { return std::rand(); }\n";
  const auto findings = lint_content("src/ftl/wrong_allow.cpp", content);
  EXPECT_EQ(count_rule(findings, "no-nondeterminism"), 1);
}

TEST(AfLint, PatternsInsideStringsAndCommentsDoNotFire) {
  const std::string content =
      "#pragma once\n"
      "// mentions std::thread and std::rand in a comment\n"
      "inline const char* kDoc = \"std::async and steady_clock\";\n";
  const auto findings = lint_content("src/ftl/doc.h", content);
  for (const auto& f : findings) ADD_FAILURE() << format(f);
}

TEST(AfLint, FormatIsCompilerStyle) {
  const Finding f{"src/x.h", 12, "pragma-once", "msg"};
  EXPECT_EQ(format(f), "src/x.h:12: [pragma-once] msg");
}

TEST(AfLint, TreeIsCleanRightNow) {
  // The repo itself must lint clean — same as the af_lint_tree ctest entry,
  // but through the library API so failures show up with gtest context.
  const auto findings = lint_tree(AF_LINT_REPO_ROOT);
  for (const auto& f : findings) ADD_FAILURE() << format(f);
}

// ---------------------------------------------------------------------------
// v2: lexer-fixed literal/comment blind spots
// ---------------------------------------------------------------------------

TEST(AfLint, RawStringContentsNeverFire) {
  // v1's per-line state machine reset string state at EOL, so a multi-line
  // raw string's body leaked back into "code" and its std::thread /
  // std::rand mentions fired. v2 lexes the raw string as one token.
  const auto findings =
      lint_fixture("literal_blindspots.txt", "src/ftl/literal_blindspots.cpp");
  EXPECT_EQ(count_rule(findings, "no-raw-thread"), 0);
  // Exactly one real finding: the entropy() call *outside* any literal. The
  // "af_lint: allow(no-nondeterminism)" spelled inside the string literal
  // right above it must not suppress it (v1 collected markers from raw
  // lines, so it did).
  EXPECT_EQ(count_rule(findings, "no-nondeterminism"), 1);
  EXPECT_EQ(findings.size(), 1u);
}

TEST(AfLint, AllowMarkerInsideBlockCommentCarriesToFirstCodeLine) {
  const auto findings =
      lint_fixture("block_comment_allow.txt", "src/sim/block_comment_allow.cpp");
  // The first clock read is covered by the marker wrapped inside the
  // multi-line block comment above it; the second one is past the
  // carry-down window and must still fire.
  EXPECT_EQ(count_rule(findings, "no-nondeterminism"), 1);
  EXPECT_EQ(findings.size(), 1u);
}

// ---------------------------------------------------------------------------
// v2: nondet-iteration-order
// ---------------------------------------------------------------------------

TEST(AfLint, NondetIterationIntoSinkIsFlagged) {
  const auto findings =
      lint_fixture("nondet_iter.txt", "src/ftl/nondet_iter.cpp");
  // serialize_bad fires; the collect-then-sort pattern and the justified
  // allow()-covered fold stay clean.
  EXPECT_EQ(count_rule(findings, "nondet-iteration-order"), 1);
  EXPECT_EQ(findings.size(), 1u);
}

TEST(AfLint, NondetIterationRuleOnlyCoversSrcAndBench) {
  const auto findings =
      lint_fixture("nondet_iter.txt", "tests/ftl/nondet_iter.cpp");
  EXPECT_EQ(count_rule(findings, "nondet-iteration-order"), 0);
}

// ---------------------------------------------------------------------------
// v2: status-assigned-unchecked
// ---------------------------------------------------------------------------

TEST(AfLint, StatusAssignedUncheckedIsFlagged) {
  const auto findings =
      lint_fixture("status_unchecked.txt", "src/ssd/status_unchecked.cpp");
  // bad() and reassigned() fire; comparison, return, argument passing,
  // (void)-discard and the justified allow stay clean.
  EXPECT_EQ(count_rule(findings, "status-assigned-unchecked"), 2);
  EXPECT_EQ(findings.size(), 2u);
}

TEST(AfLint, StatusRuleOnlyCoversSrc) {
  const auto findings =
      lint_fixture("status_unchecked.txt", "tests/ssd/status_unchecked.cpp");
  EXPECT_EQ(count_rule(findings, "status-assigned-unchecked"), 0);
}

// ---------------------------------------------------------------------------
// deadline-clock
// ---------------------------------------------------------------------------

TEST(AfLint, DeadlineClockFlagsHostTimePrimitives) {
  const auto findings =
      lint_fixture("bad_deadline.txt", "src/ssd/bad_deadline.cpp");
  // sleep_for+chrono (one finding per line), timespec, clock_gettime fire;
  // the justified allow stays clean.
  EXPECT_EQ(count_rule(findings, "deadline-clock"), 3);
}

TEST(AfLint, DeadlineClockOnlyCoversSsdAndSim) {
  // The strict clock ban is scoped to the deadline/simulated-time layers —
  // elsewhere the broader no-nondeterminism rule is the authority.
  const auto in_ftl =
      lint_fixture("bad_deadline.txt", "src/ftl/bad_deadline.cpp");
  EXPECT_EQ(count_rule(in_ftl, "deadline-clock"), 0);
  const auto in_tests =
      lint_fixture("bad_deadline.txt", "tests/ssd/bad_deadline.cpp");
  EXPECT_EQ(count_rule(in_tests, "deadline-clock"), 0);
  const auto in_sim =
      lint_fixture("bad_deadline.txt", "src/sim/bad_deadline.cpp");
  EXPECT_EQ(count_rule(in_sim, "deadline-clock"), 3);
}

// ---------------------------------------------------------------------------
// v2: SARIF + diff mode
// ---------------------------------------------------------------------------

TEST(AfLint, SarifGoldenOutput) {
  const std::vector<Finding> fs = {
      {"src/nand/flash_array.h", 12, "nodiscard-status",
       "status-returning API 'program' (returns Status) must be "
       "[[nodiscard]]"},
      {"src/sim/pipeline.cpp", 0, "status-assigned-unchecked",
       "Status value \"st\" is assigned but never checked"},
  };
  EXPECT_EQ(to_sarif(fs), read_fixture("golden.sarif"));
}

TEST(AfLint, SarifIsSchemaShaped) {
  const std::string sarif = to_sarif({});
  EXPECT_NE(sarif.find("\"$schema\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-schema-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"af_lint\""), std::string::npos);
  // Every rule the linter can emit is in the driver's rule table.
  for (const auto& rule : rule_catalogue()) {
    EXPECT_NE(sarif.find("\"id\": \"" + rule.id + "\""), std::string::npos)
        << rule.id;
  }
}

TEST(AfLint, ParseUnifiedDiffExtractsAddedRanges) {
  const std::string diff =
      "diff --git a/src/x.cpp b/src/x.cpp\n"
      "index 111..222 100644\n"
      "--- a/src/x.cpp\n"
      "+++ b/src/x.cpp\n"
      "@@ -10,2 +12,3 @@ void f()\n"
      "+a\n+b\n+c\n"
      "@@ -40 +50 @@\n"
      "+d\n"
      "@@ -60,3 +70,0 @@\n"
      "-gone\n-gone\n-gone\n"
      "diff --git a/src/y.cpp b/src/y.cpp\n"
      "--- a/src/y.cpp\n"
      "+++ b/src/y.cpp\n"
      "@@ -1,0 +2,2 @@\n"
      "+e\n+f\n";
  const ChangedLines changed = parse_unified_diff(diff);
  EXPECT_TRUE(changed.covers("src/x.cpp", 12));
  EXPECT_TRUE(changed.covers("src/x.cpp", 14));
  EXPECT_FALSE(changed.covers("src/x.cpp", 11));
  EXPECT_FALSE(changed.covers("src/x.cpp", 15));
  EXPECT_TRUE(changed.covers("src/x.cpp", 50));
  // A pure deletion (+70,0) contributes no lines.
  EXPECT_FALSE(changed.covers("src/x.cpp", 70));
  EXPECT_TRUE(changed.covers("src/y.cpp", 2));
  EXPECT_TRUE(changed.covers("src/y.cpp", 3));
  EXPECT_FALSE(changed.covers("src/y.cpp", 4));
  EXPECT_FALSE(changed.covers("src/z.cpp", 1));
}

TEST(AfLint, DiffModeRestrictsFixtureFindingsToChangedLines) {
  // A synthetic changed-lines set over a real fixture's findings: only the
  // finding whose line is inside a changed range survives.
  auto findings = lint_fixture("bad_space.txt", "src/sim/bad_space.cpp");
  ASSERT_EQ(findings.size(), 3u);
  const int keep_line = findings[1].line;
  ChangedLines changed;
  changed.ranges["src/sim/bad_space.cpp"].push_back({keep_line, keep_line});
  const auto restricted = restrict_to_changed(std::move(findings), changed);
  ASSERT_EQ(restricted.size(), 1u);
  EXPECT_EQ(restricted[0].line, keep_line);
}

}  // namespace
}  // namespace af::lint
