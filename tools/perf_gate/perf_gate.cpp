// perf_gate — compares two BENCH_perf.json files and fails the build when
// the candidate regresses the committed baseline.
//
// Checks, in order:
//   1. Wall-clock replay throughput per scheme ("replays" section):
//      candidate requests_per_s must stay within --max-regression (default
//      25%) of the baseline. Skipped (with a note) when the two files were
//      measured at different config.requests — wall numbers at different
//      trace lengths are not comparable.
//   2. Pipeline simulated throughput per (scheme, queue depth): the same
//      threshold. These numbers are deterministic in (config, trace, QD),
//      so any drift at equal request counts is a behaviour change, not
//      noise. Also skipped across differing request counts.
//   3. Tail-latency chaos read p99 per (scheme, policy) ("tail" section):
//      candidate p99 must not grow beyond --max-regression. Latency fence —
//      the regression direction is UP, unlike the throughput checks. Skipped
//      when either file predates the tail section, or across differing
//      request counts.
//   4. Within the candidate alone: every pipeline row at queue depth >= 4
//      must hold speedup_vs_qd1 >= --min-qd-speedup (default 2.0) — the
//      concurrency win the pipeline exists to deliver (DESIGN.md §10).
//   5. Within the candidate alone: for each scheme in the tail section, the
//      preempt policy must leave read p99 no worse than the off row (within
//      --max-regression) — the machinery must never hurt the tail it exists
//      to protect (DESIGN.md §11).
//   6. Multi-tenant QoS victim read p99 per (scheme, workload, policy)
//      ("qos" section): latency fence like 3, skipped when either file
//      predates the section or across differing request counts.
//   7. Within the candidate alone: each scheme's qos solo and solo-mixed
//      rows must match EXACTLY — routing a single-tenant trace through the
//      mixer and tenant plumbing with QoS off is a bit-identical no-op
//      (DESIGN.md §12).
//   8. Within the candidate alone: each scheme's streams+bucket victim read
//      p99/mean must be no worse than its off row (within --max-regression)
//      — the containment machinery must never hurt the tenant it exists to
//      protect.
//
// The parser covers exactly the JSON subset perf_replay emits (objects,
// arrays, strings, numbers, booleans); it is not a general JSON library.
//
// Usage:
//   perf_gate --baseline BENCH_perf.json --candidate BENCH_perf_ci.json
//             [--max-regression 0.25] [--min-qd-speedup 2.0]
// Exit status: 0 = gate passed, 1 = regression found, 2 = usage/parse error.
#include <cstdarg>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser.

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  [[nodiscard]] const Json* find(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
  [[nodiscard]] double num_or(const std::string& key, double fallback) const {
    const Json* v = find(key);
    return v != nullptr && v->type == Type::kNumber ? v->number : fallback;
  }
  [[nodiscard]] std::string str_or(const std::string& key,
                                   const std::string& fallback) const {
    const Json* v = find(key);
    return v != nullptr && v->type == Type::kString ? v->str : fallback;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  [[nodiscard]] bool parse(Json* out) {
    const bool ok = value(out);
    skip_ws();
    return ok && pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  [[nodiscard]] bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  [[nodiscard]] bool literal(const char* word) {
    skip_ws();
    const std::size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }
  [[nodiscard]] bool string(std::string* out) {
    if (!consume('"')) return false;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      out->push_back(text_[pos_++]);
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }
  [[nodiscard]] bool value(Json* out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out->type = Json::Type::kString;
      return string(&out->str);
    }
    if (literal("true")) {
      out->type = Json::Type::kBool;
      out->boolean = true;
      return true;
    }
    if (literal("false")) {
      out->type = Json::Type::kBool;
      out->boolean = false;
      return true;
    }
    if (literal("null")) {
      out->type = Json::Type::kNull;
      return true;
    }
    char* end = nullptr;
    out->number = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_) return false;
    out->type = Json::Type::kNumber;
    pos_ = static_cast<std::size_t>(end - text_.c_str());
    return true;
  }
  [[nodiscard]] bool object(Json* out) {
    if (!consume('{')) return false;
    out->type = Json::Type::kObject;
    if (consume('}')) return true;
    do {
      std::string key;
      if (!string(&key) || !consume(':')) return false;
      if (!value(&out->object[key])) return false;
    } while (consume(','));
    return consume('}');
  }
  [[nodiscard]] bool array(Json* out) {
    if (!consume('[')) return false;
    out->type = Json::Type::kArray;
    if (consume(']')) return true;
    do {
      Json element;
      if (!value(&element)) return false;
      out->array.push_back(std::move(element));
    } while (consume(','));
    return consume(']');
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

[[nodiscard]] bool load(const std::string& path, Json* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perf_gate: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  if (!Parser(text).parse(out) || out->type != Json::Type::kObject) {
    std::fprintf(stderr, "perf_gate: %s is not valid JSON\n", path.c_str());
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Gate logic.

struct Gate {
  double max_regression = 0.25;
  double min_qd_speedup = 2.0;
  int failures = 0;

  void fail(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    va_list args;
    va_start(args, fmt);
    std::fprintf(stderr, "perf_gate: FAIL: ");
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
    va_end(args);
    ++failures;
  }
};

[[nodiscard]] double requests_of(const Json& doc) {
  const Json* config = doc.find("config");
  return config != nullptr ? config->num_or("requests", -1) : -1;
}

/// Prints a baseline/candidate/delta row and returns the relative delta
/// (negative = candidate slower).
double delta_row(const std::string& label, double base, double cand) {
  const double delta = base > 0 ? (cand - base) / base : 0;
  std::printf("  %-28s %12.1f %12.1f %+8.1f%%\n", label.c_str(), base, cand,
              delta * 100);
  return delta;
}

void check_wall_replays(const Json& base, const Json& cand, Gate* gate) {
  const Json* base_rows = base.find("replays");
  const Json* cand_rows = cand.find("replays");
  if (base_rows == nullptr || cand_rows == nullptr) {
    gate->fail("missing \"replays\" section");
    return;
  }
  std::printf("wall-clock replay throughput (requests_per_s)\n");
  std::printf("  %-28s %12s %12s %9s\n", "scheme", "baseline", "candidate",
              "delta");
  for (const Json& b : base_rows->array) {
    const std::string scheme = b.str_or("scheme", "?");
    const Json* match = nullptr;
    for (const Json& c : cand_rows->array) {
      if (c.str_or("scheme", "") == scheme) match = &c;
    }
    if (match == nullptr) {
      gate->fail("scheme %s missing from candidate replays", scheme.c_str());
      continue;
    }
    const double delta =
        delta_row(scheme, b.num_or("requests_per_s", 0),
                  match->num_or("requests_per_s", 0));
    if (delta < -gate->max_regression) {
      gate->fail("%s wall throughput regressed %.1f%% (limit %.0f%%)",
                 scheme.c_str(), -delta * 100, gate->max_regression * 100);
    }
  }
}

void check_pipeline_cross(const Json& base, const Json& cand, Gate* gate) {
  const Json* base_rows = base.find("pipeline");
  const Json* cand_rows = cand.find("pipeline");
  if (base_rows == nullptr || cand_rows == nullptr) return;  // older file
  std::printf("pipeline simulated throughput (sim_requests_per_s)\n");
  std::printf("  %-28s %12s %12s %9s\n", "scheme @ QD", "baseline",
              "candidate", "delta");
  for (const Json& b : base_rows->array) {
    const std::string scheme = b.str_or("scheme", "?");
    const double qd = b.num_or("queue_depth", 0);
    const Json* match = nullptr;
    for (const Json& c : cand_rows->array) {
      if (c.str_or("scheme", "") == scheme && c.num_or("queue_depth", -1) == qd)
        match = &c;
    }
    if (match == nullptr) {
      gate->fail("pipeline row %s @ QD %.0f missing from candidate",
                 scheme.c_str(), qd);
      continue;
    }
    char label[64];
    std::snprintf(label, sizeof label, "%s @ QD %.0f", scheme.c_str(), qd);
    const double delta =
        delta_row(label, b.num_or("sim_requests_per_s", 0),
                  match->num_or("sim_requests_per_s", 0));
    if (delta < -gate->max_regression) {
      gate->fail("%s simulated throughput regressed %.1f%% (limit %.0f%%)",
                 label, -delta * 100, gate->max_regression * 100);
    }
  }
}

void check_tail_cross(const Json& base, const Json& cand, Gate* gate) {
  const Json* base_sec = base.find("tail");
  const Json* cand_sec = cand.find("tail");
  if (base_sec == nullptr || cand_sec == nullptr) return;  // older file
  const Json* base_rows = base_sec->find("replays");
  const Json* cand_rows = cand_sec->find("replays");
  if (base_rows == nullptr || cand_rows == nullptr) return;
  std::printf("tail-latency chaos read p99 (ms; lower is better)\n");
  std::printf("  %-28s %12s %12s %9s\n", "scheme / policy", "baseline",
              "candidate", "delta");
  for (const Json& b : base_rows->array) {
    const std::string scheme = b.str_or("scheme", "?");
    const std::string policy = b.str_or("policy", "?");
    const Json* match = nullptr;
    for (const Json& c : cand_rows->array) {
      if (c.str_or("scheme", "") == scheme &&
          c.str_or("policy", "") == policy) {
        match = &c;
      }
    }
    if (match == nullptr) {
      gate->fail("tail row %s/%s missing from candidate", scheme.c_str(),
                 policy.c_str());
      continue;
    }
    char label[64];
    std::snprintf(label, sizeof label, "%s %s", scheme.c_str(),
                  policy.c_str());
    // Latency fence: p99 going UP is the regression (these are simulated,
    // deterministic numbers — drift at equal request counts is a behaviour
    // change, and the log2-bucketed percentiles only move when behaviour
    // does).
    const double delta = delta_row(label, b.num_or("read_p99_ms", 0),
                                   match->num_or("read_p99_ms", 0));
    if (delta > gate->max_regression) {
      gate->fail("%s tail read p99 regressed %.1f%% (limit %.0f%%)", label,
                 delta * 100, gate->max_regression * 100);
    }
  }
}

void check_tail_policy(const Json& cand, Gate* gate) {
  const Json* sec = cand.find("tail");
  const Json* rows = sec != nullptr ? sec->find("replays") : nullptr;
  if (rows == nullptr) return;  // older candidate
  std::printf("candidate tail policy invariant (preempt p99 <= off)\n");
  for (const Json& r : rows->array) {
    if (r.str_or("policy", "") != "preempt") continue;
    const std::string scheme = r.str_or("scheme", "?");
    const Json* off = nullptr;
    for (const Json& o : rows->array) {
      if (o.str_or("scheme", "") == scheme && o.str_or("policy", "") == "off")
        off = &o;
    }
    if (off == nullptr) continue;
    const double armed = r.num_or("read_p99_ms", 0);
    const double base = off->num_or("read_p99_ms", 0);
    std::printf("  %-28s off %.2f ms -> preempt %.2f ms\n", scheme.c_str(),
                base, armed);
    // The policy must never make the tail worse than doing nothing
    // (tolerance covers log2-bucket quantisation at small request counts).
    if (base > 0 && armed > base * (1 + gate->max_regression)) {
      gate->fail("%s preempt read p99 %.2f ms worse than off %.2f ms",
                 scheme.c_str(), armed, base);
    }
  }
}

void check_qos_cross(const Json& base, const Json& cand, Gate* gate) {
  const Json* base_sec = base.find("qos");
  const Json* cand_sec = cand.find("qos");
  if (base_sec == nullptr || cand_sec == nullptr) return;  // older file
  const Json* base_rows = base_sec->find("replays");
  const Json* cand_rows = cand_sec->find("replays");
  if (base_rows == nullptr || cand_rows == nullptr) return;
  std::printf("qos victim read p99 (ms; lower is better)\n");
  for (const Json& b : base_rows->array) {
    const std::string scheme = b.str_or("scheme", "?");
    const std::string workload = b.str_or("workload", "?");
    const std::string policy = b.str_or("policy", "?");
    const Json* match = nullptr;
    for (const Json& c : cand_rows->array) {
      if (c.str_or("scheme", "") == scheme &&
          c.str_or("workload", "") == workload &&
          c.str_or("policy", "") == policy) {
        match = &c;
      }
    }
    if (match == nullptr) {
      gate->fail("qos row %s/%s/%s missing from candidate", scheme.c_str(),
                 workload.c_str(), policy.c_str());
      continue;
    }
    char label[96];
    std::snprintf(label, sizeof label, "%s %s %s", scheme.c_str(),
                  workload.c_str(), policy.c_str());
    const double delta = delta_row(label, b.num_or("victim_read_p99_ms", 0),
                                   match->num_or("victim_read_p99_ms", 0));
    if (delta > gate->max_regression) {
      gate->fail("%s qos victim read p99 regressed %.1f%% (limit %.0f%%)",
                 label, delta * 100, gate->max_regression * 100);
    }
  }
}

void check_qos_identity(const Json& cand, Gate* gate) {
  const Json* sec = cand.find("qos");
  const Json* rows = sec != nullptr ? sec->find("replays") : nullptr;
  if (rows == nullptr) return;  // older candidate
  std::printf("candidate qos zero-default identity (solo == solo-mixed)\n");
  for (const Json& r : rows->array) {
    if (r.str_or("workload", "") != "solo") continue;
    const std::string scheme = r.str_or("scheme", "?");
    const Json* twin = nullptr;
    for (const Json& o : rows->array) {
      if (o.str_or("scheme", "") == scheme &&
          o.str_or("workload", "") == "solo-mixed") {
        twin = &o;
      }
    }
    if (twin == nullptr) {
      gate->fail("%s qos solo-mixed row missing from candidate",
                 scheme.c_str());
      continue;
    }
    const double solo_p99 = r.num_or("victim_read_p99_ms", -1);
    const double mixed_p99 = twin->num_or("victim_read_p99_ms", -2);
    const double solo_mean = r.num_or("victim_read_mean_ms", -1);
    const double mixed_mean = twin->num_or("victim_read_mean_ms", -2);
    std::printf("  %-12s p99 %.4f/%.4f ms  mean %.4f/%.4f ms\n",
                scheme.c_str(), solo_p99, mixed_p99, solo_mean, mixed_mean);
    // Exact equality, no tolerance: the mixer + tenant-tagging path with a
    // single tenant and QoS off must be a bit-identical no-op.
    if (solo_p99 != mixed_p99 || solo_mean != mixed_mean) {
      gate->fail("%s solo and solo-mixed qos rows differ — tenant plumbing "
                 "is not a zero-default no-op",
                 scheme.c_str());
    }
  }
}

void check_qos_containment(const Json& cand, Gate* gate) {
  const Json* sec = cand.find("qos");
  const Json* rows = sec != nullptr ? sec->find("replays") : nullptr;
  if (rows == nullptr) return;  // older candidate
  std::printf(
      "candidate qos containment (streams+bucket victim p99 <= off)\n");
  for (const Json& r : rows->array) {
    if (r.str_or("policy", "") != "streams+bucket") continue;
    const std::string scheme = r.str_or("scheme", "?");
    const Json* off = nullptr;
    for (const Json& o : rows->array) {
      if (o.str_or("scheme", "") == scheme && o.str_or("policy", "") == "off")
        off = &o;
    }
    if (off == nullptr) continue;
    const double contained = r.num_or("victim_read_p99_ms", 0);
    const double base = off->num_or("victim_read_p99_ms", 0);
    const double contained_mean = r.num_or("victim_read_mean_ms", 0);
    const double base_mean = off->num_or("victim_read_mean_ms", 0);
    std::printf(
        "  %-12s p99 %.2f -> %.2f ms  mean %.2f -> %.2f ms\n",
        scheme.c_str(), base, contained, base_mean, contained_mean);
    // The full policy must never leave the victim worse off than no policy
    // at all. (streams-only is deliberately unfenced: changing allocation
    // spread can shift the tail either way before the bucket paces the
    // neighbor.)
    if (base > 0 && contained > base * (1 + gate->max_regression)) {
      gate->fail("%s streams+bucket victim read p99 %.2f ms worse than off "
                 "%.2f ms",
                 scheme.c_str(), contained, base);
    }
    if (base_mean > 0 &&
        contained_mean > base_mean * (1 + gate->max_regression)) {
      gate->fail("%s streams+bucket victim read mean %.2f ms worse than off "
                 "%.2f ms",
                 scheme.c_str(), contained_mean, base_mean);
    }
  }
}

void check_qd_speedup(const Json& cand, Gate* gate) {
  const Json* rows = cand.find("pipeline");
  if (rows == nullptr) {
    gate->fail("candidate has no \"pipeline\" section");
    return;
  }
  std::printf("candidate pipeline speedup vs QD=1 (floor %.2fx at QD >= 4)\n",
              gate->min_qd_speedup);
  for (const Json& r : rows->array) {
    const double qd = r.num_or("queue_depth", 0);
    const double speedup = r.num_or("speedup_vs_qd1", 0);
    std::printf("  %-28s QD %-4.0f %.2fx\n", r.str_or("scheme", "?").c_str(),
                qd, speedup);
    if (qd >= 4 && speedup < gate->min_qd_speedup) {
      gate->fail("%s @ QD %.0f speedup %.2fx below floor %.2fx",
                 r.str_or("scheme", "?").c_str(), qd, speedup,
                 gate->min_qd_speedup);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string candidate_path;
  Gate gate;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--candidate" && i + 1 < argc) {
      candidate_path = argv[++i];
    } else if (arg == "--max-regression" && i + 1 < argc) {
      gate.max_regression = std::strtod(argv[++i], nullptr);
    } else if (arg == "--min-qd-speedup" && i + 1 < argc) {
      gate.min_qd_speedup = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: perf_gate --baseline A.json --candidate B.json "
                   "[--max-regression 0.25] [--min-qd-speedup 2.0]\n");
      return 2;
    }
  }
  if (baseline_path.empty() || candidate_path.empty()) {
    std::fprintf(stderr, "perf_gate: --baseline and --candidate required\n");
    return 2;
  }

  Json base;
  Json cand;
  if (!load(baseline_path, &base) || !load(candidate_path, &cand)) return 2;

  const double base_reqs = requests_of(base);
  const double cand_reqs = requests_of(cand);
  if (base_reqs == cand_reqs) {
    check_wall_replays(base, cand, &gate);
    check_pipeline_cross(base, cand, &gate);
    check_tail_cross(base, cand, &gate);
    check_qos_cross(base, cand, &gate);
  } else {
    std::printf(
        "cross-file throughput compare skipped: baseline measured %.0f "
        "requests, candidate %.0f (not comparable)\n",
        base_reqs, cand_reqs);
  }
  check_qd_speedup(cand, &gate);
  check_tail_policy(cand, &gate);
  check_qos_identity(cand, &gate);
  check_qos_containment(cand, &gate);

  if (gate.failures > 0) {
    std::fprintf(stderr, "perf_gate: %d check(s) failed\n", gate.failures);
    return 1;
  }
  std::printf("perf_gate: all checks passed\n");
  return 0;
}
