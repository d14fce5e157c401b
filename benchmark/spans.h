// Host-time spans recorded around the driver's calls into each simulator
// layer (the traced run only). Spans live in memory and are written out once,
// as Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev), when the
// run ends. The first `detail_requests` per-request spans are kept; every
// span, kept or not, feeds the per-name aggregates.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace af::benchmark {

class SpanLog {
 public:
  static constexpr std::int32_t kNoParent = -1;

  explicit SpanLog(std::uint64_t detail_requests)
      : detail_requests_(detail_requests),
        origin_(std::chrono::steady_clock::now()) {}

  /// Host nanoseconds since the log was created.
  [[nodiscard]] std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count());
  }

  /// Opens a phase span (setup, age, measure...) and returns its id, the
  /// parent handle for spans it causes. `name` must be a string literal.
  std::int32_t open(const char* name, std::int32_t parent = kNoParent);
  /// Closes the span and returns its duration in seconds.
  double close(std::int32_t id);

  /// Records one finished per-request span. `request` is the trace index;
  /// `cls` names the request class (a string literal, or nullptr).
  void request(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns,
               std::int32_t parent, std::uint64_t request, const char* cls);

  /// Writes every kept span plus the per-name aggregates; false on I/O
  /// failure.
  [[nodiscard]] bool write_chrome_json(const std::string& path,
                                       const std::string& workload,
                                       std::uint64_t seed) const;

 private:
  struct Span {
    const char* name = nullptr;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    std::int32_t parent = kNoParent;
    std::int64_t request = -1;  ///< -1 for phase spans
    const char* cls = nullptr;
  };
  struct Aggregate {
    const char* name = nullptr;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
  };
  void aggregate(const char* name, std::uint64_t ns);

  std::uint64_t detail_requests_;
  std::uint64_t kept_requests_ = 0;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<Aggregate> aggregates_;  ///< few names: linear lookup
};

}  // namespace af::benchmark
