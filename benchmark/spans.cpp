#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace af::benchmark {

std::int32_t SpanLog::open(const char* name, std::int32_t parent) {
  Span span;
  span.name = name;
  span.begin_ns = now_ns();
  span.parent = parent;
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

double SpanLog::close(std::int32_t id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  aggregate(span.name, span.end_ns - span.begin_ns);
  return static_cast<double>(span.end_ns - span.begin_ns) / 1e9;
}

void SpanLog::request(const char* name, std::uint64_t begin_ns,
                      std::uint64_t end_ns, std::int32_t parent,
                      std::uint64_t request, const char* cls) {
  aggregate(name, end_ns - begin_ns);
  if (kept_requests_ >= detail_requests_) return;
  ++kept_requests_;
  spans_.push_back(Span{name, begin_ns, end_ns, parent,
                        static_cast<std::int64_t>(request), cls});
}

void SpanLog::aggregate(const char* name, std::uint64_t ns) {
  auto it = std::find_if(aggregates_.begin(), aggregates_.end(),
                         [name](const Aggregate& a) { return a.name == name; });
  if (it == aggregates_.end()) {
    aggregates_.push_back(Aggregate{name});
    it = aggregates_.end() - 1;
  }
  ++it->count;
  it->total_ns += ns;
  it->max_ns = std::max(it->max_ns, ns);
}

bool SpanLog::write_chrome_json(const std::string& path,
                                const std::string& workload,
                                std::uint64_t seed) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Complete ("X") events on one thread nest by time in the viewers; the
  // explicit parent id in args keeps causality for tools that read the file.
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d",
                 s.name, static_cast<double>(s.begin_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.begin_ns) / 1e3, i, s.parent);
    if (s.request >= 0) {
      std::fprintf(f, ", \"request\": %lld",
                   static_cast<long long>(s.request));
    }
    if (s.cls != nullptr) std::fprintf(f, ", \"class\": \"%s\"", s.cls);
    std::fprintf(f, "}}%s\n", i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f,
               "], \"otherData\": {\"workload\": \"%s\", \"seed\": %llu, "
               "\"detail_requests\": %llu, \"aggregates\": {",
               workload.c_str(), static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(detail_requests_));
  for (std::size_t i = 0; i < aggregates_.size(); ++i) {
    const Aggregate& a = aggregates_[i];
    std::fprintf(f,
                 "%s\"%s\": {\"count\": %llu, \"total_ms\": %.6f, "
                 "\"mean_ns\": %.1f, \"max_ns\": %llu}",
                 i > 0 ? ", " : "", a.name,
                 static_cast<unsigned long long>(a.count),
                 static_cast<double>(a.total_ns) / 1e6,
                 static_cast<double>(a.total_ns) /
                     static_cast<double>(std::max<std::uint64_t>(1, a.count)),
                 static_cast<unsigned long long>(a.max_ns));
  }
  std::fprintf(f, "}}}\n");
  return std::fclose(f) == 0;
}

}  // namespace af::benchmark
