// Benchmark driver (benchmark/README.md). Replays one named workload and
// prints its metrics: a table, then as the last line of stdout one JSON
// object
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// holding the end-to-end metrics, or with --trace 1 the per-layer ones.
//
//   af_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--scale F] [--trace-out FILE]
//   af_benchmark --list      (workload names, one per line)
//
// A plain run replays kParts parts, each with its own inputs drawn from the
// seed on a freshly built and aged device, and pools their simulated
// results. It then repeats part 0, and keeps repeating parts while less
// than S seconds of submit/drain loop have been measured; every repeat must
// reproduce its part's simulated metrics bit-for-bit. Host metrics are
// medians over all reps. A traced run replays part 0 three times: plain,
// traced (a span around every call into a layer, written to FILE) and with
// the oracle off.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "metrics.h"
#include "sim/pipeline.h"
#include "sim/ssd.h"
#include "spans.h"
#include "trace/event.h"
#include "workloads.h"

namespace af::benchmark {

namespace {

/// Independently seeded parts pooled into a plain run's simulated metrics.
constexpr std::uint32_t kParts = 3;
constexpr std::size_t kMaxReps = 12;
/// Requests whose per-call spans the traced run keeps (aggregates cover all).
constexpr std::uint64_t kDetailRequests = 100'000;
/// Steady-state warning threshold for the half-vs-half drift metrics.
constexpr double kDriftWarn = 0.03;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string trace_out;
};

enum class RepMode { kPlain, kTraced, kNoOracle };

struct Rep {
  std::uint32_t part = 0;
  RepMode mode = RepMode::kPlain;
  double gen_s = 0;
  double age_s = 0;
  double warmup_s = 0;
  double setup_s = 0;  ///< trace gen + construction + age + warm-up + reset
  double host_s = 0;   ///< the measured submit/drain loop
  std::uint64_t requests = 0;
  SimTally tally;
  Metrics sim;     ///< this rep's own simulated end-to-end metrics
  Metrics layers;  ///< deterministic per-layer metrics
  std::uint64_t failed = 0;  ///< refused or lost requests
  bool oracle_on = false;
  std::uint64_t read_sectors = 0;
  std::uint64_t verified_sectors = 0;
  // Traced rep only: host time per call into the device.
  double submit_ns_p50 = 0;
  double submit_ns_p99 = 0;
  double pipeline_submit_ns_mean = 0;
  double pipeline_drain_s = 0;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: af_benchmark --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--scale F] [--trace-out FILE]\n"
               "       af_benchmark --list\n"
               "workloads:");
  for (const std::string& name : workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  if (argc == 2 && std::string(argv[1]) == "--list") {
    for (const std::string& name : workload_names()) {
      std::printf("%s\n", name.c_str());
    }
    std::exit(0);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage();
      opt.trace = value == "1";
    } else if (arg == "--scale") {
      opt.scale = std::strtod(value.c_str(), &end);
      if (!(opt.scale > 0 && opt.scale <= 1)) usage();
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else {
      usage();
    }
    if (end != nullptr && *end != '\0') usage();
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    usage();
  }
  return opt;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

ftl::IoRequest request_of(const trace::TraceRecord& rec) {
  return {rec.timestamp, rec.write, rec.range(), rec.trim, rec.tenant};
}

sim::Ssd& device_of(sim::Ssd& ssd) { return ssd; }
sim::Ssd& device_of(sim::SsdPipeline& pipeline) { return pipeline.device(); }

/// Host-time observations of the traced rep.
struct CallTimes {
  std::vector<std::uint64_t> submit_ns;
  double drain_s = 0;
};

/// Serial open loop from record `from` on: each request enters at its
/// trace timestamp and its latency is what Ssd::submit returns to the host.
template <bool kTraced>
void drive(sim::Ssd& ssd, const trace::Trace& tr, std::size_t from, int tenant,
           Observed& obs, SpanLog& log, std::int32_t parent, CallTimes& calls) {
  // Ssd counts verified sectors from construction on; keep the measured ones.
  const std::uint64_t verified_before = ssd.verified_sectors();
  const std::size_t half = from + (tr.size() - from) / 2;
  for (std::size_t i = from; i < tr.size(); ++i) {
    if (i == half) {
      obs.half_stats = ssd.stats();
      obs.first_half_reads = obs.read_ns.size();
    }
    const trace::TraceRecord& rec = tr[i];
    std::uint64_t begin = 0;
    if constexpr (kTraced) begin = log.now_ns();
    const sim::Ssd::Completion c = ssd.submit(request_of(rec));
    if constexpr (kTraced) {
      const std::uint64_t end = log.now_ns();
      calls.submit_ns.push_back(end - begin);
      log.request("sim.Ssd.submit", begin, end, parent, i,
                  ssd::to_string(c.cls));
    }
    obs.last_done = std::max(obs.last_done, c.done);
    if (c.data_lost) ++obs.lost;
    if (!c.accepted) continue;
    if (!rec.write && !rec.trim) obs.read_sectors += rec.sectors;
    if (tenant >= 0 && rec.tenant != tenant) continue;
    (rec.write ? obs.write_ns : obs.read_ns).push_back(c.latency);
    obs.latency_sum_ns += c.latency;
  }
  obs.submitted_stats = ssd.stats();
  // Writes still parked by a dry token bucket enter the device now.
  const std::int32_t id = log.open("sim.Ssd.drain_admission", parent);
  ssd.drain_admission();
  calls.drain_s = log.close(id);
  obs.first_arrival = tr[from].timestamp;
  obs.verified_sectors = ssd.verified_sectors() - verified_before;
}

/// Closed loop at the pipeline's queue depth from record `from` on; a
/// latency is done − submitted of the request's completion record.
template <bool kTraced>
void drive(sim::SsdPipeline& pipeline, const trace::Trace& tr,
           std::size_t from, int tenant, Observed& obs, SpanLog& log,
           std::int32_t parent, CallTimes& calls) {
  const std::size_t half = from + (tr.size() - from) / 2;
  for (std::size_t i = from; i < tr.size(); ++i) {
    if (i == half) {
      pipeline.flush();  // device stats are readable only when quiescent
      obs.half_stats = pipeline.device().stats();
    }
    std::uint64_t begin = 0;
    if constexpr (kTraced) begin = log.now_ns();
    pipeline.submit(request_of(tr[i]));
    if constexpr (kTraced) {
      const std::uint64_t end = log.now_ns();
      calls.submit_ns.push_back(end - begin);
      log.request("sim.SsdPipeline.submit", begin, end, parent, i, nullptr);
    }
  }
  const std::int32_t id = log.open("sim.SsdPipeline.drain", parent);
  pipeline.drain();
  calls.drain_s = log.close(id);
  obs.submitted_stats = pipeline.device().stats();

  const auto& records = pipeline.records();
  obs.first_arrival = records.front().submitted;
  for (std::size_t k = 0; k < records.size(); ++k) {
    const auto& r = records[k];
    const trace::TraceRecord& rec = tr[from + k];
    if (from + k == half) obs.first_half_reads = obs.read_ns.size();
    obs.first_arrival = std::min(obs.first_arrival, r.submitted);
    obs.last_done = std::max(obs.last_done, r.done);
    if (r.data_lost) ++obs.lost;
    if (!r.accepted) continue;
    if (!rec.write && !rec.trim) obs.read_sectors += rec.sectors;
    if (tenant >= 0 && rec.tenant != tenant) continue;
    const std::uint64_t latency = r.done - r.submitted;
    (rec.write ? obs.write_ns : obs.read_ns).push_back(latency);
    obs.latency_sum_ns += latency;
  }
  obs.verified_sectors = pipeline.verified_sectors();
}

/// Replays the warm-up records serially, untimed, so GC and the mapping
/// cache reach the workload's steady state before measurement. The flash
/// state it leaves does not depend on how requests were timed, so a
/// pipelined workload warms up serially too, several times faster.
void warm_up(sim::Ssd& ssd, const trace::Trace& tr, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) (void)ssd.submit(request_of(tr[i]));
  ssd.drain_admission();
  // GC relocations during the warm-up must not be billed to a tenant's
  // first measured write as a token-bucket surcharge.
  for (std::uint16_t t = 0; t < ssd.config().qos.tenants; ++t) {
    (void)ssd.engine().drain_gc_debt_pages(t);
  }
}

template <class Device>
Rep run_rep_on(const Workload& w, const Options& opt, std::uint32_t part,
               RepMode mode, SpanLog& log) {
  Rep rep;
  rep.part = part;
  rep.mode = mode;
  const std::int32_t setup = log.open("setup");
  std::int32_t id = log.open("trace.generate", setup);
  const PartInput in = make_input(w, opt.seed, part, opt.scale);
  const trace::Trace& tr = in.records;
  rep.gen_s = log.close(id);
  id = log.open("sim.construct", setup);
  Device dev(w.config, ftl::SchemeKind::kAcrossFtl);
  log.close(id);
  id = log.open("sim.age", setup);
  dev.age(w.age_used, kLiveFraction, in.age_seed);
  rep.age_s = log.close(id);
  id = log.open("sim.warmup", setup);
  warm_up(device_of(dev), tr, in.warmup);
  rep.warmup_s = log.close(id);
  id = log.open("sim.reset_measurement", setup);
  dev.reset_measurement();
  log.close(id);
  rep.setup_s = log.close(setup);

  sim::Ssd& ssd = device_of(dev);
  const CounterBase base = CounterBase::of(ssd.engine());
  Observed obs;
  obs.requests = tr.size() - in.warmup;
  obs.read_ns.reserve(obs.requests);
  obs.write_ns.reserve(obs.requests);
  CallTimes calls;
  const std::int32_t measure = log.open("measure");
  if (mode == RepMode::kTraced) {
    calls.submit_ns.reserve(obs.requests);
    drive<true>(dev, tr, in.warmup, w.measured_tenant, obs, log, measure,
                calls);
  } else {
    drive<false>(dev, tr, in.warmup, w.measured_tenant, obs, log, measure,
                 calls);
  }
  rep.host_s = log.close(measure);

  rep.requests = obs.requests;
  rep.layers = layer_metrics(obs, ssd.engine(), base, tr);
  rep.failed = refused_requests(ssd.stats()) + obs.lost;
  rep.oracle_on = ssd.oracle() != nullptr;
  rep.read_sectors = obs.read_sectors;
  rep.verified_sectors = obs.verified_sectors;
  rep.tally = SimTally::take(obs, ssd.engine());
  rep.sim = sim_metrics(rep.tally);
  if (mode == RepMode::kTraced) {
    if (w.pipelined) {
      std::uint64_t total = 0;
      for (std::uint64_t ns : calls.submit_ns) total += ns;
      rep.pipeline_submit_ns_mean = static_cast<double>(total) /
                                    static_cast<double>(calls.submit_ns.size());
      rep.pipeline_drain_s = calls.drain_s;
    } else {
      rep.submit_ns_p50 = exact_percentile(calls.submit_ns, 50);
      rep.submit_ns_p99 = exact_percentile(calls.submit_ns, 99);
    }
  }
  return rep;
}

Rep run_rep(const Options& opt, std::uint32_t part, RepMode mode,
            SpanLog& log) {
  Workload w = make_workload(opt.workload);
  if (mode == RepMode::kNoOracle) w.config.track_payload = false;
  return w.pipelined ? run_rep_on<sim::SsdPipeline>(w, opt, part, mode, log)
                     : run_rep_on<sim::Ssd>(w, opt, part, mode, log);
}

bool bit_identical(const Metrics& a, const Metrics& b,
                   const std::string& skip = "") {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name) return false;
    if (a[i].name == skip) continue;
    if (std::bit_cast<std::uint64_t>(a[i].value) !=
        std::bit_cast<std::uint64_t>(b[i].value)) {
      std::fprintf(stderr, "  %s: %.17g vs %.17g\n", a[i].name.c_str(),
                   a[i].value, b[i].value);
      return false;
    }
  }
  return true;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_table(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %18.6f  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// The run's correctness checks; prints each failure and returns false if
/// any failed.
bool check(const std::vector<Rep>& reps) {
  bool ok = true;
  auto fail = [&ok](const std::string& what) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ok = false;
  };
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& rep = reps[i];
    const std::string tag = "rep " + std::to_string(i + 1) + " (part " +
                            std::to_string(rep.part) + "): ";
    const bool no_oracle = rep.mode == RepMode::kNoOracle;
    if (!no_oracle) {
      if (!rep.oracle_on) fail(tag + "oracle is off");
      if (rep.verified_sectors != rep.read_sectors) {
        fail(tag + "oracle verified " + std::to_string(rep.verified_sectors) +
             " sectors, accepted reads carried " +
             std::to_string(rep.read_sectors));
      }
    }
    // Determinism: a repeated part reproduces its first rep exactly —
    // tracing and the oracle only observe, so they may change nothing.
    const Rep& first = *std::find_if(
        reps.begin(), reps.end(), [&rep](const Rep& r) { return r.part == rep.part; });
    if (&first != &rep) {
      if (!bit_identical(first.sim, rep.sim) ||
          !bit_identical(first.layers, rep.layers,
                         no_oracle ? "sim.oracle.verified_sectors" : "")) {
        fail(tag + "simulated metrics differ from the part's first rep");
      }
      continue;
    }
    for (const char* name : {"ssd.waf_half_drift", "read_p50_half_drift"}) {
      const double drift = value_of(rep.layers, name);
      if (drift > kDriftWarn) {
        std::fprintf(stderr,
                     "warning: part %u: %s = %.4f: the second half of the "
                     "measured requests differs from the first by more than "
                     "%.0f%%\n",
                     rep.part, name, drift, kDriftWarn * 100);
      }
    }
  }
  return ok;
}

int run(const Options& opt) {
  SpanLog log(opt.trace ? kDetailRequests : 0);
  std::vector<Rep> reps;
  if (opt.trace) {
    for (RepMode mode :
         {RepMode::kPlain, RepMode::kTraced, RepMode::kNoOracle}) {
      reps.push_back(run_rep(opt, 0, mode, log));
    }
  } else {
    double measured = 0;
    while (reps.size() <= kParts ||
           (measured < opt.seconds && reps.size() < kMaxReps)) {
      const auto part = static_cast<std::uint32_t>(reps.size() % kParts);
      reps.push_back(run_rep(opt, part, RepMode::kPlain, log));
      measured += reps.back().host_s;
      // Only a part's first rep feeds the pooled metrics; a repeat is
      // checked against it and its latencies are dropped.
      if (reps.size() > kParts) reps.back().tally = SimTally{};
    }
  }
  bool correct = check(reps);

  std::vector<double> host_rate, setup, gen, age, warmup;
  for (const Rep& rep : reps) {
    host_rate.push_back(static_cast<double>(rep.requests) / rep.host_s / 1e3);
    setup.push_back(rep.setup_s);
    gen.push_back(rep.gen_s);
    age.push_back(rep.age_s);
    warmup.push_back(rep.warmup_s);
  }
  SimTally pooled;
  std::uint64_t failed = 0;
  const std::size_t parts = opt.trace ? 1 : kParts;
  std::size_t reads = 0, writes = 0;
  for (std::size_t i = 0; i < parts; ++i) {
    reads += reps[i].tally.read_ns.size();
    writes += reps[i].tally.write_ns.size();
  }
  // Exact sizes: growth by doubling would make peak RSS jump with the seed.
  pooled.read_ns.reserve(reads);
  pooled.write_ns.reserve(writes);
  for (std::size_t i = 0; i < parts; ++i) {
    pooled.merge(reps[i].tally);
    failed += reps[i].failed;
  }
  std::printf("host kreq/s per rep:");
  for (double rate : host_rate) std::printf(" %.1f", rate);
  std::printf("\n");
  std::printf("workload %s, seed %llu: %zu parts pooled over %zu reps, "
              "read_n %zu, write_n %zu, %llu failed of %llu\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              parts, reps.size(), pooled.read_ns.size(),
              pooled.write_ns.size(), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(pooled.requests));

  Metrics out;
  if (opt.trace) {
    const Rep& plain = reps[0];
    const Rep& traced = reps[1];
    const Rep& bare = reps[2];
    out = plain.layers;
    const Metrics host = {
        {"trace.gen_s", median(gen), "s"},
        {"sim.age_s", median(age), "s"},
        {"sim.warmup_s", median(warmup), "s"},
        {"sim.submit_ns_p50", traced.submit_ns_p50, "ns"},
        {"sim.submit_ns_p99", traced.submit_ns_p99, "ns"},
        {"sim.pipeline.submit_ns_mean", traced.pipeline_submit_ns_mean, "ns"},
        {"sim.pipeline.drain_s", traced.pipeline_drain_s, "s"},
        {"sim.oracle_host_share", 1.0 - bare.host_s / plain.host_s, "fraction"},
        {"trace.overhead_frac", traced.host_s / plain.host_s - 1.0, "fraction"},
    };
    out.insert(out.end(), host.begin(), host.end());
    print_table("per-layer metrics of part 0 (deterministic, then host):", out);
    if (!opt.trace_out.empty()) {
      if (log.write_chrome_json(opt.trace_out, opt.workload, opt.seed)) {
        std::printf("spans: %s\n", opt.trace_out.c_str());
      } else {
        std::fprintf(stderr, "CHECK FAILED: cannot write %s\n",
                     opt.trace_out.c_str());
        correct = false;
      }
    }
  } else {
    out = sim_metrics(pooled);
    out.push_back({"host_kreq_per_s", median(host_rate), "kreq/s"});
    out.push_back({"setup_s", median(setup), "s"});
    out.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    print_table("end-to-end metrics (sim-* units are simulated time):", out);
  }
  print_json(correct, pooled.requests, failed, out);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace af::benchmark

int main(int argc, char** argv) {
  // A fixed threshold keeps every large buffer in its own mapping, returned
  // on free; glibc's default raises the threshold as buffers are freed, and
  // peak RSS then depends on allocation history (up to 5% run to run).
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  return af::benchmark::run(af::benchmark::parse(argc, argv));
}
