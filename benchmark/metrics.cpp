#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "trace/characterize.h"

namespace af::benchmark {

namespace {

using ssd::OpKind;
using ssd::ReqClass;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// |after / before − 1|: how far the second half of a run strays from the
/// first. 0 when the first half saw nothing to compare.
double drift(double before, double after) {
  return before > 0 ? std::abs(after / before - 1.0) : 0.0;
}

std::uint64_t written_sectors(const ssd::DeviceStats& stats) {
  return stats.requests(ReqClass::kNormalWrite).total_sectors() +
         stats.requests(ReqClass::kAcrossWrite).total_sectors();
}

/// All page programs per host-written page.
double waf(std::uint64_t programs, std::uint64_t host_sectors,
           std::uint32_t sectors_per_page) {
  return ratio(static_cast<double>(programs),
               static_cast<double>(host_sectors) / sectors_per_page);
}

}  // namespace

double exact_percentile(std::vector<std::uint64_t> samples, double p) {
  if (samples.empty()) return 0;
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return static_cast<double>(*nth);
}

CounterBase CounterBase::of(const ssd::Engine& engine) {
  CounterBase base;
  base.gc_runs = engine.gc_runs();
  base.gc_perf = engine.gc_perf();
  if (const ssd::MapDirectory* dir = engine.map_directory()) {
    base.map_hits = dir->hits();
    base.map_misses = dir->misses();
    base.map_evictions = dir->evictions();
  }
  return base;
}

std::uint64_t refused_requests(const ssd::DeviceStats& stats) {
  std::uint64_t refused =
      stats.faults().rejected_writes + stats.faults().no_space_rejections;
  for (const ssd::TenantStats& t : stats.tenants()) refused += t.rejected_writes;
  return refused;
}

SimTally SimTally::take(Observed& obs, const ssd::Engine& engine) {
  const ssd::DeviceStats& stats = engine.stats();
  SimTally t;
  t.read_ns = std::move(obs.read_ns);
  t.write_ns = std::move(obs.write_ns);
  t.latency_sum_ns = obs.latency_sum_ns;
  t.requests = obs.requests;
  // A deadline miss returned intact data late; it still counts against the
  // host, like a refusal or a loss.
  t.unserved =
      refused_requests(stats) + obs.lost + stats.tail().deadline_exceeded;
  t.flash_reads = stats.flash_reads();
  t.flash_writes = stats.flash_writes();
  t.host_write_sectors = written_sectors(stats);
  t.sectors_per_page = engine.geometry().sectors_per_page();
  t.span_ns = obs.last_done - obs.first_arrival;
  return t;
}

void SimTally::merge(const SimTally& o) {
  read_ns.insert(read_ns.end(), o.read_ns.begin(), o.read_ns.end());
  write_ns.insert(write_ns.end(), o.write_ns.begin(), o.write_ns.end());
  latency_sum_ns += o.latency_sum_ns;
  requests += o.requests;
  unserved += o.unserved;
  flash_reads += o.flash_reads;
  flash_writes += o.flash_writes;
  host_write_sectors += o.host_write_sectors;
  sectors_per_page = o.sectors_per_page;
  span_ns += o.span_ns;
}

Metrics sim_metrics(const SimTally& t) {
  const auto requests = static_cast<double>(t.requests);
  const auto samples = static_cast<double>(t.read_ns.size() + t.write_ns.size());
  return {
      {"read_p50_ms", exact_percentile(t.read_ns, 50) / 1e6, "sim-ms"},
      {"read_p999_ms", exact_percentile(t.read_ns, 99.9) / 1e6, "sim-ms"},
      {"write_p50_ms", exact_percentile(t.write_ns, 50) / 1e6, "sim-ms"},
      {"write_p999_ms", exact_percentile(t.write_ns, 99.9) / 1e6, "sim-ms"},
      {"io_mean_ms",
       ratio(static_cast<double>(t.latency_sum_ns), samples) / 1e6, "sim-ms"},
      {"sim_iops", ratio(requests * 1e9, static_cast<double>(t.span_ns)),
       "req/sim-s"},
      {"waf", waf(t.flash_writes, t.host_write_sectors, t.sectors_per_page),
       "ratio"},
      {"flash_reads_per_req",
       ratio(static_cast<double>(t.flash_reads), requests), "reads/req"},
      {"served_frac", 1.0 - ratio(static_cast<double>(t.unserved), requests),
       "fraction"},
  };
}

Metrics layer_metrics(const Observed& obs, const ssd::Engine& engine,
                      const CounterBase& base, const trace::Trace& trace) {
  const ssd::DeviceStats& stats = engine.stats();
  const nand::Geometry& geom = engine.geometry();
  const double kreq = static_cast<double>(obs.requests) / 1000.0;
  auto per_kreq = [kreq](std::uint64_t n) {
    return ratio(static_cast<double>(n), kreq);
  };
  Metrics m;

  // trace: the input's properties.
  const trace::TraceStats shape =
      trace::characterize(trace, geom.sectors_per_page());
  m.push_back({"trace.across_frac", shape.across_ratio, "fraction"});
  m.push_back({"trace.write_frac", shape.write_ratio, "fraction"});

  // sim: the facade's admission, deadline and oracle machinery.
  m.push_back({"sim.oracle.verified_sectors",
               static_cast<double>(obs.verified_sectors), "count"});
  std::uint64_t stalls = 0, stall_ns = 0, rejected = 0;
  for (const ssd::TenantStats& t : stats.tenants()) {
    stalls += t.throttle_stalls;
    stall_ns += t.throttle_stall_ns;
    rejected += t.rejected_writes;
  }
  m.push_back({"sim.qos.throttle_stalls", static_cast<double>(stalls), "count"});
  m.push_back({"sim.qos.stall_s", static_cast<double>(stall_ns) / 1e9, "sim-s"});
  m.push_back({"sim.qos.rejected_writes", static_cast<double>(rejected), "count"});
  m.push_back({"sim.qos.victim_gc_pages",
               stats.tenants().empty()
                   ? 0.0
                   : static_cast<double>(stats.tenants()[0].gc_pages),
               "count"});
  const ssd::TailStats& tail = stats.tail();
  m.push_back({"sim.deadline.retries",
               static_cast<double>(tail.deadline_retries), "count"});
  m.push_back({"sim.deadline.exceeded",
               static_cast<double>(tail.deadline_exceeded), "count"});

  // ftl: what the mapping scheme did per request.
  m.push_back({"ftl.rmw_reads_per_kreq", per_kreq(stats.rmw_reads()), "1/kreq"});
  const ssd::AcrossStats& across = stats.across();
  const std::pair<const char*, std::uint64_t> across_counts[] = {
      {"direct_writes", across.direct_writes},
      {"profitable_amerge", across.profitable_amerge},
      {"unprofitable_amerge", across.unprofitable_amerge},
      {"rollbacks", across.rollbacks},
      {"shrinks", across.area_shrinks},
      {"direct_reads", across.direct_reads},
      {"merged_reads", across.merged_reads},
      {"bypassed_writes", across.bypassed_writes},
  };
  for (const auto& [name, count] : across_counts) {
    m.push_back({std::string("ftl.across.") + name + "_per_kreq",
                 per_kreq(count), "1/kreq"});
  }
  m.push_back({"ftl.dram_accesses_per_req",
               ratio(static_cast<double>(stats.dram_accesses()),
                     static_cast<double>(obs.requests)),
               "1/req"});

  // ssd: flash traffic by cause, mapping cache, GC and tail machinery.
  const std::pair<const char*, OpKind> flash_kinds[] = {
      {"data_read", OpKind::kDataRead},       {"data_write", OpKind::kDataWrite},
      {"map_read", OpKind::kMapRead},         {"map_write", OpKind::kMapWrite},
      {"gc_read", OpKind::kGcRead},           {"gc_write", OpKind::kGcWrite},
      {"rebuild_read", OpKind::kRebuildRead}, {"parity_write", OpKind::kParityWrite},
  };
  for (const auto& [name, kind] : flash_kinds) {
    m.push_back({std::string("ssd.flash.") + name + "_per_kreq",
                 per_kreq(stats.flash_ops(kind)), "1/kreq"});
  }
  m.push_back({"ssd.erases_per_kreq", per_kreq(stats.erases()), "1/kreq"});
  std::uint64_t hits = 0, misses = 0, evictions = 0;
  if (const ssd::MapDirectory* dir = engine.map_directory()) {
    hits = dir->hits() - base.map_hits;
    misses = dir->misses() - base.map_misses;
    evictions = dir->evictions() - base.map_evictions;
  }
  m.push_back({"ssd.map.hit_ratio",
               ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
               "fraction"});
  m.push_back({"ssd.map.evictions_per_kreq", per_kreq(evictions), "1/kreq"});
  const ssd::Engine::GcPerf& perf = engine.gc_perf();
  m.push_back({"ssd.gc.runs_per_kreq", per_kreq(engine.gc_runs() - base.gc_runs),
               "1/kreq"});
  m.push_back({"ssd.gc.heap_pops_per_pick",
               ratio(static_cast<double>(perf.heap_pops - base.gc_perf.heap_pops),
                     static_cast<double>(perf.victim_picks -
                                         base.gc_perf.victim_picks)),
               "ratio"});
  const std::pair<const char*, OpKind> op_kinds[] = {
      {"data_read", OpKind::kDataRead},
      {"data_write", OpKind::kDataWrite},
      {"gc_write", OpKind::kGcWrite},
  };
  for (const auto& [name, kind] : op_kinds) {
    m.push_back({std::string("ssd.op.") + name + "_mean_us",
                 stats.op_latency(kind).mean() / 1e3, "sim-us"});
  }
  m.push_back({"ssd.tail.suspends",
               static_cast<double>(tail.erase_suspends + tail.program_suspends),
               "count"});
  m.push_back({"ssd.tail.resume_overhead_ms",
               static_cast<double>(tail.resume_overhead_ns) / 1e6, "sim-ms"});
  m.push_back({"ssd.tail.hedged_reads", static_cast<double>(tail.hedged_reads),
               "count"});
  m.push_back({"ssd.tail.hedge_win_ratio",
               ratio(static_cast<double>(tail.hedge_wins),
                     static_cast<double>(tail.hedged_reads)),
               "fraction"});
  m.push_back({"ssd.tail.quarantines", static_cast<double>(tail.quarantines),
               "count"});
  m.push_back({"ssd.capacity.throttle_stalls",
               static_cast<double>(stats.faults().throttle_stalls), "count"});
  m.push_back({"ssd.capacity.stall_s",
               static_cast<double>(stats.faults().throttle_stall_ns) / 1e9,
               "sim-s"});
  // Steady state: the second half of the measured requests should look like
  // the first (the driver warns past 3%).
  const ssd::DeviceStats& half = obs.half_stats;
  const ssd::DeviceStats& all = obs.submitted_stats;
  m.push_back(
      {"ssd.waf_half_drift",
       drift(waf(half.flash_writes(), written_sectors(half),
                 geom.sectors_per_page()),
             waf(all.flash_writes() - half.flash_writes(),
                 written_sectors(all) - written_sectors(half),
                 geom.sectors_per_page())),
       "fraction"});
  const auto split = obs.read_ns.begin() +
                     static_cast<std::ptrdiff_t>(obs.first_half_reads);
  m.push_back({"read_p50_half_drift",
               drift(exact_percentile({obs.read_ns.begin(), split}, 50),
                     exact_percentile({split, obs.read_ns.end()}, 50)),
               "fraction"});

  // nand: how busy the cells were. Busy time is op counts × nominal cell
  // times (fail-slow scaling not included) over chips × makespan.
  const nand::Timing& t = engine.config().timing;
  const double busy_ns =
      static_cast<double>(stats.flash_reads()) * static_cast<double>(t.read_ns) +
      static_cast<double>(stats.flash_writes()) *
          static_cast<double>(t.program_ns) +
      static_cast<double>(stats.erases()) * static_cast<double>(t.erase_ns);
  m.push_back({"nand.chip_util",
               ratio(busy_ns, static_cast<double>(geom.total_chips()) *
                                  static_cast<double>(obs.last_done -
                                                      obs.first_arrival)),
               "fraction"});
  m.push_back({"nand.erase_spread",
               static_cast<double>(engine.array().wear().spread()), "count"});
  return m;
}

double value_of(const Metrics& metrics, const std::string& name) {
  for (const Metric& metric : metrics) {
    if (metric.name == name) return metric.value;
  }
  std::fprintf(stderr, "metric %s missing\n", name.c_str());
  std::abort();
}

}  // namespace af::benchmark
