// Wall-clock perf harness — the simulator's own speed, not the paper's
// metrics. Measures (a) trace-replay throughput per scheme in simulated
// requests per wall-clock second, with the engine's GC victim-selection work
// counters, and (b) a victim-selection microbenchmark pitting the legacy
// full-scan path (pick_victim_scan, kept as the reference implementation)
// against the incremental weight-indexed path (pick_victim) on one plane.
// Emits machine-readable BENCH_perf.json so the perf trajectory is tracked
// across PRs.
//
// Also measures (c) the checkpoint journal's no-crash overhead (DESIGN.md §7)
// — the same replay with journaling on, so the off-path cost stays visible in
// the perf trajectory — and, with --power-cut-at-op N / --power-cut-seed S,
// (d) a crash-and-remount run per scheme: power dies at flash op N (0 = seed
// a uniform op from S), the device remounts from checkpoint + OOB scan, the
// oracle sweep verifies every sector, and the recovery economics land in the
// JSON.
//
// (e) prices the data-integrity machinery (DESIGN.md §8): the same replay
// under a retention-dominated bit-error ramp with background scrub and parity
// stripes on. --scrub-budget N (pages per tick, default 8) and
// --parity-width W (stripe width incl. parity, default 8) tune the policy;
// the scrub/retry/rebuild economics land in the JSON's "reliability" section.
//
// (f) sweeps the concurrent in-flight pipeline (DESIGN.md §10) over queue
// depths (--queue-depth N, repeatable; default 1, 4, 16): per scheme, the
// closed-loop simulated throughput (requests per simulated second,
// deterministic in config x trace x QD) plus service-latency percentiles.
// The QD=1 row is the serial baseline the speedups are measured against.
//
// (g) prices the tail-latency subsystem (DESIGN.md §11): the same trace with
// a fail-slow fault model injected (sick-die episodes at a latency
// multiplier), replayed per deadline policy — off / preempt — so the read
// p99/p999 reduction from GC suspend-resume lands in the JSON's "tail"
// section.
//
// (h, --open-loop) replays through the pipeline in open-loop arrival mode:
// requests issue at their trace timestamps instead of the closed-loop QD
// window, and queueing delay is reported separately from service time.
//
// (i) prices multi-tenant QoS isolation (DESIGN.md §12): a read-mostly
// victim mixed with a write-flooding noisy neighbor, replayed per policy —
// off / streams / streams+bucket — plus a solo and a solo-mixed row whose
// numbers must match exactly (the mixer + tenant plumbing with QoS off is a
// byte-identical no-op). Lands in the JSON's "qos" section.
//
// Knobs: ACROSS_FTL_BENCH_REQS / ACROSS_FTL_BENCH_BLOCKS as everywhere, plus
//   ACROSS_FTL_PERF_JSON  output path (default BENCH_perf.json)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "ssd/engine.h"
#include "trace/mixer.h"
#include "trace/profiles.h"
#include "trace/synth.h"

namespace {

using namespace af;

// af_lint: allow-file(no-nondeterminism) — this harness measures real
// wall-clock time by design; only the simulated counters must stay
// deterministic.
double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ReplayRow {
  std::string scheme;
  double wall_s = 0;
  std::uint64_t requests = 0;
  trace::ReplayResult result;
};

struct VictimRow {
  std::uint32_t blocks = 0;
  std::uint64_t picks = 0;
  double scan_ns_per_pick = 0;
  double indexed_ns_per_pick = 0;

  [[nodiscard]] double speedup() const {
    return indexed_ns_per_pick > 0 ? scan_ns_per_pick / indexed_ns_per_pick
                                   : 0;
  }
};

/// One-plane engine filled below the GC trigger, with every other page
/// invalidated — a GC-heavy weight distribution without GC interference.
/// Returns the engine plus the valid pages left to invalidate while timing.
std::unique_ptr<ssd::Engine> victim_bench_engine(std::uint32_t blocks,
                                                 std::vector<Ppn>* leftover) {
  auto config = ssd::SsdConfig::paper(8, blocks);
  config.geometry.channels = 1;
  config.geometry.chips_per_channel = 1;
  config.geometry.dies_per_chip = 1;
  config.geometry.planes_per_die = 1;
  config.track_payload = false;
  auto engine = std::make_unique<ssd::Engine>(config);
  // A constant-full oracle forces the legacy path to rescan every page of
  // every block per pick — the O(blocks x pages) shape this PR removes.
  engine->set_victim_weight(
      [](Ppn) { return ssd::Engine::kFullPageWeight; });

  const std::uint32_t ppb = config.geometry.pages_per_block;
  const std::uint32_t fill =
      blocks - engine->plane_trigger_blocks(0) - 4;  // stay GC-free
  std::vector<Ppn> pages;
  pages.reserve(std::uint64_t{fill} * ppb);
  std::uint64_t lpn = 0;
  for (std::uint64_t i = 0; i < std::uint64_t{fill} * ppb; ++i) {
    pages.push_back(engine
                        ->flash_program(ssd::Stream::kData,
                                        nand::PageOwner::data(Lpn{lpn++}),
                                        ssd::OpKind::kDataWrite, 0)
                        .ppn);
  }
  Rng rng(21);
  leftover->clear();
  for (Ppn p : pages) {
    if (rng.chance(0.5)) {
      engine->invalidate(p);
    } else {
      leftover->push_back(p);
    }
  }
  return engine;
}

VictimRow victim_select_bench(std::uint32_t blocks, std::uint64_t max_picks) {
  VictimRow row;
  row.blocks = blocks;

  std::vector<Ppn> pages;
  std::uint64_t sink = 0;  // defeats dead-code elimination of the picks

  // Legacy full scan: identical preparation, one pick per invalidation.
  auto scan_engine = victim_bench_engine(blocks, &pages);
  row.picks = std::min<std::uint64_t>(max_picks, pages.size());
  double t0 = now_s();
  for (std::uint64_t i = 0; i < row.picks; ++i) {
    scan_engine->invalidate(pages[i]);
    sink += scan_engine->pick_victim_scan(0);
  }
  row.scan_ns_per_pick =
      (now_s() - t0) * 1e9 / static_cast<double>(row.picks);

  // Indexed path, same workload on a fresh identical engine.
  auto index_engine = victim_bench_engine(blocks, &pages);
  t0 = now_s();
  for (std::uint64_t i = 0; i < row.picks; ++i) {
    index_engine->invalidate(pages[i]);
    sink += index_engine->pick_victim(0);
  }
  row.indexed_ns_per_pick =
      (now_s() - t0) * 1e9 / static_cast<double>(row.picks);

  if (sink == 0xdeadbeef) std::printf("\n");  // keep `sink` observable
  return row;
}

struct CrashRow {
  std::string scheme;
  trace::CrashReplayResult result;
};

struct PipelineRow {
  std::string scheme;
  double wall_s = 0;
  trace::PipelineReplayResult result;
};

struct TailRow {
  std::string scheme;
  std::string policy;  // "off" | "preempt"
  double wall_s = 0;
  trace::ReplayResult result;
};

struct QosRow {
  std::string scheme;
  std::string workload;  // "solo" | "solo-mixed" | "mixed"
  std::string policy;    // "-" | "off" | "streams" | "streams+bucket"
  double wall_s = 0;
  bool mixed = false;  // per-tenant stats valid only on mixed rows
  trace::ReplayResult result;
};

void write_json(const std::string& path, const ssd::SsdConfig& config,
                const char* trace_name, const std::vector<ReplayRow>& rows,
                const std::vector<ReplayRow>& ckpt_rows,
                std::uint64_t ckpt_interval,
                const std::vector<ReplayRow>& rel_rows,
                const ssd::SsdConfig& rel_config,
                const std::vector<VictimRow>& victims,
                const std::vector<PipelineRow>& pipeline_rows,
                const std::vector<TailRow>& tail_rows,
                const ssd::SsdConfig& tail_config,
                const std::vector<PipelineRow>& open_rows,
                const std::vector<QosRow>& qos_rows,
                const ssd::SsdConfig& qos_config,
                const std::vector<CrashRow>& crashes,
                const trace::PowerCutSpec& spec) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_replay: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"config\": {\"requests\": %llu, \"blocks_per_plane\": %u, "
               "\"jobs\": %u, \"trace\": \"%s\"},\n",
               static_cast<unsigned long long>(bench::knobs().requests),
               config.geometry.blocks_per_plane, bench::knobs().jobs,
               trace_name);
  std::fprintf(f, "  \"replays\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    const auto& perf = row.result.gc_perf;
    std::fprintf(
        f,
        "    {\"scheme\": \"%s\", \"wall_s\": %.3f, "
        "\"requests_per_s\": %.0f, \"gc_runs\": %llu, "
        "\"erases\": %llu, \"victim_picks\": %llu, "
        "\"heap_pushes\": %llu, \"heap_pops\": %llu, "
        "\"heap_rebuilds\": %llu, \"scan_picks\": %llu, "
        "\"scan_blocks\": %llu}%s\n",
        row.scheme.c_str(), row.wall_s,
        static_cast<double>(row.requests) / row.wall_s,
        static_cast<unsigned long long>(row.result.gc_runs),
        static_cast<unsigned long long>(row.result.stats.erases()),
        static_cast<unsigned long long>(perf.victim_picks),
        static_cast<unsigned long long>(perf.heap_pushes),
        static_cast<unsigned long long>(perf.heap_pops),
        static_cast<unsigned long long>(perf.heap_rebuilds),
        static_cast<unsigned long long>(perf.scan_picks),
        static_cast<unsigned long long>(perf.scan_blocks),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Off-path checkpointing overhead: same trace with the journal on. wall_s
  // is noisy; io_time_s and flash_writes are the deterministic signal.
  std::fprintf(f, "  \"checkpoint_overhead\": {\"interval_requests\": %llu, "
               "\"replays\": [\n",
               static_cast<unsigned long long>(ckpt_interval));
  for (std::size_t i = 0; i < ckpt_rows.size(); ++i) {
    const auto& row = ckpt_rows[i];
    std::fprintf(
        f,
        "    {\"scheme\": \"%s\", \"wall_s\": %.3f, \"io_time_s\": %.4f, "
        "\"base_io_time_s\": %.4f, \"flash_writes\": %llu, "
        "\"base_flash_writes\": %llu}%s\n",
        row.scheme.c_str(), row.wall_s, row.result.io_time_s,
        rows[i].result.io_time_s,
        static_cast<unsigned long long>(row.result.stats.flash_writes()),
        static_cast<unsigned long long>(rows[i].result.stats.flash_writes()),
        i + 1 < ckpt_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  // Integrity machinery economics: scrub/retry/rebuild counters are fully
  // deterministic; wall_s is the only noisy field.
  std::fprintf(f,
               "  \"reliability\": {\"scrub_interval_requests\": %llu, "
               "\"scrub_budget\": %u, \"scrub_watermark\": %.2f, "
               "\"parity_width\": %u, \"replays\": [\n",
               static_cast<unsigned long long>(
                   rel_config.integrity.scrub_interval_requests),
               rel_config.integrity.scrub_pages_per_tick,
               rel_config.integrity.scrub_ber_watermark,
               rel_config.integrity.parity_stripe_width);
  for (std::size_t i = 0; i < rel_rows.size(); ++i) {
    const auto& row = rel_rows[i];
    const auto& faults = row.result.stats.faults();
    std::fprintf(
        f,
        "    {\"scheme\": \"%s\", \"wall_s\": %.3f, \"io_time_s\": %.4f, "
        "\"base_io_time_s\": %.4f, \"scrub_scans\": %llu, "
        "\"scrub_relocations\": %llu, \"read_disturb_reads\": %llu, "
        "\"ecc_retry_steps\": %llu, \"ecc_retry_recoveries\": %llu, "
        "\"uncorrectable_reads\": %llu, \"parity_writes\": %llu, "
        "\"parity_rebuilds\": %llu, \"lost_pages\": %llu, "
        "\"lost_requests\": %llu}%s\n",
        row.scheme.c_str(), row.wall_s, row.result.io_time_s,
        rows[i].result.io_time_s,
        static_cast<unsigned long long>(faults.scrub_scans),
        static_cast<unsigned long long>(faults.scrub_relocations),
        static_cast<unsigned long long>(faults.read_disturb_reads),
        static_cast<unsigned long long>(faults.ecc_retry_steps),
        static_cast<unsigned long long>(faults.ecc_retry_recoveries),
        static_cast<unsigned long long>(faults.uncorrectable_reads),
        static_cast<unsigned long long>(faults.parity_writes),
        static_cast<unsigned long long>(faults.parity_rebuilds),
        static_cast<unsigned long long>(faults.lost_pages),
        static_cast<unsigned long long>(row.result.lost_requests),
        i + 1 < rel_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  if (!crashes.empty()) {
    std::fprintf(f,
                 "  \"power_cut\": {\"at_op\": %llu, \"seed\": %llu, "
                 "\"results\": [\n",
                 static_cast<unsigned long long>(spec.at_op),
                 static_cast<unsigned long long>(spec.seed));
    for (std::size_t i = 0; i < crashes.size(); ++i) {
      const auto& c = crashes[i].result;
      const auto& rec = c.recovery;
      std::fprintf(
          f,
          "    {\"scheme\": \"%s\", \"crashed\": %s, \"cut_at_op\": %llu, "
          "\"total_ops\": %llu, \"verified_sectors\": %llu, "
          "\"used_checkpoint\": %s, \"checkpoint_pages_read\": %llu, "
          "\"blocks_scanned\": %llu, \"blocks_skipped\": %llu, "
          "\"pages_scanned\": %llu, \"claims_applied\": %llu, "
          "\"torn_pages\": %llu, \"orphans_invalidated\": %llu, "
          "\"pages_revived\": %llu, \"mount_flash_reads\": %llu, "
          "\"mount_time_ms\": %.3f}%s\n",
          crashes[i].scheme.c_str(), c.crashed ? "true" : "false",
          static_cast<unsigned long long>(c.cut_at_op),
          static_cast<unsigned long long>(c.total_ops),
          static_cast<unsigned long long>(c.verified_sectors),
          rec.used_checkpoint ? "true" : "false",
          static_cast<unsigned long long>(rec.checkpoint_pages_read),
          static_cast<unsigned long long>(rec.blocks_scanned),
          static_cast<unsigned long long>(rec.blocks_skipped),
          static_cast<unsigned long long>(rec.pages_scanned),
          static_cast<unsigned long long>(rec.claims_applied),
          static_cast<unsigned long long>(rec.torn_pages),
          static_cast<unsigned long long>(rec.orphans_invalidated),
          static_cast<unsigned long long>(rec.pages_revived),
          static_cast<unsigned long long>(rec.flash_reads),
          static_cast<double>(rec.mount_time_ns) / 1e6,
          i + 1 < crashes.size() ? "," : "");
    }
    std::fprintf(f, "  ]},\n");
  }
  // Queue-depth sweep: every number except wall_s is simulated and
  // deterministic, so the perf gate can compare them across builds. Speedup
  // is against the same scheme's QD=1 row of this run.
  std::fprintf(f, "  \"pipeline\": [\n");
  for (std::size_t i = 0; i < pipeline_rows.size(); ++i) {
    const auto& row = pipeline_rows[i];
    const auto& r = row.result;
    double base = r.sim_requests_per_s();
    for (const auto& other : pipeline_rows) {
      if (other.scheme == row.scheme && other.result.queue_depth <= 1) {
        base = other.result.sim_requests_per_s();
      }
    }
    const auto reads = r.result.stats.all_reads();
    const auto writes = r.result.stats.all_writes();
    std::fprintf(
        f,
        "    {\"scheme\": \"%s\", \"queue_depth\": %u, \"wall_s\": %.3f, "
        "\"requests\": %llu, \"makespan_ms\": %.3f, "
        "\"sim_requests_per_s\": %.1f, \"speedup_vs_qd1\": %.3f, "
        "\"read_p50_ms\": %.4f, \"read_p95_ms\": %.4f, "
        "\"read_p99_ms\": %.4f, \"read_max_ms\": %.4f, "
        "\"write_p50_ms\": %.4f, \"write_p95_ms\": %.4f, "
        "\"write_p99_ms\": %.4f, \"write_max_ms\": %.4f}%s\n",
        row.scheme.c_str(), r.queue_depth, row.wall_s,
        static_cast<unsigned long long>(r.requests),
        static_cast<double>(r.makespan_ns) / 1e6, r.sim_requests_per_s(),
        base > 0 ? r.sim_requests_per_s() / base : 0.0, reads.p50_ns() / 1e6,
        reads.p95_ns() / 1e6, reads.p99_ns() / 1e6, reads.max_ns() / 1e6,
        writes.p50_ns() / 1e6, writes.p95_ns() / 1e6, writes.p99_ns() / 1e6,
        writes.max_ns() / 1e6,
        i + 1 < pipeline_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Tail-latency chaos runs: fail-slow injected, one row per scheme x
  // deadline policy. Every number except wall_s is simulated and
  // deterministic in (config, trace); the perf gate fences the read p99.
  // p99_vs_off is this row's read p99 relative to the same scheme's
  // policy=off row — the measured tail reduction.
  std::fprintf(f,
               "  \"tail\": {\"slow_multiplier\": %.2f, "
               "\"slow_episode_ops\": %llu, \"slow_gap_ops\": %llu, "
               "\"slow_dies\": %u, \"read_deadline_us\": %llu, "
               "\"quarantine_misses\": %u, \"replays\": [\n",
               tail_config.faults.slow_multiplier,
               static_cast<unsigned long long>(
                   tail_config.faults.slow_episode_ops),
               static_cast<unsigned long long>(tail_config.faults.slow_gap_ops),
               tail_config.faults.slow_dies,
               static_cast<unsigned long long>(
                   tail_config.deadline.read_deadline_us),
               tail_config.deadline.quarantine_misses);
  for (std::size_t i = 0; i < tail_rows.size(); ++i) {
    const auto& row = tail_rows[i];
    const auto reads = row.result.stats.all_reads();
    double off_p99 = 0;
    for (const auto& other : tail_rows) {
      if (other.scheme == row.scheme && other.policy == "off") {
        off_p99 = other.result.stats.all_reads().p99_ns();
      }
    }
    const auto& tail = row.result.stats.tail();
    const auto& gc_reads = row.result.stats.op_latency(ssd::OpKind::kGcRead);
    std::fprintf(
        f,
        "    {\"scheme\": \"%s\", \"policy\": \"%s\", \"wall_s\": %.3f, "
        "\"read_p50_ms\": %.4f, \"read_p99_ms\": %.4f, "
        "\"read_p999_ms\": %.4f, \"read_max_ms\": %.4f, "
        "\"p99_vs_off\": %.3f, \"gc_read_p99_ms\": %.4f, "
        "\"erase_suspends\": %llu, "
        "\"program_suspends\": %llu, \"resume_overhead_ms\": %.3f, "
        "\"ceiling_hits\": %llu, \"nesting_hits\": %llu, "
        "\"deadline_misses\": %llu, \"deadline_retries\": %llu, "
        "\"deadline_exceeded\": %llu, \"quarantines\": %llu, "
        "\"unquarantines\": %llu}%s\n",
        row.scheme.c_str(), row.policy.c_str(), row.wall_s,
        reads.p50_ns() / 1e6, reads.p99_ns() / 1e6, reads.p999_ns() / 1e6,
        reads.max_ns() / 1e6,
        off_p99 > 0 ? reads.p99_ns() / off_p99 : 0.0,
        gc_reads.percentile(99) / 1e6,
        static_cast<unsigned long long>(tail.erase_suspends),
        static_cast<unsigned long long>(tail.program_suspends),
        static_cast<double>(tail.resume_overhead_ns) / 1e6,
        static_cast<unsigned long long>(tail.suspend_ceiling_hits),
        static_cast<unsigned long long>(tail.suspend_nesting_hits),
        static_cast<unsigned long long>(tail.deadline_misses),
        static_cast<unsigned long long>(tail.deadline_retries),
        static_cast<unsigned long long>(tail.deadline_exceeded),
        static_cast<unsigned long long>(tail.quarantines),
        static_cast<unsigned long long>(tail.unquarantines),
        i + 1 < tail_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  if (!open_rows.empty()) {
    // Open-loop arrivals: queueing delay priced separately from service
    // time. Simulated numbers are deterministic in (config, trace) and
    // independent of queue depth by construction.
    std::fprintf(f, "  \"open_loop\": [\n");
    for (std::size_t i = 0; i < open_rows.size(); ++i) {
      const auto& r = open_rows[i].result;
      std::fprintf(
          f,
          "    {\"scheme\": \"%s\", \"wall_s\": %.3f, \"requests\": %llu, "
          "\"makespan_ms\": %.3f, \"queue_p50_ms\": %.4f, "
          "\"queue_p99_ms\": %.4f, \"queue_max_ms\": %.4f, "
          "\"service_p50_ms\": %.4f, \"service_p99_ms\": %.4f, "
          "\"service_p999_ms\": %.4f}%s\n",
          open_rows[i].scheme.c_str(), open_rows[i].wall_s,
          static_cast<unsigned long long>(r.requests),
          static_cast<double>(r.makespan_ns) / 1e6,
          r.queue_delay.p50_ns() / 1e6, r.queue_delay.p99_ns() / 1e6,
          r.queue_delay.max_ns() / 1e6, r.service.p50_ns() / 1e6,
          r.service.p99_ns() / 1e6, r.service.p999_ns() / 1e6,
          i + 1 < open_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
  }
  // Multi-tenant QoS isolation: per-tenant tails and GC interference per
  // policy. Simulated numbers are deterministic in (config, traces); the
  // perf gate fences the solo == solo-mixed bit-identity pair and the
  // noisy-neighbor containment (streams+bucket must not be worse than off).
  std::fprintf(f,
               "  \"qos\": {\"rate_sectors_per_s\": %llu, "
               "\"burst_sectors\": %llu, \"gc_debt_sectors_per_page\": %u, "
               "\"capacity_share_millis\": %u, \"replays\": [\n",
               static_cast<unsigned long long>(
                   qos_config.qos.rate_sectors_per_s),
               static_cast<unsigned long long>(qos_config.qos.burst_sectors),
               qos_config.qos.gc_debt_sectors_per_page,
               qos_config.qos.capacity_share_millis);
  for (std::size_t i = 0; i < qos_rows.size(); ++i) {
    const auto& row = qos_rows[i];
    double victim_p99 = 0, victim_mean = 0, victim_waf = 0, noisy_p99 = 0,
           noisy_waf = 0;
    std::uint64_t victim_gc = 0, stalls = 0, rejected = 0;
    if (row.mixed) {
      const auto& victim = row.result.stats.tenants()[0];
      const auto& noisy = row.result.stats.tenants()[1];
      victim_p99 = victim.read_latency.p99_ns();
      victim_mean = victim.read_latency.latency().mean();
      victim_waf = victim.waf();
      victim_gc = victim.gc_pages;
      noisy_p99 = noisy.read_latency.p99_ns();
      noisy_waf = noisy.waf();
      stalls = noisy.throttle_stalls;
      rejected = noisy.rejected_writes;
    } else {
      const auto reads = row.result.stats.all_reads();
      victim_p99 = reads.p99_ns();
      victim_mean = reads.latency().mean();
    }
    std::fprintf(
        f,
        "    {\"scheme\": \"%s\", \"workload\": \"%s\", "
        "\"policy\": \"%s\", \"wall_s\": %.3f, "
        "\"victim_read_p99_ms\": %.4f, \"victim_read_mean_ms\": %.4f, "
        "\"victim_waf\": %.4f, \"victim_gc_pages\": %llu, "
        "\"noisy_read_p99_ms\": %.4f, \"noisy_waf\": %.4f, "
        "\"throttle_stalls\": %llu, \"rejected_writes\": %llu}%s\n",
        row.scheme.c_str(), row.workload.c_str(), row.policy.c_str(),
        row.wall_s, victim_p99 / 1e6, victim_mean / 1e6, victim_waf,
        static_cast<unsigned long long>(victim_gc), noisy_p99 / 1e6,
        noisy_waf, static_cast<unsigned long long>(stalls),
        static_cast<unsigned long long>(rejected),
        i + 1 < qos_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  std::fprintf(f, "  \"victim_select\": [\n");
  for (std::size_t i = 0; i < victims.size(); ++i) {
    const auto& v = victims[i];
    std::fprintf(f,
                 "    {\"blocks_per_plane\": %u, \"picks\": %llu, "
                 "\"scan_ns_per_pick\": %.1f, \"indexed_ns_per_pick\": %.1f, "
                 "\"speedup\": %.2f}%s\n",
                 v.blocks, static_cast<unsigned long long>(v.picks),
                 v.scan_ns_per_pick, v.indexed_ns_per_pick, v.speedup(),
                 i + 1 < victims.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  trace::PowerCutSpec spec;
  bool power_cut = false;
  bool open_loop = false;
  std::uint32_t scrub_budget = 8;
  std::uint32_t parity_width = 8;
  std::vector<std::uint32_t> queue_depths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--power-cut-at-op" && i + 1 < argc) {
      spec.at_op = std::strtoull(argv[++i], nullptr, 10);
      power_cut = true;
    } else if (arg == "--power-cut-seed" && i + 1 < argc) {
      spec.seed = std::strtoull(argv[++i], nullptr, 10);
      power_cut = true;
    } else if (arg == "--scrub-budget" && i + 1 < argc) {
      scrub_budget =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--parity-width" && i + 1 < argc) {
      parity_width =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--queue-depth" && i + 1 < argc) {
      queue_depths.push_back(
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10)));
    } else if (arg == "--open-loop") {
      open_loop = true;
    } else {
      std::fprintf(stderr,
                   "usage: perf_replay [--power-cut-at-op N] "
                   "[--power-cut-seed S] [--scrub-budget P] "
                   "[--parity-width W] [--queue-depth D]... [--open-loop]\n"
                   "  N = 1-based flash op to kill power at "
                   "(0 = sample uniformly from S)\n"
                   "  P = scrub pages per tick for section (e), default 8\n"
                   "  W = parity stripe width incl. parity, default 8 "
                   "(0/1 = parity off)\n"
                   "  D = queue depths for the pipeline sweep (f), "
                   "repeatable; default 1 4 16\n"
                   "  --open-loop adds section (h): pipeline replay issuing "
                   "at trace timestamps,\n"
                   "  reporting queueing delay separately from service "
                   "time\n");
      return 2;
    }
  }
  if (queue_depths.empty()) queue_depths = {1, 4, 16};

  const auto config = bench::device(8);
  bench::print_header("perf_replay: simulator wall-clock performance", config);
  const auto addressable = bench::addressable_sectors(config);

  // (a) Replay throughput, one scheme at a time so each timing is clean.
  const char* trace_name = trace::table2_targets()[0].name;
  const auto tr = bench::lun_trace(0, addressable);
  std::vector<ReplayRow> rows;
  Table replays({"scheme", "wall (s)", "req/s", "GC runs", "victim picks",
                 "heap pushes", "heap pops"});
  for (auto kind : bench::all_schemes()) {
    ReplayRow row;
    row.requests = tr.size();
    const double t0 = now_s();
    // af_lint: allow(bench-run-schemes) — replays are timed one at a time on
    // purpose: fanning them out would overlap the wall-clock measurements.
    row.result = trace::replay(config, kind, tr);
    row.wall_s = now_s() - t0;
    row.scheme = row.result.scheme;
    replays.add_row(
        {row.scheme, Table::num(row.wall_s, 2),
         Table::num(static_cast<double>(row.requests) / row.wall_s, 0),
         Table::num(row.result.gc_runs), Table::num(row.result.gc_perf.victim_picks),
         Table::num(row.result.gc_perf.heap_pushes),
         Table::num(row.result.gc_perf.heap_pops)});
    rows.push_back(std::move(row));
  }
  std::printf("(a) trace-replay throughput (trace %s)\n", trace_name);
  replays.print(std::cout);

  // (c) Checkpointing overhead on the no-crash path: same replay with the
  // mapping journal on. Must stay within noise of the base rows.
  constexpr std::uint64_t kCkptInterval = 64;
  auto ckpt_config = config;
  ckpt_config.checkpoint.interval_requests = kCkptInterval;
  std::vector<ReplayRow> ckpt_rows;
  Table ckpt_table({"scheme", "wall (s)", "io time s", "base io s",
                    "flash writes", "base writes"});
  for (std::size_t s = 0; s < bench::all_schemes().size(); ++s) {
    ReplayRow row;
    row.requests = tr.size();
    const double t0 = now_s();
    // af_lint: allow(bench-run-schemes) — timed one at a time, same as (a).
    row.result = trace::replay(ckpt_config, bench::all_schemes()[s], tr);
    row.wall_s = now_s() - t0;
    row.scheme = row.result.scheme;
    ckpt_table.add_row(
        {row.scheme, Table::num(row.wall_s, 2),
         Table::num(row.result.io_time_s, 3),
         Table::num(rows[s].result.io_time_s, 3),
         Table::num(row.result.stats.flash_writes()),
         Table::num(rows[s].result.stats.flash_writes())});
    ckpt_rows.push_back(std::move(row));
  }
  std::printf("\n(c) checkpoint journal overhead (interval %llu requests)\n",
              static_cast<unsigned long long>(kCkptInterval));
  ckpt_table.print(std::cout);

  // (e) Reliability machinery: the same replay under a retention-dominated
  // bit-error ramp, background scrub and parity stripes on. All counters are
  // deterministic in (config, trace); wall_s is the only noisy column.
  auto rel_config = config;
  rel_config.faults.ber_base = 0.5;
  rel_config.faults.ber_retention = 0.08;
  rel_config.faults.ber_read_disturb = 0.02;
  rel_config.integrity.scrub_interval_requests = 64;
  rel_config.integrity.scrub_pages_per_tick = scrub_budget;
  rel_config.integrity.parity_stripe_width = parity_width;
  std::vector<ReplayRow> rel_rows;
  Table rel_table({"scheme", "wall (s)", "io time s", "base io s",
                   "scrub scans", "refreshed", "retry saves", "rebuilds",
                   "uncorrectable", "lost reqs"});
  for (std::size_t s = 0; s < bench::all_schemes().size(); ++s) {
    ReplayRow row;
    row.requests = tr.size();
    const double t0 = now_s();
    // af_lint: allow(bench-run-schemes) — timed one at a time, same as (a).
    row.result = trace::replay(rel_config, bench::all_schemes()[s], tr);
    row.wall_s = now_s() - t0;
    row.scheme = row.result.scheme;
    const auto& faults = row.result.stats.faults();
    rel_table.add_row(
        {row.scheme, Table::num(row.wall_s, 2),
         Table::num(row.result.io_time_s, 3),
         Table::num(rows[s].result.io_time_s, 3),
         Table::num(faults.scrub_scans), Table::num(faults.scrub_relocations),
         Table::num(faults.ecc_retry_recoveries),
         Table::num(faults.parity_rebuilds),
         Table::num(faults.uncorrectable_reads),
         Table::num(row.result.lost_requests)});
    rel_rows.push_back(std::move(row));
  }
  std::printf("\n(e) data-integrity machinery (scrub budget %u, parity "
              "width %u)\n",
              scrub_budget, parity_width);
  rel_table.print(std::cout);

  // (d) Optional crash-and-remount run (flags): recovery economics per
  // scheme, oracle-verified by the harness as it sweeps.
  std::vector<CrashRow> crashes;
  if (power_cut) {
    auto crash_config = ckpt_config;
    crash_config.track_payload = true;  // the sweep needs the oracle stamps
    const auto results = bench::run_crash_schemes(crash_config, tr, spec);
    Table crash_table({"scheme", "cut at op", "total ops", "ckpt", "scanned",
                       "skipped", "oob pages", "torn", "mount ms",
                       "verified sectors"});
    for (std::size_t s = 0; s < results.size(); ++s) {
      CrashRow row{ftl::to_string(bench::all_schemes()[s]), results[s]};
      const auto& rec = row.result.recovery;
      crash_table.add_row(
          {row.scheme, Table::num(row.result.cut_at_op),
           Table::num(row.result.total_ops),
           rec.used_checkpoint ? "yes" : "no", Table::num(rec.blocks_scanned),
           Table::num(rec.blocks_skipped), Table::num(rec.pages_scanned),
           Table::num(rec.torn_pages),
           Table::num(static_cast<double>(rec.mount_time_ns) / 1e6, 2),
           Table::num(row.result.verified_sectors)});
      crashes.push_back(std::move(row));
    }
    std::printf("\n(d) power cut at op %llu (seed %llu), remount + oracle "
                "sweep\n",
                static_cast<unsigned long long>(spec.at_op),
                static_cast<unsigned long long>(spec.seed));
    crash_table.print(std::cout);
  }

  // (f) Pipeline queue-depth sweep: closed-loop simulated throughput per
  // scheme. Simulated numbers are deterministic in (config, trace, QD);
  // wall_s is the only noisy column.
  std::vector<PipelineRow> pipeline_rows;
  Table qd_table({"scheme", "QD", "req/sim-s", "speedup", "read p50 ms",
                  "read p99 ms", "write p50 ms", "write p99 ms", "wall (s)"});
  for (auto kind : bench::all_schemes()) {
    double base = 0;
    for (std::uint32_t qd : queue_depths) {
      PipelineRow row;
      auto qd_config = config;
      qd_config.pipeline.queue_depth = qd;
      const double t0 = now_s();
      // af_lint: allow(bench-run-schemes) — timed one at a time, same as (a).
      row.result = trace::replay_pipeline(qd_config, kind, tr);
      row.wall_s = now_s() - t0;
      row.scheme = row.result.result.scheme;
      const double rps = row.result.sim_requests_per_s();
      if (qd <= 1 || base == 0) base = qd <= 1 ? rps : base;
      const auto reads = row.result.result.stats.all_reads();
      const auto writes = row.result.result.stats.all_writes();
      qd_table.add_row(
          {row.scheme, Table::num(std::uint64_t{qd}), Table::num(rps, 0),
           Table::num(base > 0 ? rps / base : 0.0, 2) + "x",
           Table::num(reads.p50_ns() / 1e6, 2),
           Table::num(reads.p99_ns() / 1e6, 2),
           Table::num(writes.p50_ns() / 1e6, 2),
           Table::num(writes.p99_ns() / 1e6, 2), Table::num(row.wall_s, 2)});
      pipeline_rows.push_back(std::move(row));
    }
  }
  std::printf("\n(f) pipeline queue-depth sweep (simulated closed-loop "
              "throughput)\n");
  qd_table.print(std::cout);

  // (g) Tail-latency chaos: a read-mostly, moderately loaded variant of the
  // trace — the regime deadline scheduling targets; a write-saturated device
  // is program-bound and host programs are never suspended — under an
  // injected fail-slow fault model: two dies cycling through sick episodes
  // at a 6x latency multiplier, per deadline policy. Parity stripes are on
  // in every row so placement is identical and the rows differ only in the
  // deadline machinery; the retry ladder is off (max_retries = 0) so
  // recorded latencies compare the policies directly rather than folding
  // re-issue time into the tail. All counters are deterministic in
  // (config, trace).
  auto tail_profile = trace::lun_profile(0, bench::knobs().requests);
  tail_profile.name = "tail-readmostly";
  tail_profile.write_ratio = 0.20;
  tail_profile.mean_iat_ns = 3'000'000;
  const auto tail_tr = trace::generate(tail_profile, addressable);
  auto tail_base = config;
  tail_base.integrity.parity_stripe_width = parity_width;
  // Chip-rotating allocation in every row, as a queued host sees it, so the
  // policy deltas are pure deadline machinery, not placement. The serial
  // replay reads pipeline config for placement only.
  tail_base.pipeline.queue_depth = 2;
  tail_base.faults.slow_multiplier = 20.0;
  tail_base.faults.slow_episode_ops = 600;
  tail_base.faults.slow_gap_ops = 1200;
  tail_base.faults.slow_dies = 2;
  auto tail_armed = tail_base;
  tail_armed.deadline.read_deadline_us = 5000;
  tail_armed.deadline.max_retries = 0;
  tail_armed.deadline.quarantine_misses = 40;
  tail_armed.deadline.preempt = true;
  std::vector<TailRow> tail_rows;
  Table tail_table({"scheme", "policy", "read p99 ms", "p999 ms", "vs off",
                    "suspends", "quarantines", "wall (s)"});
  for (auto kind : bench::all_schemes()) {
    double off_p99 = 0;
    for (const bool preempt : {false, true}) {
      TailRow row;
      row.policy = preempt ? "preempt" : "off";
      const auto& tail_config = preempt ? tail_armed : tail_base;
      const double t0 = now_s();
      // Lighter aging than the default replay: the chaos rows measure
      // fail-slow episodes, not GC-debt saturation, so the device starts
      // with headroom and background reclamation stays sporadic.
      trace::ReplayOptions tail_opts;
      tail_opts.age_used = 0.60;
      // af_lint: allow(bench-run-schemes) — timed one at a time, same as (a).
      row.result = trace::replay(tail_config, kind, tail_tr, tail_opts);
      row.wall_s = now_s() - t0;
      row.scheme = row.result.scheme;
      const auto reads = row.result.stats.all_reads();
      if (!preempt) off_p99 = reads.p99_ns();
      const auto& tail = row.result.stats.tail();
      tail_table.add_row(
          {row.scheme, row.policy, Table::num(reads.p99_ns() / 1e6, 2),
           Table::num(reads.p999_ns() / 1e6, 2),
           Table::num(off_p99 > 0 ? reads.p99_ns() / off_p99 : 1.0, 2) + "x",
           Table::num(tail.erase_suspends + tail.program_suspends),
           Table::num(tail.quarantines), Table::num(row.wall_s, 2)});
      tail_rows.push_back(std::move(row));
    }
  }
  std::printf("\n(g) tail-latency chaos (fail-slow x%.0f, deadline %llu us)\n",
              tail_base.faults.slow_multiplier,
              static_cast<unsigned long long>(
                  tail_armed.deadline.read_deadline_us));
  tail_table.print(std::cout);

  // (h, --open-loop) Open-loop arrivals through the pipeline: requests issue
  // at their trace timestamps, queueing delay reported separately from
  // service time. Simulated numbers are QD-independent by construction.
  std::vector<PipelineRow> open_rows;
  if (open_loop) {
    Table ol_table({"scheme", "queue p50 ms", "queue p99 ms", "service p50 ms",
                    "service p99 ms", "wall (s)"});
    for (auto kind : bench::all_schemes()) {
      PipelineRow row;
      auto ol_config = config;
      ol_config.pipeline.open_loop = true;
      ol_config.pipeline.queue_depth = 16;  // wall-clock only in open loop
      const double t0 = now_s();
      // af_lint: allow(bench-run-schemes) — timed one at a time, same as (a).
      row.result = trace::replay_pipeline(ol_config, kind, tr);
      row.wall_s = now_s() - t0;
      row.scheme = row.result.result.scheme;
      ol_table.add_row(
          {row.scheme, Table::num(row.result.queue_delay.p50_ns() / 1e6, 3),
           Table::num(row.result.queue_delay.p99_ns() / 1e6, 3),
           Table::num(row.result.service.p50_ns() / 1e6, 3),
           Table::num(row.result.service.p99_ns() / 1e6, 3),
           Table::num(row.wall_s, 2)});
      open_rows.push_back(std::move(row));
    }
    std::printf("\n(h) open-loop arrivals (trace timestamps, queueing "
                "priced separately)\n");
    ol_table.print(std::cout);
  }

  // (i) Multi-tenant QoS isolation: victim + noisy neighbor per policy,
  // bracketed by the solo / solo-mixed bit-identity pair. Workload shape
  // mirrors bench/ablate_tenants: a small hot noisy footprint so relocation
  // picks blocks written during the run, aging deep enough that GC stays
  // live. All simulated numbers are deterministic in (config, traces).
  auto qos_victim_profile = trace::lun_profile(0, bench::knobs().requests);
  qos_victim_profile.name = "qos-victim";
  qos_victim_profile.write_ratio = 0.20;
  qos_victim_profile.mean_iat_ns = 3'000'000;
  qos_victim_profile.footprint_fraction = 0.5;
  const auto qos_victim_tr = trace::generate(qos_victim_profile, addressable);
  auto qos_noisy_profile = trace::lun_profile(1, bench::knobs().requests);
  qos_noisy_profile.name = "qos-noisy";
  qos_noisy_profile.write_ratio = 0.90;
  qos_noisy_profile.mean_iat_ns = 300'000;
  qos_noisy_profile.footprint_fraction = 0.08;
  qos_noisy_profile.zipf_theta = 1.1;
  const auto qos_noisy_tr = trace::generate(qos_noisy_profile, addressable);
  const auto qos_mixed_tr = trace::mix({qos_victim_tr, qos_noisy_tr});
  const auto qos_solo_mixed_tr = trace::mix({qos_victim_tr});
  trace::ReplayOptions qos_opts;
  qos_opts.age_used = 0.85;
  auto qos_armed = config;
  qos_armed.qos.tenants = 2;
  qos_armed.qos.per_tenant_streams = true;
  qos_armed.qos.rate_sectors_per_s = 8'000;
  qos_armed.qos.burst_sectors = 2'000;
  qos_armed.qos.gc_debt_sectors_per_page = 16;
  qos_armed.qos.capacity_share_millis = 600;
  struct QosPolicyRow {
    const char* name;
    bool streams;
    bool bucket;
  };
  constexpr QosPolicyRow kQosPolicies[] = {{"off", false, false},
                                           {"streams", true, false},
                                           {"streams+bucket", true, true}};
  std::vector<QosRow> qos_rows;
  Table qos_table({"scheme", "workload", "policy", "victim p99 ms",
                   "victim mean ms", "victim WAF", "victim GC", "noisy p99 ms",
                   "stalls", "wall (s)"});
  for (auto kind : bench::all_schemes()) {
    const struct {
      const char* workload;
      const trace::Trace* tr;
    } solo_pair[] = {{"solo", &qos_victim_tr}, {"solo-mixed", &qos_solo_mixed_tr}};
    for (const auto& sp : solo_pair) {
      QosRow row;
      row.workload = sp.workload;
      row.policy = "-";
      const double t0 = now_s();
      // af_lint: allow(bench-run-schemes) — timed one at a time, same as (a).
      row.result = trace::replay(config, kind, *sp.tr, qos_opts);
      row.wall_s = now_s() - t0;
      row.scheme = row.result.scheme;
      const auto reads = row.result.stats.all_reads();
      qos_table.add_row({row.scheme, row.workload, row.policy,
                         Table::num(reads.p99_ns() / 1e6, 2),
                         Table::num(reads.latency().mean() / 1e6, 2), "-", "-",
                         "-", "-", Table::num(row.wall_s, 2)});
      qos_rows.push_back(std::move(row));
    }
    for (const auto& policy : kQosPolicies) {
      QosRow row;
      row.workload = "mixed";
      row.policy = policy.name;
      row.mixed = true;
      auto qos_config = config;
      qos_config.qos.tenants = 2;
      qos_config.qos.per_tenant_streams = policy.streams;
      if (policy.bucket) qos_config.qos = qos_armed.qos;
      const double t0 = now_s();
      // af_lint: allow(bench-run-schemes) — timed one at a time, same as (a).
      row.result = trace::replay(qos_config, kind, qos_mixed_tr, qos_opts);
      row.wall_s = now_s() - t0;
      row.scheme = row.result.scheme;
      const auto& victim = row.result.stats.tenants()[0];
      const auto& noisy = row.result.stats.tenants()[1];
      qos_table.add_row(
          {row.scheme, row.workload, row.policy,
           Table::num(victim.read_latency.p99_ns() / 1e6, 2),
           Table::num(victim.read_latency.latency().mean() / 1e6, 2),
           Table::num(victim.waf(), 2), Table::num(victim.gc_pages),
           Table::num(noisy.read_latency.p99_ns() / 1e6, 2),
           Table::num(noisy.throttle_stalls), Table::num(row.wall_s, 2)});
      qos_rows.push_back(std::move(row));
    }
  }
  std::printf("\n(i) multi-tenant QoS isolation (victim + noisy neighbor)\n");
  qos_table.print(std::cout);

  // (b) Victim selection: legacy scan vs weight index, per pick.
  std::vector<VictimRow> victims;
  Table picks({"blocks/plane", "picks", "scan ns/pick", "indexed ns/pick",
               "speedup"});
  for (std::uint32_t blocks :
       {bench::knobs().blocks_per_plane, 8 * bench::knobs().blocks_per_plane}) {
    const auto v = victim_select_bench(blocks, 2000);
    picks.add_row({Table::num(std::uint64_t{v.blocks}), Table::num(v.picks),
                   Table::num(v.scan_ns_per_pick, 1),
                   Table::num(v.indexed_ns_per_pick, 1),
                   Table::num(v.speedup(), 2) + "x"});
    victims.push_back(v);
  }
  std::printf("\n(b) GC victim selection, one plane (scan = legacy path)\n");
  picks.print(std::cout);

  // getenv after the pool has been joined; no concurrent env access.
  const char* json =
      std::getenv("ACROSS_FTL_PERF_JSON");  // NOLINT(concurrency-mt-unsafe)
  write_json(json != nullptr ? json : "BENCH_perf.json", config, trace_name,
             rows, ckpt_rows, kCkptInterval, rel_rows, rel_config, victims,
             pipeline_rows, tail_rows, tail_armed, open_rows, qos_rows,
             qos_armed, crashes, spec);
  return 0;
}
