// Ablation — fail-slow severity x deadline policy sweep (DESIGN.md §11).
// Replays a read-mostly trace (the regime deadline scheduling targets) while
// two dies cycle through sick episodes at a growing latency multiplier, and
// prices the tail-latency machinery: a read deadline arming GC/erase
// suspend-resume and sick-die quarantine steering (preempt). The "off" rows
// double as the regression anchor: with a healthy array (x1) the preempt
// row must reproduce the off row's latencies — the machinery never fires
// without a stalled read to rescue.
#include <cstdio>
#include <iostream>

#include "common.h"
#include "trace/profiles.h"
#include "trace/synth.h"

int main() {
  using namespace af;
  auto base_config = bench::device(8);
  base_config.integrity.parity_stripe_width = 8;
  // Chip-rotating allocation in every row, as a queued host sees it (the
  // serial replay reads the pipeline config for placement only), so the
  // policy deltas are pure deadline machinery, not placement.
  base_config.pipeline.queue_depth = 2;
  bench::print_header("Ablation: fail-slow severity x deadline policy",
                      base_config);

  auto profile =
      trace::lun_profile(0, bench::knobs().requests);
  profile.name = "tail-readmostly";
  profile.write_ratio = 0.20;
  profile.mean_iat_ns = 3'000'000;
  const auto tr =
      trace::generate(profile, bench::addressable_sectors(base_config));
  // Lighter aging than the default replay: the sweep measures fail-slow
  // episodes, not GC-debt saturation.
  trace::ReplayOptions opts;
  opts.age_used = 0.60;

  struct Severity {
    const char* label;
    double multiplier;   // 1.0 = healthy array (episodes never arm)
    std::uint64_t episode_ops;
    std::uint64_t gap_ops;
  };
  const Severity severities[] = {
      {"healthy", 1.0, 0, 0},
      {"x6", 6.0, 600, 1200},
      {"x20", 20.0, 600, 1200},
  };
  std::printf("episodes: 2 dies, 600 sick / 1200 healthy ops; deadline 5 ms, "
              "quarantine after 40 misses\n\n");

  Table table({"scheme", "severity", "policy", "read p99 ms", "p999 ms",
               "suspends", "ceiling", "misses", "quarantines"});
  for (const Severity& sev : severities) {
    auto sev_config = base_config;
    sev_config.faults.slow_multiplier = sev.multiplier;
    sev_config.faults.slow_episode_ops = sev.episode_ops;
    sev_config.faults.slow_gap_ops = sev.gap_ops;
    sev_config.faults.slow_dies = 2;
    for (const bool preempt : {false, true}) {
      auto config = sev_config;
      if (preempt) {
        config.deadline.read_deadline_us = 5000;
        config.deadline.max_retries = 0;
        config.deadline.preempt = true;
        config.deadline.quarantine_misses = 40;
      }
      for (auto kind : bench::all_schemes()) {
        // af_lint: allow(bench-run-schemes) — the sweep grid is the fan-out
        // axis here; per-cell replays stay serial so rows print in order.
        const auto result = trace::replay(config, kind, tr, opts);
        const auto reads = result.stats.all_reads();
        const auto& tail = result.stats.tail();
        table.add_row(
            {result.scheme, sev.label, preempt ? "preempt" : "off",
             Table::num(reads.p99_ns() / 1e6, 2),
             Table::num(reads.p999_ns() / 1e6, 2),
             Table::num(tail.erase_suspends + tail.program_suspends),
             Table::num(tail.suspend_ceiling_hits),
             Table::num(tail.deadline_misses), Table::num(tail.quarantines)});
      }
    }
  }
  table.print(std::cout);
  return 0;
}
