// Deadline-driven tail machinery end-to-end (DESIGN.md §11): bit-identity
// when the subsystem is unarmed or armed-but-never-triggered, the
// retry-backoff ladder + sick-die quarantine rescuing a fail-slow trace
// without a single kDeadlineExceeded, allocation falling back to capacity
// when every die is quarantined, the ceiling/nesting starvation guards, and
// open-loop queue-delay accounting.
#include <gtest/gtest.h>

#include <memory>

#include "../helpers.h"
#include "nand/power.h"
#include "trace/profiles.h"
#include "trace/replayer.h"
#include "trace/synth.h"

namespace af {
namespace {

constexpr ftl::SchemeKind kSchemes[] = {
    ftl::SchemeKind::kPageFtl, ftl::SchemeKind::kMrsm,
    ftl::SchemeKind::kAcrossFtl};

/// One of four dies cycling through 20x fail-slow episodes. Four dies (not
/// tiny's two) so quarantine steering has spare capacity to steer into —
/// walling off half a device wedges GC long before latency matters.
ssd::SsdConfig sick_config() {
  auto config = test::tiny_config();
  config.geometry.chips_per_channel = 2;
  config.faults.slow_multiplier = 20.0;
  config.faults.slow_episode_ops = 300;
  config.faults.slow_gap_ops = 600;
  config.faults.slow_dies = 1;
  return config;
}

TEST(Deadline, ArmedButNeverTriggeredIsBitIdentical) {
  // A deadline so large no request can bust it must leave every completion
  // time untouched: the deadline is pure bookkeeping until a miss actually
  // fires. The inert members (removed hedging and GC-debt throttle, the
  // single-threaded scheduler's worker count) must change nothing either.
  for (const auto kind : kSchemes) {
    const auto plain = test::tiny_config();
    auto armed = plain;
    armed.deadline.read_deadline_us = 1'000'000'000;   // ~17 simulated min
    armed.deadline.write_deadline_us = 1'000'000'000;
    armed.deadline.preempt = true;
    armed.deadline.quarantine_misses = 1'000'000;
    armed.deadline.hedge_after_us = 5000;
    armed.capacity.throttle_window_blocks = 2;
    armed.capacity.throttle_ns_per_block = 200'000;
    armed.pipeline.workers = 2;
    sim::Ssd a(plain, kind);
    sim::Ssd b(armed, kind);
    test::WorkloadGen gen_a(plain.logical_sectors(),
                            plain.geometry.sectors_per_page(), 7);
    test::WorkloadGen gen_b(plain.logical_sectors(),
                            plain.geometry.sectors_per_page(), 7);
    for (int i = 0; i < 1500; ++i) {
      const auto done_a = test::submit_ok(a, gen_a.next()).done;
      const auto done_b = test::submit_ok(b, gen_b.next()).done;
      ASSERT_EQ(done_a, done_b) << "request " << i;
    }
    const auto& tail = b.engine().stats().tail();
    EXPECT_EQ(tail.erase_suspends + tail.program_suspends, 0u);
    EXPECT_EQ(tail.deadline_misses, 0u);
    EXPECT_EQ(tail.deadline_retries, 0u);
    EXPECT_EQ(tail.deadline_exceeded, 0u);
    EXPECT_EQ(tail.quarantines, 0u);
  }
}

TEST(Deadline, RetryLadderAndQuarantineEliminateDeadlineExceeded) {
  // A sick die stretches reads past their budget; preemption, the retry
  // ladder and quarantine steering together must rescue every one of them —
  // the trace completes with zero kDeadlineExceeded, every read
  // oracle-verified.
  for (const auto kind : kSchemes) {
    auto config = sick_config();
    config.deadline.read_deadline_us = 30'000;
    config.deadline.max_retries = 4;
    config.deadline.retry_backoff_us = 500;
    config.deadline.preempt = true;
    config.deadline.quarantine_misses = 3;
    sim::Ssd ssd(config, kind);
    test::WorkloadGen gen(config.logical_sectors(),
                          config.geometry.sectors_per_page(), 11);
    for (int i = 0; i < 2500; ++i) {
      const auto completion = test::submit_ok(ssd, gen.next());
      ASSERT_NE(completion.status, ssd::Status::kDeadlineExceeded)
          << "request " << i;
    }
    test::verify_full_space(ssd);
    const auto& tail = ssd.engine().stats().tail();
    EXPECT_EQ(tail.deadline_exceeded, 0u);
    // The machinery must actually have been exercised, not trivially green.
    EXPECT_GT(tail.deadline_misses, 0u);
    EXPECT_GT(tail.deadline_retries, 0u);
    EXPECT_GT(tail.quarantines, 0u);
  }
}

TEST(Deadline, RetryLadderSurvivesPowerCut) {
  // Power dies mid-trace while the deadline subsystem is armed over a sick
  // die; the mounted image must verify (only the interrupted write may
  // legitimately roll back) and keep serving under the same armed config.
  for (const auto kind : kSchemes) {
    auto config = sick_config();
    config.deadline.read_deadline_us = 30'000;
    config.deadline.max_retries = 4;
    config.deadline.retry_backoff_us = 500;
    config.deadline.preempt = true;
    config.deadline.quarantine_misses = 3;
    sim::Ssd ssd(config, kind);
    test::WorkloadGen gen(config.logical_sectors(),
                          config.geometry.sectors_per_page(), 13);
    // Warm up so the cut lands on a device with live data and GC debt.
    for (int i = 0; i < 600; ++i) (void)test::submit_ok(ssd, gen.next());
    ssd.engine().array().arm_power_cut({/*at_op=*/250, /*seed=*/5});

    bool crashed = false;
    try {
      for (int i = 0; i < 2000; ++i) (void)ssd.submit(gen.next());
    } catch (const nand::PowerLoss&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed);

    // The remount re-reads every logical sector against the oracle.
    const auto mounted = sim::Ssd::remount(ssd).device;
    SimTime t = 1'000'000'000'000;
    const std::uint32_t spp = config.geometry.sectors_per_page();
    for (std::uint32_t i = 0; i < 200; ++i) {
      const auto completion = test::submit_ok(
          *mounted,
          {t, i % 3 != 0, SectorRange::of((i % 64) * spp, spp)});
      t = completion.done + 1000;
    }
  }
}

TEST(Deadline, EveryDieQuarantinedFallsBackToCapacity) {
  // Both of tiny's dies are sick for the whole run, so once each has missed
  // a deadline every plane with space sits on a quarantined die. Allocation
  // must then fall back to capacity — the first plane with space — rather
  // than declare the device full, and every write must still verify.
  for (const auto kind : kSchemes) {
    auto config = test::tiny_config();
    config.faults.slow_multiplier = 20.0;
    config.faults.slow_dies = 2;
    config.faults.slow_gap_ops = 1;
    config.faults.slow_episode_ops = 1'000'000'000'000;
    config.deadline.read_deadline_us = 1000;
    config.deadline.max_retries = 0;
    config.deadline.quarantine_misses = 1;
    sim::Ssd ssd(config, kind);
    test::WorkloadGen gen(config.logical_sectors(),
                          config.geometry.sectors_per_page(), 17);
    for (int i = 0; i < 3000; ++i) (void)test::submit_ok(ssd, gen.next());
    EXPECT_EQ(ssd.engine().stats().tail().quarantines, 2u);
    test::verify_full_space(ssd);
  }
}

TEST(Deadline, SuspendCeilingZeroRefusesEveryPreemption) {
  // Ceiling 0 is the degenerate starvation guard: every preemption attempt
  // is refused (the victim always runs to completion), counted, and no
  // suspension ever happens.
  auto config = sick_config();
  config.deadline.read_deadline_us = 500;
  config.deadline.max_retries = 0;
  config.deadline.preempt = true;
  config.deadline.suspend_ceiling = 0;
  sim::Ssd ssd(config, ftl::SchemeKind::kPageFtl);
  test::WorkloadGen gen(config.logical_sectors(),
                        config.geometry.sectors_per_page(), 19);
  for (int i = 0; i < 2000; ++i) (void)test::submit_ok(ssd, gen.next());
  const auto& tail = ssd.engine().stats().tail();
  EXPECT_GT(tail.suspend_ceiling_hits, 0u);
  EXPECT_EQ(tail.erase_suspends + tail.program_suspends, 0u);
}

TEST(Deadline, NestingCapZeroRefusesEveryPreemption) {
  // Nesting cap 0: even the first stacked read (depth 1) exceeds the cap,
  // so preemptions are refused through the other guard.
  auto config = sick_config();
  config.deadline.read_deadline_us = 500;
  config.deadline.max_retries = 0;
  config.deadline.preempt = true;
  config.deadline.suspend_nesting_cap = 0;
  sim::Ssd ssd(config, ftl::SchemeKind::kPageFtl);
  test::WorkloadGen gen(config.logical_sectors(),
                        config.geometry.sectors_per_page(), 19);
  for (int i = 0; i < 2000; ++i) (void)test::submit_ok(ssd, gen.next());
  const auto& tail = ssd.engine().stats().tail();
  EXPECT_GT(tail.suspend_nesting_hits, 0u);
  EXPECT_EQ(tail.erase_suspends + tail.program_suspends, 0u);
}

TEST(Deadline, DefaultGuardsAdmitSuspensions) {
  // With the default ceiling/nesting caps the same workload actually
  // suspends background ops — the guards bound preemption, not forbid it.
  auto config = sick_config();
  config.deadline.read_deadline_us = 500;
  config.deadline.max_retries = 0;
  config.deadline.preempt = true;
  sim::Ssd ssd(config, ftl::SchemeKind::kPageFtl);
  test::WorkloadGen gen(config.logical_sectors(),
                        config.geometry.sectors_per_page(), 19);
  for (int i = 0; i < 2000; ++i) (void)test::submit_ok(ssd, gen.next());
  const auto& tail = ssd.engine().stats().tail();
  EXPECT_GT(tail.erase_suspends + tail.program_suspends, 0u);
  EXPECT_GT(tail.resume_overhead_ns, 0u);
}

TEST(Deadline, OpenLoopReportsQueueDelaySeparately) {
  // Open-loop arrivals: the queue-delay decomposition is populated, the
  // simulated numbers are deterministic across runs, and closed-loop runs
  // of the same trace keep their delay identically zero.
  auto config = test::tiny_config();
  config.pipeline.queue_depth = 4;
  config.pipeline.open_loop = true;
  auto profile = trace::lun_profile(0, /*request_override=*/1200);
  const auto tr = trace::generate(profile, config.logical_sectors());

  const auto first =
      trace::replay_pipeline(config, ftl::SchemeKind::kPageFtl, tr);
  EXPECT_TRUE(first.open_loop);
  EXPECT_GT(first.makespan_ns, 0u);
  EXPECT_FALSE(first.queue_delay.empty());
  EXPECT_FALSE(first.service.empty());

  const auto second =
      trace::replay_pipeline(config, ftl::SchemeKind::kPageFtl, tr);
  EXPECT_EQ(first.makespan_ns, second.makespan_ns);
  EXPECT_EQ(first.queue_delay.p99_ns(), second.queue_delay.p99_ns());
  EXPECT_EQ(first.service.p99_ns(), second.service.p99_ns());

  auto closed = config;
  closed.pipeline.open_loop = false;
  const auto base =
      trace::replay_pipeline(closed, ftl::SchemeKind::kPageFtl, tr);
  EXPECT_FALSE(base.open_loop);
  // Closed-loop ignores trace arrivals: delay is recorded as identically 0.
  EXPECT_EQ(base.queue_delay.max_ns(), 0.0);
}

}  // namespace
}  // namespace af
