// Capacity-pressure behavior under every scheme (DESIGN.md §9): a device
// filled past what GC can sustain refuses writes with Status::kNoSpace
// instead of crashing or live-locking, TRIM restores admissibility, wear
// leveling narrows the erase spread, and a power cut taken at full pressure
// mounts back to the same admission state with all data intact.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ftl/across_ftl.h"
#include "nand/power.h"
#include "sim/ssd.h"
#include "../helpers.h"

namespace af {
namespace {

/// Tiny device exporting nearly all raw capacity: with only ~3% slack the
/// admission guard must engage long before GC is starved.
ssd::SsdConfig pressure_config() {
  auto config = test::tiny_config();
  config.exported_fraction = 0.97;
  return config;
}

ftl::IoRequest write_req(SimTime t, SectorAddr off, SectorCount len) {
  return {t, /*write=*/true, SectorRange::of(off, len)};
}

ftl::IoRequest trim_req(SimTime t, SectorAddr off, SectorCount len) {
  return {t, /*write=*/false, SectorRange::of(off, len), /*trim=*/true};
}

class CapacityPressure : public ::testing::TestWithParam<ftl::SchemeKind> {};

TEST_P(CapacityPressure, FillRejectsTrimRecovers) {
  const auto config = pressure_config();
  const std::uint32_t spp = config.geometry.sectors_per_page();
  const std::uint64_t pages = config.logical_sectors() / spp;
  sim::Ssd ssd(config, GetParam());

  // Sweep the full logical space until some write bounces with kNoSpace.
  // Everything accepted before that point must stay readable; the device
  // must never throw or lose data.
  SimTime t = 1;
  std::uint64_t filled = 0;
  bool rejected = false;
  for (std::uint64_t round = 0; round < 4 && !rejected; ++round) {
    for (std::uint64_t p = 0; p < pages; ++p) {
      const auto completion = ssd.submit(write_req(t++, p * spp, spp));
      if (!completion.accepted) {
        EXPECT_EQ(completion.status, ssd::Status::kNoSpace);
        rejected = true;
        break;
      }
      filled = std::max(filled, p + 1);
    }
  }
  ASSERT_TRUE(rejected) << "97% exported never hit the admission guard";
  EXPECT_GT(ssd.stats().faults().no_space_rejections, 0u);
  EXPECT_FALSE(ssd.engine().read_only());

  // Reads still work at full pressure (oracle verifies payloads).
  for (std::uint64_t p = 0; p < filled; ++p) {
    (void)test::submit_ok(
        ssd, {t++, /*write=*/false, SectorRange::of(p * spp, spp)});
  }

  // Trim a quarter of the space: admission must clear...
  (void)test::submit_ok(ssd, trim_req(t++, 0, (pages / 4) * spp));
  // ...and writes into the trimmed span succeed again.
  for (std::uint64_t p = 0; p < pages / 8; ++p) {
    (void)test::submit_ok(ssd, write_req(t++, p * spp, spp));
  }

  if (auto* across = dynamic_cast<ftl::AcrossFtl*>(&ssd.scheme())) {
    across->check_invariants();
  }
}

TEST_P(CapacityPressure, PowerCutAtFullPressure) {
  // Crash while the device sits at the admission ceiling; the mount must
  // reproduce the same pressure state: acknowledged data verifies, and the
  // freshly computed admission decision still refuses new writes until a
  // trim clears room.
  const auto config = pressure_config();
  const std::uint32_t spp = config.geometry.sectors_per_page();
  const std::uint64_t pages = config.logical_sectors() / spp;

  auto ssd = std::make_unique<sim::Ssd>(config, GetParam());
  SimTime t = 1;
  bool rejected = false;
  for (std::uint64_t round = 0; round < 4 && !rejected; ++round) {
    for (std::uint64_t p = 0; p < pages; ++p) {
      const auto completion = ssd->submit(write_req(t++, p * spp, spp));
      if (!completion.accepted) {
        rejected = true;
        break;
      }
    }
  }
  ASSERT_TRUE(rejected);

  // Rejected writes change no state, so the cut must land inside flash
  // traffic that still exists at the ceiling: overwrites of live pages are
  // admitted (they add no net live data) — run those until power dies.
  ssd->engine().array().arm_power_cut({40, /*seed=*/11});
  bool crashed = false;
  SectorRange inflight{};
  std::vector<std::uint64_t> pre_stamps;
  try {
    for (std::uint64_t p = 0; p < pages; ++p) {
      const auto req = write_req(t++, (p % (pages / 2)) * spp, spp);
      pre_stamps.clear();
      for (SectorAddr s = req.range.begin; s < req.range.end; ++s) {
        pre_stamps.push_back(ssd->oracle()->expected(s));
      }
      inflight = req.range;
      (void)ssd->submit(req);
    }
  } catch (const nand::PowerLoss&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);

  auto mounted = test::crash_mount(std::move(ssd), config, GetParam(),
                                   inflight, pre_stamps);

  // All acknowledged data intact.
  SimTime rt = t + 1'000'000;
  for (std::uint64_t p = 0; p < pages; ++p) {
    (void)test::submit_ok(
        *mounted, {rt++, /*write=*/false, SectorRange::of(p * spp, spp)});
  }
  // A trim still clears the pressure on the mounted device.
  (void)test::submit_ok(*mounted, trim_req(rt++, 0, (pages / 4) * spp));
  for (std::uint64_t p = 0; p < pages / 8; ++p) {
    (void)test::submit_ok(*mounted, write_req(rt++, p * spp, spp));
  }
}

TEST_P(CapacityPressure, WearLevelingNarrowsEraseSpread) {
  // A hot/cold split workload wears the hot half's blocks; leveling must
  // migrate cold blocks into rotation and keep the spread near the
  // threshold, with the oracle confirming no payload is disturbed.
  auto config = test::tiny_config();
  config.capacity.wear_spread_threshold = 4;
  config.capacity.wear_migrate_per_pass = 2;
  const std::uint32_t spp = config.geometry.sectors_per_page();

  // Cold data fills the first half of the space once; 12,000 hot requests
  // then churn the second half, `gap` ns apart. With `cold_reads`, every
  // third hot request reads a cold page instead of writing a hot one.
  auto churn = [&](sim::Ssd& ssd, SimDuration gap, bool cold_reads) {
    const std::uint64_t pages = ssd.config().logical_sectors() / spp;
    SimTime t = 1;
    for (std::uint64_t p = 0; p < pages / 2; ++p, t += gap) {
      (void)test::submit_ok(ssd, write_req(t, p * spp, spp));
    }
    Rng rng(7);
    for (int i = 0; i < 12'000; ++i, t += gap) {
      if (cold_reads && i % 3 == 2) {
        const std::uint64_t p = rng.below(pages / 2);
        (void)test::submit_ok(
            ssd, {t, /*write=*/false, SectorRange::of(p * spp, spp)});
        continue;
      }
      const std::uint64_t p = pages / 2 + rng.below(pages / 2);
      (void)test::submit_ok(ssd, write_req(t, p * spp, spp));
    }
  };

  sim::Ssd ssd(config, GetParam());
  churn(ssd, 1, /*cold_reads=*/false);

  const auto& faults = ssd.stats().faults();
  EXPECT_GT(faults.wear_level_migrations, 0u);
  EXPECT_GT(faults.wear_spread, 0u);

  const auto wear = ssd.engine().array().wear();
  EXPECT_LE(wear.spread(),
            config.capacity.wear_spread_threshold +
                2 * config.capacity.wear_migrate_per_pass + 2)
      << "leveling failed to keep the erase spread bounded";

  test::verify_full_space(ssd);
  if (auto* across = dynamic_cast<ftl::AcrossFtl*>(&ssd.scheme())) {
    across->check_invariants();
  }

  // Leveling beside parity stripes and preemptible erases: a cold block's
  // recycling must break the stripes over it, and its erase must be
  // suspendable by the foreground reads that arrive while it runs. Parity
  // adds a valid page per three data pages, and every relocation pays its
  // share too, so at tiny's 75% export (or at 50%) GC soon cannot hold the
  // free-space floor and the device turns read-only; 45% leaves room for
  // the whole run.
  auto armed = config;
  armed.exported_fraction = 0.45;
  armed.integrity.parity_stripe_width = 4;
  armed.deadline.read_deadline_us = 5000;
  armed.deadline.max_retries = 0;
  armed.deadline.preempt = true;
  sim::Ssd leveled(armed, GetParam());
  churn(leveled, 200'000, /*cold_reads=*/true);

  EXPECT_GT(leveled.stats().faults().wear_level_migrations, 0u);
  EXPECT_GT(leveled.stats().faults().stripes_broken, 0u);
  EXPECT_GT(leveled.stats().tail().erase_suspends, 0u);
  test::verify_full_space(leveled);
  leveled.engine().verify_victim_accounting();
  if (auto* across = dynamic_cast<ftl::AcrossFtl*>(&leveled.scheme())) {
    across->check_invariants();
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, CapacityPressure,
                         ::testing::Values(ftl::SchemeKind::kPageFtl,
                                           ftl::SchemeKind::kMrsm,
                                           ftl::SchemeKind::kAcrossFtl),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case ftl::SchemeKind::kPageFtl: return "PageFtl";
                             case ftl::SchemeKind::kMrsm: return "Mrsm";
                             case ftl::SchemeKind::kAcrossFtl: return "Across";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace af
