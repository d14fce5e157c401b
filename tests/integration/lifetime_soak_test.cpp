// Device-lifetime soak (DESIGN.md §9): a tiny geometry is burned toward
// end-of-life under mixed write/trim churn with the full robustness stack on
// — wear-ramped erase faults retiring blocks, wear leveling, the mapping
// journal, and periodic power cuts with full mounts in between. The device
// must degrade *gracefully*: every read oracle-verified to the end, writes
// refused (never corrupted) once spares are gone, and every invariant audit
// clean at every stage.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "ftl/across_ftl.h"
#include "nand/power.h"
#include "sim/ssd.h"
#include "../helpers.h"

namespace af {
namespace {

/// Wear ramp aggressive enough to reach EOL in tens of thousands of ops:
/// past 18 erases a block's program/erase fault odds grow 3%/erase.
ssd::SsdConfig eol_config() {
  auto config = test::tiny_config();
  config.faults.wear_onset = 18;
  config.faults.wear_slope = 0.03;
  config.capacity.wear_spread_threshold = 6;
  config.checkpoint.interval_requests = 32;
  return config;
}

class LifetimeSoak : public ::testing::TestWithParam<ftl::SchemeKind> {};

TEST_P(LifetimeSoak, BurnsToReadOnlyWithoutLosingData) {
  const auto config = eol_config();
  const std::uint32_t spp = config.geometry.sectors_per_page();
  const std::uint64_t pages = config.logical_sectors() / spp;

  auto ssd = std::make_unique<sim::Ssd>(config, GetParam());
  test::WorkloadGen gen(config.logical_sectors() / 2, spp, 41);
  SimTime t = 1;
  std::uint64_t mounts = 0;
  std::uint64_t rejected_writes = 0;
  std::uint64_t ops = 0;
  // Engine fault counters reset at every mount; lifetime totals accumulate
  // across all the device's incarnations.
  std::uint64_t total_trims = 0;
  std::uint64_t total_migrations = 0;
  std::uint64_t total_lost = 0;
  std::uint64_t peak_spread = 0;
  const auto accumulate = [&] {
    const auto& f = ssd->stats().faults();
    total_trims += f.trims;
    total_migrations += f.wear_level_migrations;
    total_lost += f.lost_pages;
    peak_spread = std::max(peak_spread, f.wear_spread);
  };
  constexpr std::uint64_t kOpBudget = 150'000;
  constexpr std::uint64_t kCutEvery = 9'000;  // submits between power cuts

  while (ops < kOpBudget && !ssd->engine().read_only()) {
    // Arm the next scheduled blackout relative to the ops already burned on
    // this incarnation of the device.
    ssd->engine().array().arm_power_cut(
        {/*at_op=*/3'000 + (mounts % 5) * 800, /*seed=*/mounts + 1});
    bool crashed = false;
    try {
      for (std::uint64_t i = 0; i < kCutEvery && ops < kOpBudget; ++i, ++ops) {
        auto req = gen.next();
        req.arrival = t++;
        if (ops % 97 == 0) {
          // Periodic discards keep pressure bounded and exercise the trim
          // path against every stage of wear.
          const std::uint64_t base = (ops / 97 * 7) % (pages / 2);
          const std::uint64_t len = std::min<std::uint64_t>(8, pages - base);
          req = {t++, /*write=*/false,
                 SectorRange::of(base * spp, len * spp), /*trim=*/true};
        }
        const auto completion = ssd->submit(req);
        if (!completion.accepted) {
          ++rejected_writes;
          EXPECT_NE(completion.status, ssd::Status::kOk);
          if (completion.status == ssd::Status::kReadOnly) break;
        }
        ASSERT_FALSE(completion.data_lost);
      }
    } catch (const nand::PowerLoss&) {
      crashed = true;
    }
    // A blackout mid-request leaves RAM state torn (a write may have
    // invalidated its old page without completing the remap): the device
    // must be remounted before ANY further use — even when it had already
    // degraded to read-only, whose verdict the mount re-derives.
    if (!crashed) {
      if (ssd->engine().read_only()) break;
      continue;
    }

    // Blackout: remount and keep burning. The remount audits the surviving
    // state sector-by-sector against the oracle as it re-aligns the one
    // legitimately lost in-flight write.
    accumulate();
    ssd = sim::Ssd::remount(*ssd).device;
    ++mounts;

    // Spot-audit after each mount: a sweep of the workload's footprint,
    // oracle-verified sector by sector.
    for (std::uint64_t p = 0; p < pages / 2; p += 7) {
      (void)test::submit_ok(
          *ssd, {t++, /*write=*/false, SectorRange::of(p * spp, spp)});
    }
    if (auto* across = dynamic_cast<ftl::AcrossFtl*>(&ssd->scheme())) {
      across->check_invariants();
    }
  }

  // The soak must actually reach device EOL, through several blackouts.
  accumulate();
  EXPECT_TRUE(ssd->engine().read_only())
      << "op budget exhausted before end-of-life (ops=" << ops << ")";
  EXPECT_GE(mounts, 2u);

  const auto& counters = ssd->engine().array().counters();
  EXPECT_GT(counters.retired_blocks, 0u);
  EXPECT_GT(total_trims, 0u);
  EXPECT_GT(total_migrations, 0u);
  EXPECT_GT(peak_spread, 0u);
  EXPECT_EQ(total_lost, 0u);

  // Read-only means read-only: writes bounce, reads still verify.
  const auto refused =
      ssd->submit({t++, /*write=*/true, SectorRange::of(0, spp)});
  EXPECT_FALSE(refused.accepted);
  EXPECT_EQ(refused.status, ssd::Status::kReadOnly);
  for (std::uint64_t p = 0; p < pages / 2; p += 3) {
    const auto read =
        ssd->submit({t++, /*write=*/false, SectorRange::of(p * spp, spp)});
    EXPECT_TRUE(read.accepted);
    EXPECT_FALSE(read.data_lost);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, LifetimeSoak,
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
