// TRIM/discard semantics across every scheme (DESIGN.md §9): fully covered
// pages unmap (reads return the never-written stamp), partially covered edge
// pages survive untouched (inward rounding), trimmed space is rewritable,
// and the trim is durable — a power cut at any later point recovers with the
// unmap still in force, never resurrecting pre-trim data. Scheme-specific
// state must unwind too: MRSM packed sub-slots retire and Across areas
// shrink or free.
#include <gtest/gtest.h>


#include "ftl/across_ftl.h"
#include "nand/power.h"
#include "sim/ssd.h"
#include "trace/synth.h"
#include "../helpers.h"

namespace af {
namespace {

ftl::IoRequest write_req(SimTime t, SectorAddr off, SectorCount len) {
  return {t, /*write=*/true, SectorRange::of(off, len)};
}

ftl::IoRequest read_req(SimTime t, SectorAddr off, SectorCount len) {
  return {t, /*write=*/false, SectorRange::of(off, len)};
}

ftl::IoRequest trim_req(SimTime t, SectorAddr off, SectorCount len) {
  return {t, /*write=*/false, SectorRange::of(off, len), /*trim=*/true};
}

class TrimTest : public ::testing::TestWithParam<ftl::SchemeKind> {};

TEST_P(TrimTest, UnmapsFullyCoveredPagesOnly) {
  const auto config = test::tiny_config();
  const std::uint32_t spp = config.geometry.sectors_per_page();
  sim::Ssd ssd(config, GetParam());

  // Lay down eight pages, then trim an extent that covers pages 2..4 fully
  // and clips pages 1 and 5 at the edges.
  SimTime t = 1;
  for (std::uint64_t p = 0; p < 8; ++p) {
    (void)test::submit_ok(ssd, write_req(t++, p * spp, spp));
  }
  const auto done = test::submit_ok(
      ssd, trim_req(t++, spp + 2, 5 * spp - 4));  // [1·spp+2, 6·spp−2)
  EXPECT_TRUE(done.accepted);

  // The oracle verifies every sector on read: trimmed pages read as
  // never-written, edge pages keep their data.
  (void)test::submit_ok(ssd, read_req(t++, 0, 8 * spp));

  const auto& faults = ssd.stats().faults();
  EXPECT_EQ(faults.trims, 1u);
  EXPECT_EQ(faults.trimmed_pages, 3u);  // pages 2,3,4

  // Trimmed space is immediately rewritable.
  for (std::uint64_t p = 2; p < 5; ++p) {
    (void)test::submit_ok(ssd, write_req(t++, p * spp, spp));
  }
  (void)test::submit_ok(ssd, read_req(t++, 0, 8 * spp));

  if (auto* across = dynamic_cast<ftl::AcrossFtl*>(&ssd.scheme())) {
    across->check_invariants();
  }
}

TEST_P(TrimTest, SubPageTrimIsANoOp) {
  const auto config = test::tiny_config();
  const std::uint32_t spp = config.geometry.sectors_per_page();
  sim::Ssd ssd(config, GetParam());

  SimTime t = 1;
  (void)test::submit_ok(ssd, write_req(t++, 0, spp));
  // Covers no whole page: nothing may be unmapped.
  (void)test::submit_ok(ssd, trim_req(t++, 1, spp - 2));
  (void)test::submit_ok(ssd, read_req(t++, 0, spp));
  EXPECT_EQ(ssd.stats().faults().trimmed_pages, 0u);
}

TEST_P(TrimTest, UnwindsSchemeSpecificState) {
  // Across-page writes and sub-page (MRSM-packed) writes, then a trim of the
  // whole span: every scheme's side tables must unwind without tripping
  // their internal checks, and a full-space read must verify.
  const auto config = test::tiny_config();
  const std::uint32_t spp = config.geometry.sectors_per_page();
  sim::Ssd ssd(config, GetParam());

  SimTime t = 1;
  for (std::uint64_t p = 0; p + 1 < 16; ++p) {
    (void)test::submit_ok(ssd, write_req(t++, p * spp, spp));
    // Across-page: straddles the boundary between p and p+1.
    (void)test::submit_ok(ssd, write_req(t++, p * spp + spp - 3, 6));
    // Sub-page update inside p.
    (void)test::submit_ok(ssd, write_req(t++, p * spp + 4, 4));
  }
  (void)test::submit_ok(ssd, trim_req(t++, 0, 16 * spp));
  (void)test::submit_ok(ssd, read_req(t++, 0, 16 * spp));

  // And the space is fully reusable afterwards.
  for (std::uint64_t p = 0; p < 16; ++p) {
    (void)test::submit_ok(ssd, write_req(t++, p * spp, spp));
  }
  (void)test::submit_ok(ssd, read_req(t++, 0, 16 * spp));

  if (auto* across = dynamic_cast<ftl::AcrossFtl*>(&ssd.scheme())) {
    across->check_invariants();
  }
}

TEST_P(TrimTest, SurvivesPowerCut) {
  // Trim, keep writing elsewhere until the armed cut fires, mount: the
  // trimmed pages must still read as unmapped (the durable tombstone holds
  // against any replayed OOB claims), and untrimmed data must verify.
  const auto config = test::tiny_config();
  const std::uint32_t spp = config.geometry.sectors_per_page();
  const std::uint64_t pages = config.logical_sectors() / spp;

  for (const std::uint64_t cut_at : {20ull, 60ull, 140ull}) {
    sim::Ssd ssd(config, GetParam());
    SimTime t = 1;
    for (std::uint64_t p = 0; p < pages / 2; ++p) {
      (void)test::submit_ok(ssd, write_req(t++, p * spp, spp));
    }
    (void)test::submit_ok(ssd, trim_req(t++, 0, (pages / 4) * spp));

    ssd.engine().array().arm_power_cut({cut_at, /*seed=*/3});
    bool crashed = false;
    test::WorkloadGen gen(config.logical_sectors() / 2,
                          config.geometry.sectors_per_page(), 23);
    try {
      for (int i = 0; i < 2'000; ++i) {
        auto req = gen.next();
        // Steer the churn clear of the trimmed quarter so its unmapped state
        // is what the mount must reproduce.
        if (req.range.begin < (pages / 4) * spp) continue;
        (void)ssd.submit(req);
      }
    } catch (const nand::PowerLoss&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed) << "cut_at=" << cut_at;

    const auto remounted = sim::Ssd::remount(ssd);
    EXPECT_GE(remounted.report.trims_replayed, 1u) << "cut_at=" << cut_at;

    // Oracle-verified: the trimmed quarter reads as unmapped, the rest as
    // last acknowledged.
    SimTime rt = t + 1'000'000;
    for (std::uint64_t p = 0; p < pages / 2; ++p) {
      (void)test::submit_ok(*remounted.device, read_req(rt++, p * spp, spp));
    }
  }
}

TEST_P(TrimTest, CheckpointedTrimNeedsNoTombstoneReplay) {
  // With the mapping journal on, a journal entry written after the trim
  // folds it in; the pruned tombstone log and the checkpointed tables must
  // agree at mount.
  auto config = test::tiny_config();
  config.checkpoint.interval_requests = 8;
  const std::uint32_t spp = config.geometry.sectors_per_page();
  const std::uint64_t pages = config.logical_sectors() / spp;

  sim::Ssd ssd(config, GetParam());
  SimTime t = 1;
  for (std::uint64_t p = 0; p < pages / 2; ++p) {
    (void)test::submit_ok(ssd, write_req(t++, p * spp, spp));
  }
  (void)test::submit_ok(ssd, trim_req(t++, 0, (pages / 4) * spp));
  // Enough post-trim writes to commit a journal entry covering the trim.
  for (std::uint64_t p = pages / 4; p < pages / 2; ++p) {
    (void)test::submit_ok(ssd, write_req(t++, p * spp, spp));
  }
  EXPECT_TRUE(ssd.engine().array().trim_log().empty())
      << "journal entry should have pruned the tombstone";

  ssd.engine().array().arm_power_cut({30, /*seed=*/5});
  bool crashed = false;
  try {
    for (std::uint64_t p = pages / 4; p < pages / 2; ++p) {
      for (int rep = 0; rep < 2; ++rep) {
        (void)ssd.submit(write_req(t++, p * spp, spp));
      }
    }
  } catch (const nand::PowerLoss&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);

  const auto remounted = sim::Ssd::remount(ssd);
  EXPECT_TRUE(remounted.report.used_checkpoint);

  SimTime rt = t + 1'000'000;
  for (std::uint64_t p = 0; p < pages / 2; ++p) {
    (void)test::submit_ok(*remounted.device, read_req(rt++, p * spp, spp));
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, TrimTest,
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

TEST(TrimSynth, GeneratorEmitsPageAlignedTrims) {
  trace::SynthProfile profile;
  profile.requests = 5'000;
  profile.write_sizes = trace::SizeMix::around_mean(20);
  profile.read_sizes = trace::SizeMix::around_mean(20);
  profile.trim_fraction = 0.1;
  const auto tr = trace::generate(profile, 1u << 20);
  std::uint64_t trims = 0;
  for (const auto& rec : tr) {
    if (!rec.trim) continue;
    ++trims;
    EXPECT_EQ(rec.offset % 16, 0u);
    EXPECT_EQ(rec.sectors % 16, 0u);
    EXPECT_FALSE(rec.write);
  }
  EXPECT_GT(trims, 300u);
  EXPECT_LT(trims, 700u);
}

TEST(TrimSynth, ZeroFractionIsBitIdentical) {
  // trim_fraction = 0 must not consume RNG draws: the stream equals one
  // generated before the knob existed.
  trace::SynthProfile profile;
  profile.requests = 2'000;
  profile.write_sizes = trace::SizeMix::around_mean(20);
  profile.read_sizes = trace::SizeMix::around_mean(20);
  const auto base = trace::generate(profile, 1u << 20);
  profile.trim_fraction = 0.0;  // explicit zero, same meaning
  const auto again = trace::generate(profile, 1u << 20);
  ASSERT_EQ(base.size(), again.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].offset, again[i].offset);
    EXPECT_EQ(base[i].sectors, again[i].sectors);
    EXPECT_EQ(base[i].write, again[i].write);
    EXPECT_FALSE(again[i].trim);
  }
}

}  // namespace
}  // namespace af
