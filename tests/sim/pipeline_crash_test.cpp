// Power-cut windows under the QD scheduler (DESIGN.md §10): a cut fired
// mid-run at QD16 must leave a mountable image whose recovered state matches
// every acknowledged write, with at most the one in-flight request's sectors
// readable at their pre-crash version. Requests after the interrupted one
// never reach the device (they were never acknowledged and never stamped the
// oracle), so the post-mount sweep plus a host-style retry of the unexecuted
// requests must land the device back in a fully verified state — across all
// three schemes, with the checkpoint journal on.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../helpers.h"
#include "ftl/request.h"
#include "nand/power.h"
#include "sim/pipeline.h"
#include "sim/ssd.h"
#include "ssd/config.h"
#include "ssd/recovery.h"

namespace af::sim {
namespace {

std::vector<ftl::IoRequest> churn_workload(const ssd::SsdConfig& config,
                                           std::size_t requests,
                                           std::uint64_t seed) {
  const auto spp = config.geometry.sectors_per_page();
  const std::uint64_t footprint = config.logical_pages() / 3;
  Rng rng(seed);
  std::vector<ftl::IoRequest> out;
  SimTime t = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    const bool write = rng.chance(0.75);
    out.push_back(
        {t++, write, SectorRange::of(rng.below(footprint) * spp, spp)});
  }
  return out;
}

void run_cut_and_recover(ftl::SchemeKind kind, std::uint64_t at_op,
                         std::uint64_t seed) {
  auto config = test::tiny_config();
  config.pipeline.queue_depth = 16;
  config.checkpoint.interval_requests = 32;
  const auto reqs = churn_workload(config, 500, seed);

  SsdPipeline pipeline(config, kind);
  pipeline.device().engine().array().arm_power_cut(
      nand::PowerCutPlan{at_op, seed});

  bool crashed = false;
  try {
    for (const auto& req : reqs) pipeline.submit(req);
    pipeline.drain();
  } catch (const nand::PowerLoss& loss) {
    crashed = true;
    EXPECT_EQ(loss.op_index, at_op);
  }
  ASSERT_TRUE(crashed) << "cut op " << at_op << " beyond the trace horizon";
  EXPECT_TRUE(pipeline.crashed());
  EXPECT_EQ(pipeline.crash_op_index(), at_op);
  // The host keeps learning of the crash at every later interaction.
  EXPECT_THROW(pipeline.flush(), nand::PowerLoss);
  EXPECT_THROW(pipeline.submit(reqs.front()), nand::PowerLoss);

  // Tolerance window: only the interrupted write's extent may read back its
  // pre-submission stamps after the mount.
  const SectorRange inflight = pipeline.crash_inflight();
  const std::vector<std::uint64_t> pre_stamps = pipeline.crash_pre_stamps();
  const auto records = pipeline.records();  // copies before teardown
  const ssd::Oracle oracle_seed = *pipeline.device().oracle();

  ssd::RecoveryReport report;
  auto mounted = sim::Ssd::mount(config, kind,
                                 pipeline.device().release_flash(),
                                 &oracle_seed, &report);
  ASSERT_NE(mounted, nullptr);

  // Oracle-equivalence sweep, tolerating exactly the in-flight window.
  const std::uint32_t spp = mounted->scheme().page_geometry().sectors_per_page;
  const std::uint64_t logical_sectors = config.logical_sectors();
  std::uint64_t tolerated_sectors = 0;
  for (SectorAddr base = 0; base < logical_sectors; base += spp) {
    const SectorRange r = SectorRange::of(
        base, std::min<std::uint64_t>(spp, logical_sectors - base));
    ftl::ReadPlan plan;
    (void)mounted->scheme().read({0, /*write=*/false, r}, 0, &plan);
    ASSERT_EQ(plan.observed.size(), r.size());
    for (const auto& obs : plan.observed) {
      const std::uint64_t expected = mounted->oracle()->expected(obs.sector);
      if (obs.stamp == expected) continue;
      const bool tolerated =
          inflight.contains(obs.sector) &&
          obs.stamp == pre_stamps[obs.sector - inflight.begin];
      ASSERT_TRUE(tolerated)
          << "sector " << obs.sector << " stamp " << obs.stamp << " expected "
          << expected << " after cut at op " << at_op
          << " (completion-order violation surviving the crash)";
      mounted->oracle_mut()->force(obs.sector, obs.stamp);
      ++tolerated_sectors;
    }
  }
  // The tolerance window is bounded by one request.
  EXPECT_LE(tolerated_sectors, inflight.size());

  // Host-style retry: replay everything the pipeline never serviced (the
  // abandoned tail and the never-submitted remainder) on the mounted
  // device, then prove the whole logical space reads back verified.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (i < records.size() && records[i].executed) continue;
    (void)mounted->submit(reqs[i]);
  }
  test::verify_full_space(*mounted);
}

TEST(PipelineCrash, EarlyCutRecoversOnEveryScheme) {
  run_cut_and_recover(ftl::SchemeKind::kPageFtl, 40, 3);
  run_cut_and_recover(ftl::SchemeKind::kMrsm, 40, 5);
  run_cut_and_recover(ftl::SchemeKind::kAcrossFtl, 40, 7);
}

TEST(PipelineCrash, MidRunCutRecoversOnEveryScheme) {
  run_cut_and_recover(ftl::SchemeKind::kPageFtl, 260, 11);
  run_cut_and_recover(ftl::SchemeKind::kMrsm, 260, 13);
  run_cut_and_recover(ftl::SchemeKind::kAcrossFtl, 260, 17);
}

}  // namespace
}  // namespace af::sim
