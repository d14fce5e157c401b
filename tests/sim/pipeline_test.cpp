// SsdPipeline determinism and ordering-safety tests (DESIGN.md §10).
//
// The pipeline's contract has two halves, and each gets checked here:
//  - QD=1 is bit-identical to driving the serial engine one request at a
//    time — every completion time, stat counter, wear cell and oracle stamp,
//    across all three schemes.
//  - QD>1 is deterministic in (config, trace, queue depth) and never
//    violates completion-order safety: a read's simulated issue waits for
//    the newest overlapping write completion, and trims act as full
//    barriers. The built-in oracle verification aborts the process on any
//    stale read, so merely finishing a run is itself an assertion; the tests
//    additionally re-derive the ordering property from the completion
//    records.
#include "sim/pipeline.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../helpers.h"
#include "ftl/request.h"
#include "sim/ssd.h"
#include "ssd/config.h"

namespace af::sim {
namespace {

constexpr ftl::SchemeKind kSchemes[] = {
    ftl::SchemeKind::kPageFtl, ftl::SchemeKind::kMrsm,
    ftl::SchemeKind::kAcrossFtl};

/// Mixed workload over half the logical space — every request shape the
/// generator knows, plus a periodic full-page trim so the barrier path runs.
std::vector<ftl::IoRequest> mixed_workload(const ssd::SsdConfig& config,
                                           std::size_t requests,
                                           std::uint64_t seed) {
  const auto spp = config.geometry.sectors_per_page();
  const std::uint64_t span =
      config.logical_sectors() / 2 / spp * spp;  // page-aligned footprint
  test::WorkloadGen gen(span, spp, seed);
  std::vector<ftl::IoRequest> out;
  out.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    ftl::IoRequest req = gen.next();
    if (i % 53 == 52) {
      const std::uint64_t page = req.range.begin / spp;
      req = {req.arrival, /*write=*/false, SectorRange::of(page * spp, spp),
             /*trim=*/true};
    }
    out.push_back(req);
  }
  return out;
}

struct SerialRun {
  std::vector<SimTime> done;
  std::uint64_t flash_reads = 0;
  std::uint64_t flash_writes = 0;
  std::uint64_t erases = 0;
  std::uint64_t gc_runs = 0;
  double io_time_ns = 0;
  std::uint64_t verified_sectors = 0;
  nand::FlashArray::WearSummary wear;
  std::vector<std::uint64_t> stamps;
};

/// Drives the plain serial engine with the QD=1 closed loop the pipeline
/// documents: each request issues when the previous one completed.
SerialRun serial_reference(const ssd::SsdConfig& config, ftl::SchemeKind kind,
                           const std::vector<ftl::IoRequest>& reqs) {
  sim::Ssd ssd(config, kind);
  SerialRun run;
  SimTime last_issue = 0;
  SimTime all_done = 0;
  for (ftl::IoRequest req : reqs) {
    req.arrival = std::max(last_issue, all_done);
    const auto c = ssd.submit(req);
    last_issue = req.arrival;
    all_done = std::max(all_done, c.done);
    run.done.push_back(c.done);
  }
  run.flash_reads = ssd.stats().flash_reads();
  run.flash_writes = ssd.stats().flash_writes();
  run.erases = ssd.stats().erases();
  run.gc_runs = ssd.engine().gc_runs();
  run.io_time_ns = ssd.stats().total_io_time_ns();
  run.verified_sectors = ssd.verified_sectors();
  run.wear = ssd.engine().array().wear();
  for (SectorAddr s = 0; s < config.logical_sectors(); ++s) {
    run.stamps.push_back(ssd.oracle()->expected(s));
  }
  return run;
}

TEST(Pipeline, QueueDepthOneIsBitIdenticalToSerialEngine) {
  for (const auto kind : kSchemes) {
    auto config = test::tiny_config();
    config.pipeline.queue_depth = 1;  // below the enablement threshold
    const auto reqs = mixed_workload(config, 1200, 17);
    const SerialRun serial = serial_reference(config, kind, reqs);

    SsdPipeline pipeline(config, kind);
    for (const auto& req : reqs) pipeline.submit(req);
    pipeline.drain();

    ASSERT_EQ(pipeline.records().size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      EXPECT_EQ(pipeline.records()[i].done, serial.done[i]) << "request " << i;
      EXPECT_TRUE(pipeline.records()[i].executed);
    }
    const auto& stats = pipeline.device().stats();
    EXPECT_EQ(stats.flash_reads(), serial.flash_reads);
    EXPECT_EQ(stats.flash_writes(), serial.flash_writes);
    EXPECT_EQ(stats.erases(), serial.erases);
    EXPECT_EQ(stats.total_io_time_ns(), serial.io_time_ns);
    EXPECT_EQ(pipeline.device().engine().gc_runs(), serial.gc_runs);
    EXPECT_EQ(pipeline.verified_sectors(), serial.verified_sectors);
    const auto wear = pipeline.device().engine().array().wear();
    EXPECT_EQ(wear.min, serial.wear.min);
    EXPECT_EQ(wear.max, serial.wear.max);
    EXPECT_EQ(wear.mean, serial.wear.mean);
    for (SectorAddr s = 0; s < config.logical_sectors(); ++s) {
      ASSERT_EQ(pipeline.device().oracle()->expected(s), serial.stamps[s])
          << "oracle diverged at sector " << s;
    }
  }
}

/// Same-LPN read-after-write storm at QD16: the oracle inside the pipeline
/// aborts on any read that observes a stale stamp, and the completion
/// records must show every read issued at-or-after the newest overlapping
/// write's completion (the property the dependency gates enforce).
TEST(Pipeline, SameLpnRawStormAtQd16KeepsReadsOrdered) {
  auto config = test::tiny_config();
  config.pipeline.queue_depth = 16;
  const auto spp = config.geometry.sectors_per_page();
  SsdPipeline pipeline(config, ftl::SchemeKind::kAcrossFtl);

  std::vector<bool> is_write;
  const std::uint64_t hot = 7;
  SimTime t = 0;
  for (int i = 0; i < 600; ++i) {
    // write, read, read, write, ... with occasional sub-page and
    // across-page shapes, all overlapping the hot page's region.
    const bool write = (i % 3) == 0;
    SectorRange range = SectorRange::of(hot * spp, spp);
    if (i % 7 == 5) range = SectorRange::of(hot * spp + 4, 6);
    if (i % 11 == 9) range = SectorRange::of(hot * spp - 2, 8);
    pipeline.submit({t++, write, range});
    is_write.push_back(write);
  }
  pipeline.drain();

  ASSERT_EQ(pipeline.records().size(), is_write.size());
  SimTime last_write_done = 0;
  for (std::size_t i = 0; i < is_write.size(); ++i) {
    const auto& rec = pipeline.records()[i];
    EXPECT_TRUE(rec.executed);
    if (is_write[i]) {
      // Writes are exclusive: nothing older may still be in the region.
      EXPECT_GE(rec.submitted, last_write_done);
      last_write_done = std::max(last_write_done, rec.done);
    } else {
      EXPECT_GE(rec.submitted, last_write_done)
          << "read " << i << " issued before the newest overlapping write";
    }
  }
  EXPECT_GT(pipeline.verified_sectors(), 0u);
}

TEST(Pipeline, TrimsActAsFullBarriers) {
  auto config = test::tiny_config();
  config.pipeline.queue_depth = 16;
  const auto spp = config.geometry.sectors_per_page();
  SsdPipeline pipeline(config, ftl::SchemeKind::kAcrossFtl);

  SimTime t = 0;
  for (std::uint64_t p = 0; p < 24; ++p) {
    pipeline.submit({t++, /*write=*/true, SectorRange::of(p * spp, spp)});
  }
  const std::size_t trim_index = 24;
  pipeline.submit({t++, /*write=*/false, SectorRange::of(0, 8 * spp),
                   /*trim=*/true});
  for (std::uint64_t p = 0; p < 24; ++p) {
    pipeline.submit({t++, /*write=*/false, SectorRange::of(p * spp, spp)});
  }
  pipeline.drain();

  const auto& records = pipeline.records();
  ASSERT_EQ(records.size(), 49u);
  const auto& trim = records[trim_index];
  for (std::size_t i = 0; i < trim_index; ++i) {
    EXPECT_GE(trim.submitted, records[i].done)
        << "trim issued before older request " << i << " completed";
  }
  for (std::size_t i = trim_index + 1; i < records.size(); ++i) {
    EXPECT_GE(records[i].submitted, trim.done)
        << "request " << i << " overtook the trim barrier";
  }
  // Reads of the trimmed pages were verified against stamp 0 by the oracle
  // (a stale pre-trim payload would have aborted the run).
  for (SectorAddr s = 0; s < 8 * spp; ++s) {
    EXPECT_EQ(pipeline.device().oracle()->expected(s), 0u);
  }
}

/// QD16 with every background subsystem on at once — GC churn, scrub ticks,
/// checkpoint journaling — stays deterministic run to run and oracle-clean,
/// with GC migrations and scrub relocations interleaved between reads whose
/// simulated lifetimes overlap.
TEST(Pipeline, GcScrubAndCheckpointStayDeterministicAtQd16) {
  auto config = test::tiny_config();
  config.pipeline.queue_depth = 16;
  config.checkpoint.interval_requests = 64;
  config.integrity.scrub_interval_requests = 128;

  // Overwrite churn on a third of the logical space: forces GC on tiny.
  const auto spp = config.geometry.sectors_per_page();
  const std::uint64_t footprint = config.logical_pages() / 3;
  std::vector<ftl::IoRequest> reqs;
  Rng rng(41);
  SimTime t = 0;
  for (int i = 0; i < 2200; ++i) {
    const bool write = rng.chance(0.8);
    reqs.push_back(
        {t++, write, SectorRange::of(rng.below(footprint) * spp, spp)});
  }

  std::vector<SsdPipeline::CompletionRecord> baseline;
  std::uint64_t base_erases = 0, base_gc = 0;
  for (const bool first : {true, false}) {
    SsdPipeline pipeline(config, ftl::SchemeKind::kMrsm);
    for (const auto& req : reqs) pipeline.submit(req);
    pipeline.drain();
    EXPECT_GT(pipeline.device().stats().erases(), 0u) << "GC never ran";
    EXPECT_NE(pipeline.device().checkpointer(), nullptr);
    EXPECT_NE(pipeline.device().scrubber(), nullptr);
    if (first) {
      baseline = pipeline.records();
      base_erases = pipeline.device().stats().erases();
      base_gc = pipeline.device().engine().gc_runs();
      continue;
    }
    ASSERT_EQ(pipeline.records().size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(pipeline.records()[i].submitted, baseline[i].submitted);
      EXPECT_EQ(pipeline.records()[i].done, baseline[i].done);
    }
    EXPECT_EQ(pipeline.device().stats().erases(), base_erases);
    EXPECT_EQ(pipeline.device().engine().gc_runs(), base_gc);
  }
}

/// The point of the queue: independent requests overlap across chips, so a
/// deeper queue finishes the same work in less simulated time.
TEST(Pipeline, DeeperQueueShortensMakespanOnIndependentWrites) {
  auto config = test::tiny_config();
  const auto spp = config.geometry.sectors_per_page();
  std::vector<ftl::IoRequest> reqs;
  SimTime t = 0;
  for (std::uint64_t p = 0; p < 256; ++p) {
    reqs.push_back({t++, /*write=*/true, SectorRange::of(p * spp, spp)});
  }

  SimTime makespan_qd1 = 0;
  for (const std::uint32_t qd : {1u, 8u}) {
    config.pipeline.queue_depth = qd;
    SsdPipeline pipeline(config, ftl::SchemeKind::kPageFtl);
    for (const auto& req : reqs) pipeline.submit(req);
    pipeline.drain();
    if (qd == 1) {
      makespan_qd1 = pipeline.makespan_ns();
      continue;
    }
    EXPECT_LT(pipeline.makespan_ns(), makespan_qd1)
        << "QD8 no faster than QD1 on an embarrassingly parallel workload";
  }
}

/// Token-bucket admission at QD8: writes finding their tenant's bucket dry
/// are parked and admitted later, as on the serial path, and drain() admits
/// whatever is still parked. Two runs agree record for record and the whole
/// logical space reads back oracle-clean afterwards.
TEST(Pipeline, TokenBucketThrottlesAtQd8) {
  auto config = test::tiny_config();
  config.pipeline.queue_depth = 8;
  config.qos.tenants = 2;
  config.qos.rate_sectors_per_s = 2'000;
  config.qos.burst_sectors = 64;
  auto reqs = mixed_workload(config, 1200, 61);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].tenant = static_cast<std::uint16_t>(i % 2);
  }

  std::vector<SsdPipeline::CompletionRecord> baseline;
  for (const bool first : {true, false}) {
    SsdPipeline pipeline(config, ftl::SchemeKind::kAcrossFtl);
    for (const auto& req : reqs) pipeline.submit(req);
    pipeline.drain();
    const auto& records = pipeline.records();
    ASSERT_EQ(records.size(), reqs.size());
    for (const auto& rec : records) EXPECT_TRUE(rec.executed);
    std::uint64_t stalls = 0;
    for (const auto& t : pipeline.device().stats().tenants()) {
      stalls += t.throttle_stalls;
    }
    EXPECT_GT(stalls, 0u) << "the bucket never ran dry";
    test::verify_full_space(pipeline.device());
    if (first) {
      baseline = records;
      continue;
    }
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(records[i].submitted, baseline[i].submitted);
      EXPECT_EQ(records[i].done, baseline[i].done);
      EXPECT_EQ(records[i].accepted, baseline[i].accepted);
    }
  }
}

}  // namespace
}  // namespace af::sim
