// Multi-tenant QoS isolation (DESIGN.md §12), end to end: the zero-default
// bit-identity guarantee, per-tenant stream separation at the block level,
// capacity-share admission, deterministic token-bucket throttling, the
// noisy-neighbor isolation invariant, and recovery of tenant/stream state
// after a power cut in the middle of a mixed workload.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "ftl/request.h"
#include "sim/ssd.h"
#include "trace/mixer.h"
#include "trace/profiles.h"
#include "trace/replayer.h"
#include "trace/synth.h"
#include "../helpers.h"

namespace af {
namespace {

/// The paper device at a bench-sized geometry: big enough that aged mixed
/// replays exercise GC, small enough for an ASan test binary.
ssd::SsdConfig qos_device() {
  return ssd::SsdConfig::paper(/*page_kb=*/8, /*blocks_per_plane=*/32);
}

std::uint64_t addressable(const ssd::SsdConfig& config) {
  return static_cast<std::uint64_t>(
             0.398 * static_cast<double>(config.geometry.total_pages())) *
         config.geometry.sectors_per_page();
}

/// Read-mostly tenant whose tail the policies protect.
trace::Trace victim_trace(const ssd::SsdConfig& config,
                          std::uint64_t requests) {
  auto profile = trace::lun_profile(0, requests);
  profile.name = "qos-victim";
  profile.write_ratio = 0.20;
  profile.mean_iat_ns = 3'000'000;
  profile.footprint_fraction = 0.5;
  return trace::generate(profile, addressable(config));
}

/// Write-heavy neighbor hammering a small hot footprint.
trace::Trace noisy_trace(const ssd::SsdConfig& config,
                         std::uint64_t requests) {
  auto profile = trace::lun_profile(1, requests);
  profile.name = "qos-noisy";
  profile.write_ratio = 0.90;
  profile.mean_iat_ns = 300'000;
  profile.footprint_fraction = 0.08;
  profile.zipf_theta = 1.1;
  return trace::generate(profile, addressable(config));
}

bool same_result(const trace::ReplayResult& a, const trace::ReplayResult& b) {
  return a.io_time_s == b.io_time_s &&
         a.stats.flash_writes() == b.stats.flash_writes() &&
         a.stats.erases() == b.stats.erases() &&
         a.gc_runs == b.gc_runs &&
         a.stats.all_reads().p99_ns() == b.stats.all_reads().p99_ns() &&
         a.stats.all_writes().p99_ns() == b.stats.all_writes().p99_ns();
}

class Qos : public ::testing::TestWithParam<ftl::SchemeKind> {};

// The zero-default guarantee: a single-tenant trace routed through the mixer
// and the tenant plumbing — with QoS off OR with a degenerate tenants=1
// policy — replays bit-identically to the plain path.
TEST_P(Qos, ZeroDefaultBitIdentity) {
  const auto config = qos_device();
  const auto tr = victim_trace(config, 1200);
  trace::ReplayOptions opts;
  opts.age_used = 0.85;

  const auto plain = trace::replay(config, GetParam(), tr, opts);
  const auto mixed = trace::replay(config, GetParam(), trace::mix({tr}), opts);
  EXPECT_TRUE(same_result(plain, mixed));

  auto degenerate = config;
  degenerate.qos.tenants = 1;  // below the enabled() threshold
  degenerate.qos.rate_sectors_per_s = 8'000;
  degenerate.qos.capacity_share_millis = 600;
  const auto off = trace::replay(degenerate, GetParam(), tr, opts);
  EXPECT_TRUE(same_result(plain, off));
}

// Same config, same mixed trace, twice: the bucket's deferral machinery must
// be a pure function of its inputs — identical stall counts, identical tails.
TEST_P(Qos, ThrottlingIsDeterministic) {
  auto config = qos_device();
  config.qos.tenants = 2;
  config.qos.rate_sectors_per_s = 8'000;
  config.qos.burst_sectors = 2'000;
  config.qos.gc_debt_sectors_per_page = 16;
  const auto mixed = trace::mix(
      {victim_trace(config, 600), noisy_trace(config, 600)});
  trace::ReplayOptions opts;
  opts.age_used = 0.85;

  const auto first = trace::replay(config, GetParam(), mixed, opts);
  const auto second = trace::replay(config, GetParam(), mixed, opts);
  ASSERT_TRUE(same_result(first, second));
  ASSERT_EQ(first.stats.tenants().size(), 2u);
  const auto& noisy1 = first.stats.tenants()[1];
  const auto& noisy2 = second.stats.tenants()[1];
  EXPECT_GT(noisy1.throttle_stalls, 0u);
  EXPECT_EQ(noisy1.throttle_stalls, noisy2.throttle_stalls);
  EXPECT_EQ(noisy1.throttle_stall_ns, noisy2.throttle_stall_ns);
  EXPECT_EQ(first.stats.tenants()[0].read_latency.p99_ns(),
            second.stats.tenants()[0].read_latency.p99_ns());
}

// The headline invariant: with the full policy armed, sharing the device
// with the noisy neighbor costs the victim at most a bounded multiple of its
// solo p99 — and never more than the unprotected shared device.
TEST_P(Qos, NoisyNeighborContained) {
  const auto config = qos_device();
  const auto victim = victim_trace(config, 1200);
  const auto mixed = trace::mix({victim, noisy_trace(config, 1200)});
  trace::ReplayOptions opts;
  opts.age_used = 0.85;

  const auto solo = trace::replay(config, GetParam(), victim, opts);

  auto shared = config;
  shared.qos.tenants = 2;  // observe only: no streams, no bucket
  shared.qos.per_tenant_streams = false;
  const auto off = trace::replay(shared, GetParam(), mixed, opts);

  auto armed = config;
  armed.qos.tenants = 2;
  armed.qos.rate_sectors_per_s = 8'000;
  armed.qos.burst_sectors = 2'000;
  armed.qos.gc_debt_sectors_per_page = 16;
  armed.qos.capacity_share_millis = 600;
  const auto contained = trace::replay(armed, GetParam(), mixed, opts);

  const double solo_p99 = solo.stats.all_reads().p99_ns() / 1e6;
  const double off_p99 = off.stats.tenants()[0].read_latency.p99_ns() / 1e6;
  const double on_p99 =
      contained.stats.tenants()[0].read_latency.p99_ns() / 1e6;
  // The unprotected run is the problem statement: the victim's tail must
  // actually be inflated by the neighbor for containment to mean anything.
  ASSERT_GT(off_p99, solo_p99 * 4);
  EXPECT_LE(on_p99, off_p99);
  // Containment bound. The multiple absorbs log2-bucket percentile
  // quantisation plus the genuine residual sharing cost (the bucket shapes
  // admission, it does not reserve chips).
  constexpr double kContainmentMultiple = 256.0;
  EXPECT_LE(on_p99, solo_p99 * kContainmentMultiple);
  // And the neighbor, not the victim, pays: stalls land on tenant 1.
  EXPECT_GT(contained.stats.tenants()[1].throttle_stalls, 0u);
  EXPECT_EQ(contained.stats.tenants()[0].throttle_stalls, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, Qos,
                         ::testing::Values(ftl::SchemeKind::kPageFtl,
                                           ftl::SchemeKind::kMrsm,
                                           ftl::SchemeKind::kAcrossFtl),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case ftl::SchemeKind::kPageFtl: return "PageFtl";
                             case ftl::SchemeKind::kMrsm: return "MrsmFtl";
                             default: return "AcrossFtl";
                           }
                         });

// With per-tenant streams on, no flash block ever holds live data pages from
// two tenants: GC can relocate — and charge — each tenant's garbage without
// dragging the other's pages along.
TEST(QosStreams, BlocksStayTenantHomogeneous) {
  auto config = test::tiny_config();
  config.qos.tenants = 2;  // streams on by default
  sim::Ssd ssd(config, ftl::SchemeKind::kPageFtl);

  const std::uint32_t spp = config.geometry.sectors_per_page();
  const std::uint64_t pages = config.logical_sectors() / spp;
  SimTime t = 1;
  auto write = [&](std::uint64_t p, std::uint64_t tenant) {
    ftl::IoRequest req{t, /*write=*/true, SectorRange::of(p * spp, spp)};
    req.tenant = static_cast<std::uint16_t>(tenant);
    t += 1000;
    (void)test::submit_ok(ssd, req);
  };
  // Interleaved sequential rounds from both tenants: each round invalidates
  // whole blocks, so GC finds fully invalid victims and relocates nothing.
  for (std::uint64_t round = 0; round < 6; ++round) {
    for (std::uint64_t p = 0; p < pages / 2; ++p) write(p, (p + round) % 2);
  }
  // Random overwrites leave victims partly valid: GC now relocates live
  // pages of both tenants, which must land in their owner's own blocks.
  Rng rng(3);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t p = rng.below(pages / 2);
    write(p, p % 2);
  }

  const auto& geometry = config.geometry;
  std::vector<std::set<std::uint16_t>> owners(geometry.total_blocks());
  for (std::uint64_t p = 0; p < geometry.total_pages(); ++p) {
    const std::uint16_t tenant = ssd.engine().page_tenant(Ppn{p});
    if (tenant == ssd::kNoTenant) continue;  // engine-owned or invalid page
    owners[p / geometry.pages_per_block].insert(tenant);
  }
  std::uint64_t tagged_blocks = 0;
  for (const auto& block_owners : owners) {
    if (!block_owners.empty()) ++tagged_blocks;
    EXPECT_LE(block_owners.size(), 1u);
  }
  // Sanity: the scan saw real data from both tenants, not an empty device,
  // and GC really moved live pages of each.
  EXPECT_GT(tagged_blocks, 4u);
  EXPECT_GT(ssd.stats().tenants()[0].gc_pages, 0u);
  EXPECT_GT(ssd.stats().tenants()[1].gc_pages, 0u);
  // Every written page (half the logical space) is attributed to someone.
  EXPECT_EQ(ssd.engine().tenant_live_pages(0) +
                ssd.engine().tenant_live_pages(1),
            pages / 2);
}

// Capacity shares: the tenant that exhausts its quota bounces with kNoSpace
// while the other keeps writing — per-tenant graceful degradation, not a
// device-wide stall.
TEST(QosQuota, OverQuotaTenantRejectedOthersWrite) {
  auto config = test::tiny_config();
  config.qos.tenants = 2;
  config.qos.capacity_share_millis = 300;  // 30% of logical pages each
  sim::Ssd ssd(config, ftl::SchemeKind::kPageFtl);

  const std::uint32_t spp = config.geometry.sectors_per_page();
  const std::uint64_t pages = config.logical_sectors() / spp;
  SimTime t = 1;
  bool rejected = false;
  for (std::uint64_t p = 0; p < pages && !rejected; ++p) {
    ftl::IoRequest req{t, /*write=*/true, SectorRange::of(p * spp, spp)};
    req.tenant = 0;
    t += 1000;
    const auto completion = ssd.submit(req);
    if (!completion.accepted) {
      EXPECT_EQ(completion.status, ssd::Status::kNoSpace);
      rejected = true;
      // The quota, not the device, said no: tenant 0 sits at its share.
      EXPECT_GE(ssd.engine().tenant_live_pages(0), pages * 3 / 10);
    }
  }
  ASSERT_TRUE(rejected);
  EXPECT_GT(ssd.stats().tenants()[0].rejected_writes, 0u);

  // Tenant 1 is untouched by its neighbor's quota exhaustion.
  ftl::IoRequest other{t, /*write=*/true, SectorRange::of(0, spp)};
  other.tenant = 1;
  const auto completion = ssd.submit(other);
  EXPECT_TRUE(completion.accepted);

  // Overwrites within tenant 0's existing footprint add no live pages and
  // stay admissible — the quota caps the footprint, not the write rate.
  ftl::IoRequest overwrite{t + 1000, /*write=*/true, SectorRange::of(0, spp)};
  overwrite.tenant = 0;
  EXPECT_TRUE(ssd.submit(overwrite).accepted);
}

// Power cut in the middle of a mixed two-tenant workload with streams on:
// the mount must rebuild per-tenant attribution and stream frontiers from
// OOB stamps, pass the oracle-equivalence sweep, and finish the trace.
TEST(QosRecovery, PowerCutMidMixedWorkload) {
  auto config = ssd::SsdConfig::paper(/*page_kb=*/8, /*blocks_per_plane=*/24);
  config.track_payload = true;
  config.qos.tenants = 2;  // streams on; bucket off (crash replay contract)
  const auto mixed = trace::mix(
      {victim_trace(config, 500), noisy_trace(config, 500)});
  trace::ReplayOptions opts;
  opts.age_used = 0.85;

  for (const std::uint64_t seed : {3u, 11u}) {
    trace::PowerCutSpec spec;
    spec.seed = seed;  // at_op sampled from the run's own op horizon
    const auto out = trace::replay_with_power_cut(
        config, ftl::SchemeKind::kAcrossFtl, mixed, spec, opts);
    ASSERT_TRUE(out.crashed) << "seed " << seed;
    // The oracle sweep inside the harness aborts on divergence; reaching
    // here with the full space verified is the durability statement.
    EXPECT_EQ(out.verified_sectors, config.logical_sectors());
    EXPECT_GT(out.recovery.blocks_scanned + out.recovery.pages_scanned,
              0u);
    // The continuation ran as a two-tenant device.
    ASSERT_EQ(out.result.stats.tenants().size(), 2u);
  }
}

}  // namespace
}  // namespace af
