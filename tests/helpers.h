// Shared test utilities: tiny device configs and random request workloads
// driven through the oracle.
#pragma once

#include <cstdint>

#include "common/check.h"
#include "common/rng.h"
#include "ftl/request.h"
#include "sim/ssd.h"
#include "sim/write_buffer.h"
#include "ssd/config.h"

namespace af::test {

/// Submits a request that must be accepted — the standard form for test
/// setup and workload loops, where a silent rejection (read-only
/// degradation) would invalidate everything the test asserts afterwards.
/// Tests that *expect* rejections capture Ssd::submit's result directly.
inline sim::Ssd::Completion submit_ok(sim::Ssd& ssd,
                                      const ftl::IoRequest& req) {
  const auto completion = ssd.submit(req);
  AF_CHECK_MSG(completion.accepted, "test request unexpectedly rejected");
  return completion;
}

inline sim::Ssd::Completion submit_ok(sim::BufferedSsd& buffered,
                                      const ftl::IoRequest& req) {
  const auto completion = buffered.submit(req);
  AF_CHECK_MSG(completion.accepted, "test request unexpectedly rejected");
  return completion;
}

/// Tiny payload-tracked device: 2×1×1×2 planes, 32 blocks/plane, 8 pages per
/// block, 8 KiB pages → 1024 physical pages.
inline ssd::SsdConfig tiny_config() { return ssd::SsdConfig::tiny(); }

/// Random mixed workload generator exercising every request shape: aligned
/// pages, sub-page writes, across-page requests, multi-page spans.
class WorkloadGen {
 public:
  WorkloadGen(std::uint64_t logical_sectors, std::uint32_t sectors_per_page,
              std::uint64_t seed)
      : sectors_(logical_sectors), spp_(sectors_per_page), rng_(seed) {}

  ftl::IoRequest next() {
    ftl::IoRequest req;
    req.arrival = now_;
    now_ += 1000 + rng_.below(100'000);
    req.write = rng_.chance(0.6);

    const std::uint32_t shape = static_cast<std::uint32_t>(rng_.below(5));
    SectorAddr off;
    SectorCount len;
    switch (shape) {
      case 0:  // full aligned page
        off = rng_.below(sectors_ / spp_) * spp_;
        len = spp_;
        break;
      case 1: {  // across-page
        len = rng_.between(2, spp_);
        const SectorAddr boundary =
            rng_.between(1, sectors_ / spp_ - 1) * spp_;
        off = boundary - rng_.between(1, len - 1);
        break;
      }
      case 2:  // small intra-page
        len = rng_.between(1, spp_ - 1);
        off = rng_.below(sectors_ / spp_) * spp_ +
              rng_.below(spp_ - len);
        break;
      case 3:  // multi-page span
        len = rng_.between(spp_ + 1, 4 * spp_);
        off = rng_.below(sectors_ - len);
        break;
      default:  // anything
        len = rng_.between(1, 3 * spp_);
        off = rng_.below(sectors_ - len);
        break;
    }
    req.range = SectorRange::of(off, len);
    return req;
  }

 private:
  std::uint64_t sectors_;
  std::uint32_t spp_;
  Rng rng_;
  SimTime now_ = 0;
};

/// Reads back the whole logical space page by page; the Ssd's oracle aborts
/// on any stale sector.
inline void verify_full_space(sim::Ssd& ssd) {
  const auto spp = ssd.config().geometry.sectors_per_page();
  const auto pages = ssd.config().logical_sectors() / spp;
  SimTime t = 1;
  for (std::uint64_t p = 0; p < pages; ++p) {
    ftl::IoRequest req{t++, /*write=*/false, SectorRange::of(p * spp, spp)};
    submit_ok(ssd, req);
  }
}

}  // namespace af::test
