// Micro-benchmarks of the simulator engine itself: request service rates per
// scheme, mapping-directory touch costs, and GC throughput. These bound how
// fast the figure benches can replay traces.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "sim/ssd.h"
#include "ssd/engine.h"

namespace {

using namespace af;

ssd::SsdConfig micro_config() {
  auto config = ssd::SsdConfig::paper(8, 16);
  config.track_payload = false;
  return config;
}

void run_scheme_writes(benchmark::State& state, ftl::SchemeKind kind) {
  sim::Ssd ssd(micro_config(), kind);
  const auto spp = ssd.config().geometry.sectors_per_page();
  const auto pages = ssd.config().logical_pages();
  Rng rng(7);
  SimTime t = 0;
  for (auto _ : state) {
    const std::uint64_t p = rng.below(pages / 2);
    const bool across = rng.chance(0.25);
    SectorRange range =
        across && p > 0
            ? SectorRange::of(p * spp - rng.between(1, 7), 8)
            : SectorRange::of(p * spp, spp);
    ftl::IoRequest req{t, true, range};
    t += 10'000;
    benchmark::DoNotOptimize(ssd.submit(req));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_WriteRequests_PageFtl(benchmark::State& state) {
  run_scheme_writes(state, ftl::SchemeKind::kPageFtl);
}
void BM_WriteRequests_Mrsm(benchmark::State& state) {
  run_scheme_writes(state, ftl::SchemeKind::kMrsm);
}
void BM_WriteRequests_AcrossFtl(benchmark::State& state) {
  run_scheme_writes(state, ftl::SchemeKind::kAcrossFtl);
}
BENCHMARK(BM_WriteRequests_PageFtl);
BENCHMARK(BM_WriteRequests_Mrsm);
BENCHMARK(BM_WriteRequests_AcrossFtl);

void BM_ReadRequests_AcrossFtl(benchmark::State& state) {
  sim::Ssd ssd(micro_config(), ftl::SchemeKind::kAcrossFtl);
  const auto spp = ssd.config().geometry.sectors_per_page();
  Rng rng(9);
  SimTime t = 0;
  for (std::uint64_t p = 0; p < 512; ++p) {
    (void)ssd.submit({t++, true, SectorRange::of(p * spp, spp)});
  }
  for (std::uint64_t b = 2; b < 500; b += 2) {
    (void)ssd.submit({t++, true, SectorRange::of(b * spp - 4, 10)});
  }
  for (auto _ : state) {
    const std::uint64_t p = rng.below(500);
    benchmark::DoNotOptimize(
        ssd.submit({t, false, SectorRange::of(p * spp + 4, 10)}));
    t += 10'000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadRequests_AcrossFtl);

void BM_MapDirectoryTouch(benchmark::State& state) {
  sim::Ssd ssd(micro_config(), ftl::SchemeKind::kPageFtl);
  auto& engine = ssd.engine();
  Rng rng(11);
  const auto span = static_cast<std::uint64_t>(state.range(0));
  SimTime t = 0;
  for (auto _ : state) {
    t = engine.map_touch(rng.below(span), rng.chance(0.5), t);
  }
  state.SetItemsProcessed(state.iterations());
}
// Small span: pure CMT hits. Large span (the scheme's whole translation
// table, exceeding the cache): miss/evict traffic.
BENCHMARK(BM_MapDirectoryTouch)->Arg(4)->Arg(12);

/// One-plane engine filled below the GC trigger with ~half its pages dead:
/// a realistic victim-weight distribution with no GC in the way. The
/// constant-full oracle forces the legacy scan to rescore every page per
/// pick — the O(blocks x pages) cost the weight index removes.
std::unique_ptr<ssd::Engine> victim_engine(std::uint32_t blocks,
                                           std::vector<Ppn>* leftover) {
  auto config = ssd::SsdConfig::paper(8, blocks);
  config.geometry.channels = 1;
  config.geometry.chips_per_channel = 1;
  config.geometry.dies_per_chip = 1;
  config.geometry.planes_per_die = 1;
  config.track_payload = false;
  auto engine = std::make_unique<ssd::Engine>(config);
  engine->set_victim_weight(
      [](Ppn) { return ssd::Engine::kFullPageWeight; });
  const std::uint32_t ppb = config.geometry.pages_per_block;
  const std::uint32_t fill = blocks - engine->plane_trigger_blocks(0) - 4;
  Rng rng(21);
  std::uint64_t lpn = 0;
  leftover->clear();
  for (std::uint64_t i = 0; i < std::uint64_t{fill} * ppb; ++i) {
    const Ppn ppn = engine
                        ->flash_program(ssd::Stream::kData,
                                        nand::PageOwner::data(Lpn{lpn++}),
                                        ssd::OpKind::kDataWrite, 0)
                        .ppn;
    if (rng.chance(0.5)) {
      engine->invalidate(ppn);
    } else {
      leftover->push_back(ppn);
    }
  }
  return engine;
}

/// Legacy path: full block scan with per-page rescoring on every pick.
void BM_PickVictimScan(benchmark::State& state) {
  std::vector<Ppn> pages;
  auto engine = victim_engine(static_cast<std::uint32_t>(state.range(0)),
                              &pages);
  std::size_t next = 0;
  for (auto _ : state) {
    if (next < pages.size()) engine->invalidate(pages[next++]);
    benchmark::DoNotOptimize(engine->pick_victim_scan(0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PickVictimScan)->Arg(32)->Arg(256);

/// Indexed path: lazy min-heap over incrementally maintained block weights.
void BM_PickVictimIndexed(benchmark::State& state) {
  std::vector<Ppn> pages;
  auto engine = victim_engine(static_cast<std::uint32_t>(state.range(0)),
                              &pages);
  std::size_t next = 0;
  for (auto _ : state) {
    if (next < pages.size()) engine->invalidate(pages[next++]);
    benchmark::DoNotOptimize(engine->pick_victim(0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PickVictimIndexed)->Arg(32)->Arg(256);

void BM_GcChurn(benchmark::State& state) {
  sim::Ssd ssd(micro_config(), ftl::SchemeKind::kPageFtl);
  const auto spp = ssd.config().geometry.sectors_per_page();
  const auto footprint = ssd.config().logical_pages() / 3;
  Rng rng(13);
  SimTime t = 0;
  for (auto _ : state) {
    (void)ssd.submit(
        {t++, true, SectorRange::of(rng.below(footprint) * spp, spp)});
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["gc_runs"] =
      static_cast<double>(ssd.engine().gc_runs());
}
BENCHMARK(BM_GcChurn);

}  // namespace
