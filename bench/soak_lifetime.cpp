// Device-lifetime soak (DESIGN.md §9): burns a tiny geometry to end-of-life
// under mixed write/trim churn with periodic power cuts and full remounts,
// once with wear leveling off and once with it on. Stage rows sample the
// burn every few thousand ops; the final row per combination is the EOL
// point — the op count at which the device entered read-only — so the
// leveling comparison shows both the narrowed erase spread and the lifetime
// it buys. Runs without payload tracking: the oracle-audited counterpart is
// tests/integration/lifetime_soak_test.cpp; this binary prices the endgame.
//
// Knobs (environment): SOAK_OPS caps the op budget (default 150000).
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "common.h"
#include "common/rng.h"
#include "nand/power.h"
#include "sim/ssd.h"

namespace {

af::ssd::SsdConfig soak_config(bool wear_leveling) {
  auto config = af::ssd::SsdConfig::tiny();
  config.track_payload = false;  // measurement harness, not a correctness one
  // Same ramp as the soak test: past 18 erases a block's program/erase fault
  // odds grow 3 % per further erase, so spares drain within the op budget.
  config.faults.wear_onset = 18;
  config.faults.wear_slope = 0.03;
  config.capacity.wear_spread_threshold = wear_leveling ? 6 : 0;
  config.checkpoint.interval_requests = 32;
  return config;
}

std::uint64_t op_budget() {
  // getenv runs once at startup, before any ThreadPool exists.
  if (const char* env = std::getenv("SOAK_OPS")) {  // NOLINT(concurrency-mt-unsafe)
    const auto v = std::strtoull(env, nullptr, 10);
    if (v > 0) return v;
  }
  return 150'000;
}

}  // namespace

int main() {
  using namespace af;
  bench::print_header("Lifetime soak: burn to read-only (wear off vs on)",
                      soak_config(false));
  const std::uint64_t budget = op_budget();
  std::printf("op budget %llu (SOAK_OPS), power cut every 9000 submits, "
              "trim every 97th op\n\n",
              static_cast<unsigned long long>(budget));

  Table table({"scheme", "wear lvl", "stage", "ops", "mounts", "erases",
               "retired", "spread", "trims", "free pgs"});

  for (const ftl::SchemeKind kind : bench::all_schemes()) {
    for (const bool wear : {false, true}) {
      const auto config = soak_config(wear);
      const std::uint32_t spp = config.geometry.sectors_per_page();
      const std::uint64_t pages = config.logical_sectors() / spp;
      auto ssd = std::make_unique<sim::Ssd>(config, kind);
      Rng rng(41);
      SimTime t = 1;
      std::uint64_t ops = 0;
      std::uint64_t mounts = 0;
      std::uint64_t total_trims = 0;
      std::uint64_t total_erases = 0;
      std::uint64_t next_stage = 5'000;  // EOL lands in the low tens of
                                         // thousands at this wear ramp

      const auto add_row = [&](const char* stage) {
        const auto& array = ssd->engine().array();
        table.add_row({ftl::to_string(kind), wear ? "on" : "off", stage,
                       Table::num(ops), Table::num(mounts),
                       Table::num(total_erases + ssd->stats().erases()),
                       Table::num(array.counters().retired_blocks),
                       Table::num(array.wear().spread()),
                       Table::num(total_trims + ssd->stats().faults().trims),
                       Table::num(ssd->engine().free_headroom_pages())});
      };
      // Per-incarnation counters reset at every mount; lifetime totals
      // accumulate across all the device's incarnations.
      const auto bank = [&] {
        total_trims += ssd->stats().faults().trims;
        total_erases += ssd->stats().erases();
      };

      while (ops < budget && !ssd->engine().read_only()) {
        ssd->engine().array().arm_power_cut(
            {/*at_op=*/3'000 + (mounts % 5) * 800, /*seed=*/mounts + 1});
        bool crashed = false;
        try {
          for (std::uint64_t i = 0; i < 9'000 && ops < budget; ++i, ++ops) {
            ftl::IoRequest req{t++, /*write=*/true, {}, /*trim=*/false};
            if (ops % 97 == 0) {
              const std::uint64_t base = (ops / 97 * 7) % (pages / 2);
              const std::uint64_t len = std::min<std::uint64_t>(8, pages - base);
              req.write = false;
              req.trim = true;
              req.range = SectorRange::of(base * spp, len * spp);
            } else {
              // Mixed shapes so the schemes actually diverge: aligned pages
              // for the common case, sub-page writes to populate MRSM slots,
              // across-page spans to populate Across areas.
              const std::uint64_t p = rng.below(pages / 2 - 1);
              const std::uint32_t shape = static_cast<std::uint32_t>(rng.below(5));
              if (shape == 0) {  // sub-page
                const SectorCount len = rng.between(1, spp - 1);
                req.range = SectorRange::of(p * spp + rng.below(spp - len), len);
              } else if (shape == 1) {  // across-page
                const SectorCount len = rng.between(2, spp);
                req.range =
                    SectorRange::of((p + 1) * spp - rng.between(1, len - 1), len);
              } else {  // full aligned page
                req.range = SectorRange::of(p * spp, spp);
              }
            }
            const auto completion = ssd->submit(req);
            if (!completion.accepted &&
                completion.status == ssd::Status::kReadOnly) {
              break;
            }
            if (ops >= next_stage) {
              add_row("stage");
              next_stage += 5'000;
            }
          }
        } catch (const nand::PowerLoss&) {
          crashed = true;
        }
        // A blackout mid-request leaves RAM state torn: remount before any
        // further use. Without one, a clean read-only exit ends the burn.
        if (!crashed) {
          if (ssd->engine().read_only()) break;
          continue;
        }
        bank();
        nand::FlashArray image = ssd->release_flash();
        ssd = sim::Ssd::mount(config, kind, std::move(image), nullptr, nullptr);
        ++mounts;
      }
      add_row(ssd->engine().read_only() ? "EOL" : "budget");
    }
  }
  table.print(std::cout);
  return 0;
}
