#include "ssd/config.h"

#include "common/check.h"

namespace af::ssd {

SsdConfig SsdConfig::paper(std::uint32_t page_kb, std::uint32_t blocks_per_plane) {
  AF_CHECK(page_kb == 4 || page_kb == 8 || page_kb == 16);
  SsdConfig cfg;
  cfg.geometry.channels = 4;
  cfg.geometry.chips_per_channel = 2;
  cfg.geometry.dies_per_chip = 2;
  cfg.geometry.planes_per_die = 2;
  cfg.geometry.blocks_per_plane = blocks_per_plane;
  cfg.geometry.pages_per_block = 64;  // Table 1
  cfg.geometry.page_bytes = page_kb * 1024;
  cfg.timing = nand::Timing::preset(nand::CellType::kTlc, cfg.geometry.page_bytes);
  cfg.gc_threshold = 0.10;  // Table 1
  // DRAM mapping-cache budget: one baseline-table's worth of entries. The
  // hot footprint of FTL's table (and Across-FTL's ~1.5x-denser one) fits;
  // MRSM's ~4x sub-page table does not (§4.2.4: only 42.1% of MRSM entries
  // stay cached), which is where its map-traffic penalty comes from.
  cfg.map_cache_bytes = cfg.logical_pages() * 28 / 10;
  return cfg;
}

SsdConfig SsdConfig::tiny() {
  SsdConfig cfg;
  cfg.geometry.channels = 2;
  cfg.geometry.chips_per_channel = 1;
  cfg.geometry.dies_per_chip = 1;
  cfg.geometry.planes_per_die = 2;
  cfg.geometry.blocks_per_plane = 32;
  cfg.geometry.pages_per_block = 8;
  cfg.geometry.page_bytes = 8192;
  cfg.timing = nand::Timing::preset(nand::CellType::kTlc, cfg.geometry.page_bytes);
  cfg.gc_threshold = 0.15;
  cfg.exported_fraction = 0.75;
  cfg.map_cache_bytes = 16 * cfg.geometry.page_bytes;
  cfg.track_payload = true;
  return cfg;
}

}  // namespace af::ssd
