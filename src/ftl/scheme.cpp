#include "ftl/scheme.h"

#include "ftl/across_ftl.h"
#include "ftl/mrsm_ftl.h"
#include "ftl/page_ftl.h"

namespace af::ftl {

FtlScheme::FtlScheme(ssd::Engine& engine) : engine_(engine) {
  pgeom_.sectors_per_page = engine.geometry().sectors_per_page();
}

ssd::Engine::Programmed FtlScheme::program_sub(const SubRequest& sub, Ppn old,
                                               SimTime ready,
                                               const nand::OobExtra* oob) {
  const SectorRange page = pgeom_.page_range(sub.lpn);
  if (sub.range != page && old.valid()) {
    // Read-modify-write: fetch the old page to preserve untouched sectors.
    ready = engine_.flash_read(old, ssd::OpKind::kDataRead, ready).done;
    engine_.stats().count_rmw_read();
  }
  // Stamps ride the program itself (data and spare land atomically on real
  // flash, and power-cut recovery depends on that).
  std::vector<std::uint64_t> stamps;
  if (tracking()) {
    for (std::uint32_t s = 0; s < pgeom_.sectors_per_page; ++s) {
      const SectorAddr logical = page.begin + s;
      if (sub.range.contains(logical)) {
        stamps.push_back(new_stamp(logical));
      } else {
        stamps.push_back(old.valid() ? engine_.read_stamp(old, s) : 0);
      }
    }
  }
  // Drop the superseded copy BEFORE programming its replacement: the program
  // can run GC, and a still-valid old copy it relocated would re-claim its
  // stale payload with a newer OOB seq after a power cut (recovery replays
  // claims newest-last). The stamps staged above already carried the payload
  // forward, and invalidation is RAM-only — a cut before the program still
  // recovers the old copy, the legal outcome for an unacknowledged write.
  if (old.valid()) engine_.invalidate(old);
  return engine_.flash_program(ssd::Stream::kData,
                               nand::PageOwner::data(sub.lpn),
                               ssd::OpKind::kDataWrite, ready, oob,
                               tracking() ? &stamps : nullptr);
}

std::vector<SubRequest> split(SectorRange range, const PageGeometry& geom) {
  std::vector<SubRequest> subs;
  if (range.empty()) return subs;
  auto [first, last] = geom.lpn_span(range);
  subs.reserve(last.get() - first.get() + 1);
  for (std::uint64_t l = first.get(); l <= last.get(); ++l) {
    const Lpn lpn{l};
    SectorRange piece = range.intersect(geom.page_range(lpn));
    AF_CHECK(!piece.empty());
    subs.push_back({lpn, piece});
  }
  return subs;
}

ssd::ReqClass classify(const IoRequest& req, const PageGeometry& geom) {
  const bool across = geom.is_across_page(req.range);
  // Trims count as writes: they mutate the device and contend for the same
  // mapping-table resources, even though no data transfers.
  if (req.write || req.trim) {
    return across ? ssd::ReqClass::kAcrossWrite : ssd::ReqClass::kNormalWrite;
  }
  return across ? ssd::ReqClass::kAcrossRead : ssd::ReqClass::kNormalRead;
}

const char* to_string(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kPageFtl: return "FTL";
    case SchemeKind::kMrsm: return "MRSM";
    case SchemeKind::kAcrossFtl: return "Across-FTL";
  }
  return "?";
}

std::unique_ptr<FtlScheme> make_scheme(SchemeKind kind, ssd::Engine& engine) {
  std::unique_ptr<FtlScheme> scheme;
  switch (kind) {
    case SchemeKind::kPageFtl:
      scheme = std::make_unique<PageFtl>(engine);
      break;
    case SchemeKind::kMrsm:
      scheme = std::make_unique<MrsmFtl>(engine);
      break;
    case SchemeKind::kAcrossFtl:
      scheme = std::make_unique<AcrossFtl>(engine);
      break;
  }
  FtlScheme* raw = scheme.get();
  engine.set_relocator([raw](Ppn victim, const nand::PageOwner& owner,
                             SimTime& clock) {
    raw->gc_relocate(victim, owner, clock);
  });
  return scheme;
}

}  // namespace af::ftl
