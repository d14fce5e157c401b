#include "ftl/page_ftl.h"

#include <algorithm>

namespace af::ftl {

namespace {
constexpr std::uint64_t kPmtEntryBytes = 4;
}

PageFtl::PageFtl(ssd::Engine& engine) : FtlScheme(engine) {
  const std::uint64_t logical = engine.config().logical_pages();
  pmt_.assign(static_cast<std::size_t>(logical), Ppn{});
  entries_per_tpage_ = engine.geometry().page_bytes / kPmtEntryBytes;
  const std::uint64_t tpages =
      (logical + entries_per_tpage_ - 1) / entries_per_tpage_;
  engine.init_map_space(tpages);
}

SimTime PageFtl::write_sub(const SubRequest& sub, SimTime ready) {
  const auto programmed = program_sub(sub, pmt_[sub.lpn.get()], ready);
  pmt_[sub.lpn.get()] = programmed.ppn;
  journal_lpn(sub.lpn.get());
  return programmed.done;
}

SimTime PageFtl::write(const IoRequest& req, SimTime ready) {
  const auto subs = split(req.range, pgeom_);
  // Mapping lookups/updates serialise through the CMT …
  SimTime map_ready = ready;
  for (const auto& sub : subs) {
    map_ready = engine_.map_touch(map_page_of(sub.lpn), /*dirty=*/true,
                                  map_ready);
  }
  // … then page-level sub-requests proceed in parallel across chips.
  SimTime done = map_ready;
  for (const auto& sub : subs) {
    done = std::max(done, write_sub(sub, map_ready));
  }
  return done;
}

SimTime PageFtl::read(const IoRequest& req, SimTime ready, ReadPlan* plan) {
  const auto subs = split(req.range, pgeom_);
  SimTime map_ready = ready;
  for (const auto& sub : subs) {
    map_ready = engine_.map_touch(map_page_of(sub.lpn), /*dirty=*/false,
                                  map_ready);
  }
  SimTime done = map_ready;
  for (const auto& sub : subs) {
    const Ppn ppn = pmt_[sub.lpn.get()];
    if (ppn.valid()) {
      done = std::max(
          done,
          engine_.flash_read(ppn, ssd::OpKind::kDataRead, map_ready).done);
    }
    if (plan != nullptr && tracking()) {
      const SectorAddr base = pgeom_.page_range(sub.lpn).begin;
      for (SectorAddr s = sub.range.begin; s < sub.range.end; ++s) {
        const std::uint64_t stamp =
            ppn.valid()
                ? engine_.read_stamp(ppn, static_cast<std::uint32_t>(s - base))
                : 0;
        plan->observed.push_back({s, stamp});
      }
    }
  }
  return done;
}

SimTime PageFtl::trim(SectorRange range, SimTime ready) {
  const auto [first, last] = trim_span(range);
  // Drop every covered mapping before charging any mapping-table traffic: a
  // map eviction below can trigger GC, and a still-valid covered page it
  // relocated would carry an OOB seq newer than the trim's tombstone —
  // resurrecting the page after a power cut. Invalidation is RAM-only, so
  // no cut can land inside this loop.
  for (std::uint64_t l = first; l < last; ++l) {
    if (pmt_[l].valid()) {
      engine_.invalidate(pmt_[l]);
      pmt_[l] = Ppn{};
    }
    journal_lpn(l);
  }
  for (std::uint64_t l = first; l < last; ++l) {
    ready = engine_.map_touch(map_page_of(Lpn{l}), /*dirty=*/true, ready);
  }
  return ready;
}

void PageFtl::gc_relocate(Ppn victim, const nand::PageOwner& owner,
                          SimTime& clock) {
  AF_CHECK(owner.kind == nand::PageOwner::Kind::kData);
  const Lpn lpn{owner.id};
  AF_CHECK_MSG(pmt_[lpn.get()] == victim, "GC owner out of sync with PMT");

  clock = engine_.flash_read(victim, ssd::OpKind::kGcRead, clock).done;
  auto moved =
      engine_.gc_program(engine_.geometry().plane_of(victim), owner, clock);
  clock = moved.done;
  if (engine_.tracks_payload()) engine_.copy_stamps(victim, moved.ppn);
  engine_.invalidate(victim);
  pmt_[lpn.get()] = moved.ppn;
  journal_lpn(lpn.get());
  clock = engine_.map_touch(map_page_of(lpn), /*dirty=*/true, clock);
}

// --- RecoverableMapping -------------------------------------------------------

void PageFtl::serialize_mapping(ssd::ByteSink& sink) const {
  std::uint64_t count = 0;
  for (const Ppn ppn : pmt_) count += ppn.valid() ? 1u : 0u;
  sink.u64(count);
  for (std::uint64_t l = 0; l < pmt_.size(); ++l) {
    if (!pmt_[l].valid()) continue;
    sink.u64(l);
    sink.u64(pmt_[l].get());
  }
}

void PageFtl::serialize_delta(ssd::ByteSink& sink) {
  std::sort(dirty_lpns_.begin(), dirty_lpns_.end());
  dirty_lpns_.erase(std::unique(dirty_lpns_.begin(), dirty_lpns_.end()),
                    dirty_lpns_.end());
  sink.u64(dirty_lpns_.size());
  for (const std::uint64_t l : dirty_lpns_) {
    sink.u64(l);
    sink.u64(pmt_[l].get());
  }
  dirty_lpns_.clear();
}

void PageFtl::deserialize_mapping(ssd::ByteSource& src) {
  const std::uint64_t count = src.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t l = src.u64();
    AF_CHECK(l < pmt_.size());
    pmt_[l] = Ppn{src.u64()};
  }
}

void PageFtl::apply_delta(ssd::ByteSource& src) { deserialize_mapping(src); }

void PageFtl::recover_claim(const nand::OobRecord& oob, Ppn ppn) {
  AF_CHECK_MSG(oob.owner.kind == nand::PageOwner::Kind::kData,
               "unexpected OOB owner kind in page-FTL recovery");
  AF_CHECK(oob.owner.id < pmt_.size());
  pmt_[oob.owner.id] = ppn;  // newest seq wins — claims replay in order
}

void PageFtl::recover_trim(SectorRange range) {
  const auto [first, last] = trim_span(range);
  for (std::uint64_t l = first; l < last; ++l) pmt_[l] = Ppn{};
}

void PageFtl::recover_enumerate(
    const std::function<void(Ppn, nand::PageOwner)>& fn) const {
  for (std::uint64_t l = 0; l < pmt_.size(); ++l) {
    if (pmt_[l].valid()) fn(pmt_[l], nand::PageOwner::data(Lpn{l}));
  }
}

void PageFtl::recover_finalize() {}

std::uint64_t PageFtl::map_bytes() const {
  const auto* dir = engine_.map_directory();
  return dir ? dir->touched_pages() * engine_.geometry().page_bytes : 0;
}

Ppn PageFtl::mapping(Lpn lpn) const {
  AF_CHECK(lpn.get() < pmt_.size());
  return pmt_[lpn.get()];
}

}  // namespace af::ftl
