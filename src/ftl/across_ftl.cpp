#include "ftl/across_ftl.h"

#include <algorithm>
#include <unordered_set>

namespace af::ftl {

namespace {
// PMT entries carry the PPN plus the paper's AIdx field (4 + 2 bytes); AMT
// entries hold {AIdx, Off, Size, APPN} (16 bytes, §3.2).
constexpr std::uint64_t kPmtEntryBytes = 6;
constexpr std::uint64_t kAmtEntryBytes = 16;
}  // namespace

AcrossFtl::AcrossFtl(ssd::Engine& engine) : FtlScheme(engine) {
  const std::uint64_t logical = engine.config().logical_pages();
  pmt_.assign(static_cast<std::size_t>(logical), PmtEntry{});
  pmt_entries_per_tpage_ = engine.geometry().page_bytes / kPmtEntryBytes;
  amt_entries_per_tpage_ = engine.geometry().page_bytes / kAmtEntryBytes;
  pmt_tpages_ = (logical + pmt_entries_per_tpage_ - 1) / pmt_entries_per_tpage_;
  // At most one live area per LPN pair; size the id space generously.
  max_amt_entries_ = logical;
  const std::uint64_t amt_tpages =
      (max_amt_entries_ + amt_entries_per_tpage_ - 1) / amt_entries_per_tpage_;
  engine.init_map_space(pmt_tpages_ + amt_tpages);

  // Valve watermark: stop minting areas before live data reaches the level
  // where a plane can no longer keep gc_trigger_blocks() free (plus margin
  // for GC/map active blocks and rollback transients).
  const double bpp = engine.geometry().blocks_per_plane;
  pressure_watermark_ =
      1.0 - (static_cast<double>(engine.gc_trigger_blocks()) + 2.0) / bpp;

  area_weight_on_ = engine.config().across.area_live_weight;
  if (area_weight_on_) {
    // Area pages shrink below a page of live sectors; score them by their
    // remaining range so heavily-shrunk areas become preferred GC victims.
    // This oracle is the pull-side ground truth; push_area_weight() keeps the
    // engine's incremental accounting in lockstep with it.
    engine.set_victim_weight([this](Ppn ppn) -> std::uint32_t {
      const nand::PageOwner& owner = engine_.array().owner(ppn);
      if (owner.kind == nand::PageOwner::Kind::kAcross) {
        const auto aidx = static_cast<std::uint32_t>(owner.id);
        if (aidx < amt_.size() && amt_[aidx].live && amt_[aidx].appn == ppn) {
          return area_weight(amt_[aidx].range);
        }
      }
      return ssd::Engine::kFullPageWeight;
    });
  }
}

void AcrossFtl::push_area_weight(std::uint32_t aidx) {
  if (!area_weight_on_) return;
  const AmtEntry& entry = amt_[aidx];
  AF_CHECK(entry.live && entry.appn.valid());
  engine_.note_page_weight(entry.appn, area_weight(entry.range));
}

bool AcrossFtl::under_pressure() const {
  return engine_.array().valid_fraction() >= pressure_watermark_;
}

SimTime AcrossFtl::drain_one_area(SimTime ready) {
  while (!area_fifo_.empty()) {
    const auto [aidx, generation] = area_fifo_.front();
    area_fifo_.pop_front();
    if (amt_[aidx].live && amt_[aidx].generation == generation) {
      ++engine_.stats().across().pressure_evictions;
      return rollback(aidx, std::nullopt, ready);
    }
  }
  return ready;
}

SimTime AcrossFtl::touch_pmt(Lpn lpn, bool dirty, SimTime ready) {
  return engine_.map_touch(pmt_tpage_of(lpn), dirty, ready);
}

SimTime AcrossFtl::touch_amt(std::uint32_t aidx, bool dirty, SimTime ready) {
  return engine_.map_touch(amt_tpage_of(aidx), dirty, ready);
}

std::uint32_t AcrossFtl::alloc_area() {
  std::uint32_t aidx;
  if (!amt_free_.empty()) {
    aidx = amt_free_.back();
    amt_free_.pop_back();
  } else {
    AF_CHECK_MSG(amt_.size() < max_amt_entries_, "AMT id space exhausted");
    aidx = static_cast<std::uint32_t>(amt_.size());
    amt_.emplace_back();
  }
  amt_[aidx].live = true;
  ++amt_[aidx].generation;
  area_fifo_.emplace_back(aidx, amt_[aidx].generation);
  ++live_areas_;
  journal_area(aidx);
  auto& across = engine_.stats().across();
  ++across.areas_created;
  across.peak_live_areas = std::max(across.peak_live_areas, live_areas_);
  return aidx;
}

void AcrossFtl::free_area(std::uint32_t aidx) {
  AmtEntry& entry = amt_[aidx];
  AF_CHECK(entry.live);
  // Clear the AIdx marks of every LPN the area still covers.
  auto [first, last] = pgeom_.lpn_span(entry.range);
  for (std::uint64_t l = first.get(); l <= last.get(); ++l) {
    if (pmt_[l].aidx == aidx) {
      pmt_[l].aidx = kNoArea;
      journal_lpn(l);
    }
  }
  journal_area(aidx);
  const std::uint32_t generation = entry.generation;
  entry = AmtEntry{};
  entry.generation = generation;  // survives reuse: valve FIFO validity
  amt_free_.push_back(aidx);
  AF_CHECK(live_areas_ > 0);
  --live_areas_;
}

// --- Write routines -----------------------------------------------------------

SimTime AcrossFtl::direct_write(SectorRange w, SimTime ready) {
  const std::uint32_t aidx = alloc_area();
  auto [first, last] = pgeom_.lpn_span(w);
  ready = touch_pmt(first, /*dirty=*/true, ready);
  ready = touch_pmt(last, /*dirty=*/true, ready);
  ready = touch_amt(aidx, /*dirty=*/true, ready);

  const nand::OobExtra oob{w.begin, w.end, w.begin, {}};
  std::vector<std::uint64_t> stamps;
  if (tracking()) {
    for (std::uint32_t i = 0; i < w.size(); ++i) {
      stamps.push_back(new_stamp(w.begin + i));
    }
  }
  auto programmed = engine_.flash_program(
      ssd::Stream::kData, nand::PageOwner::across(AmtIndex{aidx}),
      ssd::OpKind::kDataWrite, ready, &oob, tracking() ? &stamps : nullptr);

  amt_[aidx].range = w;
  amt_[aidx].appn = programmed.ppn;
  amt_[aidx].slot_base = w.begin;
  push_area_weight(aidx);
  for (std::uint64_t l = first.get(); l <= last.get(); ++l) {
    pmt_[l].aidx = aidx;
    journal_lpn(l);
  }
  ++engine_.stats().across().direct_writes;
  return programmed.done;
}

SimTime AcrossFtl::amerge(std::uint32_t aidx, SectorRange w, bool profitable,
                          SimTime ready) {
  AmtEntry& entry = amt_[aidx];
  AF_CHECK(entry.live && entry.range.touches(w));
  const SectorRange merged = entry.range.hull(w);
  AF_CHECK(merged.size() <= pgeom_.sectors_per_page);

  ready = touch_amt(aidx, /*dirty=*/true, ready);
  // The merged range may cover an LPN the old one did not (e.g. a degenerate
  // single-page area re-growing across the boundary): re-mark the pair.
  auto [first, last] = pgeom_.lpn_span(merged);
  for (std::uint64_t l = first.get(); l <= last.get(); ++l) {
    if (pmt_[l].aidx != aidx) {
      AF_CHECK_MSG(pmt_[l].aidx == kNoArea, "area collision during AMerge");
      pmt_[l].aidx = aidx;
      journal_lpn(l);
      ready = touch_pmt(Lpn{l}, /*dirty=*/true, ready);
    }
  }
  // Carry the not-overwritten part of the old area into the new page.
  ready = engine_.flash_read(entry.appn, ssd::OpKind::kDataRead, ready).done;
  engine_.stats().count_rmw_read();

  const nand::OobExtra oob{merged.begin, merged.end, merged.begin, {}};
  std::vector<std::uint64_t> stamps;
  if (tracking()) {
    for (std::uint32_t i = 0; i < merged.size(); ++i) {
      const SectorAddr s = merged.begin + i;
      if (w.contains(s)) {
        stamps.push_back(new_stamp(s));
      } else {
        AF_CHECK(entry.range.contains(s));
        stamps.push_back(engine_.read_stamp(entry.appn, entry.slot_of(s)));
      }
    }
  }
  // Invalidate the old area page BEFORE the program (its stamps are staged
  // above): GC inside the program must never relocate the superseded copy,
  // or its stale payload would out-seq the merge in power-cut recovery.
  engine_.invalidate(entry.appn);
  auto programmed = engine_.flash_program(
      ssd::Stream::kData, nand::PageOwner::across(AmtIndex{aidx}),
      ssd::OpKind::kDataWrite, ready, &oob, tracking() ? &stamps : nullptr);

  entry.range = merged;
  entry.appn = programmed.ppn;
  entry.slot_base = merged.begin;
  journal_area(aidx);
  push_area_weight(aidx);

  auto& across = engine_.stats().across();
  if (profitable) {
    ++across.profitable_amerge;
  } else {
    ++across.unprofitable_amerge;
  }
  return programmed.done;
}

SimTime AcrossFtl::rollback(std::uint32_t aidx, std::optional<SectorRange> u,
                            SimTime ready) {
  AmtEntry& area = amt_[aidx];
  AF_CHECK(area.live);
  const SectorRange hull = u ? area.range.hull(*u) : area.range;
  auto [first, last] = pgeom_.lpn_span(hull);

  ready = touch_amt(aidx, /*dirty=*/true, ready);
  // Dependencies: the old area page, plus any *other* live areas and normal
  // pages whose sectors feed the merged full-page writes.
  ready = engine_.flash_read(area.appn, ssd::OpKind::kDataRead, ready).done;
  engine_.stats().count_rmw_read();

  // Stage every page's stamps before the first program: each superseded
  // source (the rolled-back area, old page copies, other areas' shares) is
  // invalidated before the program that replaces it, because GC inside a
  // program must never relocate superseded state — after a power cut the
  // relocated stale copy would out-seq the rewrite in recovery's OOB replay.
  // Staging first keeps the payload available once its source is dropped.
  std::vector<std::vector<std::uint64_t>> staged;
  if (tracking()) {
    for (std::uint64_t l = first.get(); l <= last.get(); ++l) {
      const SectorRange page = pgeom_.page_range(Lpn{l});
      const PmtEntry& pe = pmt_[l];
      const std::uint32_t other = (pe.aidx != aidx) ? pe.aidx : kNoArea;
      std::vector<std::uint64_t> stamps;
      for (std::uint32_t i = 0; i < pgeom_.sectors_per_page; ++i) {
        const SectorAddr s = page.begin + i;
        std::uint64_t stamp = 0;
        if (u && u->contains(s)) {
          stamp = new_stamp(s);
        } else if (area.range.contains(s)) {
          stamp = engine_.read_stamp(area.appn, area.slot_of(s));
        } else if (other != kNoArea && amt_[other].range.contains(s)) {
          stamp = engine_.read_stamp(amt_[other].appn, amt_[other].slot_of(s));
        } else if (pe.ppn.valid()) {
          stamp = engine_.read_stamp(pe.ppn, i);
        }
        stamps.push_back(stamp);
      }
      staged.push_back(std::move(stamps));
    }
  }
  // The rolled-back area is superseded wholesale by the rewrites below.
  engine_.invalidate(area.appn);

  SimTime done = ready;
  for (std::uint64_t l = first.get(); l <= last.get(); ++l) {
    const Lpn lpn{l};
    const SectorRange page = pgeom_.page_range(lpn);
    PmtEntry& pe = pmt_[l];
    const std::uint32_t other = (pe.aidx != aidx) ? pe.aidx : kNoArea;

    SimTime cursor = touch_pmt(lpn, /*dirty=*/true, ready);
    if (other != kNoArea) {
      cursor = touch_amt(other, /*dirty=*/true, cursor);
      cursor = engine_.flash_read(amt_[other].appn, ssd::OpKind::kDataRead,
                                  cursor)
                   .done;
      engine_.stats().count_rmw_read();
    }
    if (pe.ppn.valid()) {
      cursor = engine_.flash_read(pe.ppn, ssd::OpKind::kDataRead, cursor).done;
      engine_.stats().count_rmw_read();
    }

    // Drop what this rewrite supersedes (see the staging note above): the
    // old page copy, and — since the page is rewritten in full — any other
    // area's now-stale share of it.
    if (pe.ppn.valid()) engine_.invalidate(pe.ppn);
    if (other != kNoArea) {
      AmtEntry& oe = amt_[other];
      const auto diff = oe.range.subtract(page);
      const SectorRange rem = diff.left.empty() ? diff.right : diff.left;
      if (rem.empty()) {
        engine_.invalidate(oe.appn);
        free_area(other);
      } else {
        oe.range = rem;
        journal_area(other);
        push_area_weight(other);
        pe.aidx = kNoArea;
      }
      ++engine_.stats().across().area_shrinks;
    }

    // Rollback rewrites the page in full (area content merged in), so the
    // OOB write range is the whole page: recovery dissolves every area's
    // share here, exactly like the live path below.
    const nand::OobExtra oob{page.begin, page.end, 0, {}};
    auto programmed = engine_.flash_program(
        ssd::Stream::kData, nand::PageOwner::data(lpn),
        ssd::OpKind::kDataWrite, cursor, &oob,
        tracking() ? &staged[l - first.get()] : nullptr);

    pe.ppn = programmed.ppn;
    journal_lpn(l);
    done = std::max(done, programmed.done);
  }

  free_area(aidx);
  ++engine_.stats().across().rollbacks;
  return done;
}

SimTime AcrossFtl::write_normal_sub(const SubRequest& sub, SimTime ready) {
  PmtEntry& pe = pmt_[sub.lpn.get()];
  // OOB carries the logical write range: recovery uses it to tell a write
  // that superseded an area's share of this page (replay the shrink) from
  // one that landed beside it (area and page-mode data stay side by side).
  const nand::OobExtra oob{sub.range.begin, sub.range.end, 0, {}};
  const auto programmed = program_sub(sub, pe.ppn, ready, &oob);
  pe.ppn = programmed.ppn;
  journal_lpn(sub.lpn.get());
  return programmed.done;
}

SimTime AcrossFtl::write_sub(const SubRequest& sub, SimTime ready) {
  ready = touch_pmt(sub.lpn, /*dirty=*/true, ready);
  const std::uint32_t aidx = pmt_[sub.lpn.get()].aidx;
  if (aidx == kNoArea) return write_normal_sub(sub, ready);

  AmtEntry& area = amt_[aidx];
  const SectorRange page = pgeom_.page_range(sub.lpn);
  const SectorRange share = area.range.intersect(page);
  AF_CHECK_MSG(!share.empty(), "AIdx mark without coverage (invariant I1)");
  const SectorRange r = sub.range;
  const auto& policy = engine_.config().across;

  if (r.contains(share)) {
    if (!policy.enable_shrink) return rollback(aidx, r, ready);
    // The area's entire share of this page is overwritten: shrink the area
    // to its remainder in the neighbouring page (metadata only), or drop it.
    ready = touch_amt(aidx, /*dirty=*/true, ready);
    const auto diff = area.range.subtract(page);
    const SectorRange rem = diff.left.empty() ? diff.right : diff.left;
    if (rem.empty()) {
      engine_.invalidate(area.appn);
      free_area(aidx);
    } else {
      area.range = rem;
      journal_area(aidx);
      push_area_weight(aidx);
      pmt_[sub.lpn.get()].aidx = kNoArea;
      journal_lpn(sub.lpn.get());
    }
    ++engine_.stats().across().area_shrinks;
    return write_normal_sub(sub, ready);
  }

  if (r.overlaps(area.range) || r.touches(area.range)) {
    const SectorRange hull = area.range.hull(r);
    if (policy.enable_amerge && hull.size() <= pgeom_.sectors_per_page) {
      return amerge(aidx, r, /*profitable=*/false, ready);
    }
    if (r.overlaps(area.range)) {
      return rollback(aidx, r, ready);
    }
    // Adjacent but not mergeable: leave the area alone.
  }
  return write_normal_sub(sub, ready);
}

SimTime AcrossFtl::trim(SectorRange range, SimTime ready) {
  const auto [first, last] = trim_span(range);
  // RAM phase first: every covered mapping (normal page and area share)
  // dies before any mapping-table traffic is charged — a map eviction can
  // trigger GC, and a relocated covered page would out-seq the trim
  // tombstone and resurrect after a power cut.
  std::vector<std::uint32_t> touched_areas;
  for (std::uint64_t l = first; l < last; ++l) {
    const Lpn lpn{l};
    PmtEntry& pe = pmt_[l];
    if (pe.aidx != kNoArea) {
      // A fully-covered page takes the area's whole share with it: shrink
      // the area to its remainder in the neighbouring page (metadata only),
      // or drop it outright — the same outcomes as write_sub's full-cover
      // path, minus the replacement program.
      const std::uint32_t aidx = pe.aidx;
      AmtEntry& area = amt_[aidx];
      touched_areas.push_back(aidx);
      const auto diff = area.range.subtract(pgeom_.page_range(lpn));
      const SectorRange rem = diff.left.empty() ? diff.right : diff.left;
      if (rem.empty()) {
        engine_.invalidate(area.appn);
        free_area(aidx);
      } else {
        area.range = rem;
        journal_area(aidx);
        push_area_weight(aidx);
        pe.aidx = kNoArea;
      }
      ++engine_.stats().across().area_shrinks;
    }
    if (pe.ppn.valid()) {
      engine_.invalidate(pe.ppn);
      pe.ppn = Ppn{};
    }
    journal_lpn(l);
  }
  for (std::uint64_t l = first; l < last; ++l) {
    ready = touch_pmt(Lpn{l}, /*dirty=*/true, ready);
  }
  for (const std::uint32_t aidx : touched_areas) {
    ready = touch_amt(aidx, /*dirty=*/true, ready);
  }
  return ready;
}

SimTime AcrossFtl::write_across(const IoRequest& req, SimTime ready) {
  const auto [first, last] = pgeom_.lpn_span(req.range);
  AF_CHECK(last.get() == first.get() + 1);
  const std::uint32_t a1 = pmt_[first.get()].aidx;
  const std::uint32_t a2 = pmt_[last.get()].aidx;

  ready = touch_pmt(first, /*dirty=*/true, ready);
  ready = touch_pmt(last, /*dirty=*/true, ready);

  const bool amerge_on = engine_.config().across.enable_amerge;
  if (a1 != kNoArea && a1 == a2) {
    // The pair already has an area; both spanning the same page boundary,
    // the ranges necessarily overlap.
    const SectorRange hull = amt_[a1].range.hull(req.range);
    if (amerge_on && hull.size() <= pgeom_.sectors_per_page) {
      return amerge(a1, req.range, /*profitable=*/true, ready);  // §3.3 AMerge
    }
    return rollback(a1, req.range, ready);  // §3.3 ARollback
  }

  std::vector<std::uint32_t> candidates;
  if (a1 != kNoArea) candidates.push_back(a1);
  if (a2 != kNoArea && a2 != a1) candidates.push_back(a2);

  if (candidates.size() == 1) {
    const std::uint32_t a = candidates.front();
    const SectorRange arange = amt_[a].range;
    if (amerge_on && arange.touches(req.range) &&
        arange.hull(req.range).size() <= pgeom_.sectors_per_page) {
      // A degenerate (single-page) area re-growing across the boundary.
      return amerge(a, req.range, /*profitable=*/true, ready);
    }
    if (arange.overlaps(req.range)) {
      return rollback(a, req.range, ready);
    }
    // Disjoint conflict: the pair can hold only one area (one AIdx per LPN),
    // so dissolve the old one first, then remap the new request.
    ready = rollback(a, std::nullopt, ready);
    return direct_write(req.range, ready);
  }
  if (candidates.size() == 2) {
    // Both neighbours belong to different areas; dissolve both.
    for (std::uint32_t a : candidates) {
      if (amt_[a].live) ready = rollback(a, std::nullopt, ready);
    }
    return direct_write(req.range, ready);
  }
  return direct_write(req.range, ready);
}

SimTime AcrossFtl::write(const IoRequest& req, SimTime ready) {
  if (pgeom_.is_across_page(req.range) && engine_.config().across.enable_remap) {
    if (under_pressure()) {
      // Too full to afford another remapped area: drain the oldest area and
      // service this request baseline-style (write_sub still resolves any
      // overlap with existing areas correctly).
      ++engine_.stats().across().bypassed_writes;
      ready = drain_one_area(ready);
    } else {
      return write_across(req, ready);
    }
  }
  SimTime done = ready;
  SimTime cursor = ready;
  for (const auto& sub : split(req.range, pgeom_)) {
    // Sub-requests are dispatched as their (serialised) mapping work
    // completes; their flash ops then proceed in parallel across chips.
    done = std::max(done, write_sub(sub, cursor));
  }
  return done;
}

// --- Read routine ----------------------------------------------------------------

SimTime AcrossFtl::read(const IoRequest& req, SimTime ready, ReadPlan* plan) {
  const auto subs = split(req.range, pgeom_);

  // Phase 1: all mapping-table touches. A CMT miss can evict a dirty
  // translation page, whose write-back can run GC and relocate data pages —
  // so no flash source may be captured before the touches are done.
  SimTime map_ready = ready;
  for (const auto& sub : subs) {
    map_ready = touch_pmt(sub.lpn, /*dirty=*/false, map_ready);
    if (pmt_[sub.lpn.get()].aidx != kNoArea) {
      map_ready = touch_amt(pmt_[sub.lpn.get()].aidx, /*dirty=*/false,
                            map_ready);
    }
  }

  // Phase 2: plan and schedule the flash reads (no state mutations here).
  std::vector<Ppn> sources;  // distinct flash pages to fetch
  bool used_area = false;
  bool used_normal = false;

  auto add_source = [&sources](Ppn ppn) {
    if (std::find(sources.begin(), sources.end(), ppn) == sources.end()) {
      sources.push_back(ppn);
    }
  };

  for (const auto& sub : subs) {
    const PmtEntry& pe = pmt_[sub.lpn.get()];
    const SectorRange page = pgeom_.page_range(sub.lpn);

    SectorRange in_area;
    const AmtEntry* area = nullptr;
    if (pe.aidx != kNoArea) {
      area = &amt_[pe.aidx];
      in_area = sub.range.intersect(area->range);
    }

    if (!in_area.empty()) {
      used_area = true;
      add_source(area->appn);
    }
    // Pieces of the sub not covered by the area come from the normal page.
    const auto rest = sub.range.subtract(in_area);
    for (const SectorRange& piece : {rest.left, rest.right}) {
      if (piece.empty()) continue;
      if (pe.ppn.valid()) {
        used_normal = true;
        add_source(pe.ppn);
      }
    }

    if (plan != nullptr && tracking()) {
      for (SectorAddr s = sub.range.begin; s < sub.range.end; ++s) {
        std::uint64_t stamp = 0;
        if (area != nullptr && area->range.contains(s)) {
          stamp = engine_.read_stamp(area->appn, area->slot_of(s));
        } else if (pe.ppn.valid()) {
          stamp = engine_.read_stamp(pe.ppn,
                                     static_cast<std::uint32_t>(s - page.begin));
        }
        plan->observed.push_back({s, stamp});
      }
    }
  }

  SimTime done = map_ready;
  for (Ppn src : sources) {
    done = std::max(
        done,
        engine_.flash_read(src, ssd::OpKind::kDataRead, map_ready).done);
  }

  // §3.3.2's direct/merged classification concerns reads *of across-page
  // data* (Figure 7 reads ≤ one page); multi-page sweeps that happen to
  // gather an area along the way are ordinary reads.
  if (pgeom_.is_across_page(req.range)) {
    auto& across = engine_.stats().across();
    if (used_area) {
      if (used_normal) {
        ++across.merged_reads;  // §3.3.2 merged read: area + normal pages
        across.merged_read_flash_reads += sources.size();
      } else {
        ++across.direct_reads;  // §3.3.2 direct read: the area alone suffices
      }
    }
  }
  return done;
}

// --- GC ---------------------------------------------------------------------------

void AcrossFtl::gc_relocate(Ppn victim, const nand::PageOwner& owner,
                            SimTime& clock) {
  clock = engine_.flash_read(victim, ssd::OpKind::kGcRead, clock).done;
  // Area pages re-stamp their mapping payload so the relocated copy stays
  // recoverable from OOB alone.
  nand::OobExtra oob{};
  const nand::OobExtra* extra = nullptr;
  if (owner.kind == nand::PageOwner::Kind::kAcross) {
    const auto aidx = static_cast<std::uint32_t>(owner.id);
    oob = {amt_[aidx].range.begin, amt_[aidx].range.end, amt_[aidx].slot_base,
           {}};
    extra = &oob;
  }
  auto moved = engine_.gc_program(engine_.geometry().plane_of(victim), owner,
                                  clock, extra);
  clock = moved.done;
  if (engine_.tracks_payload()) engine_.copy_stamps(victim, moved.ppn);
  engine_.invalidate(victim);

  switch (owner.kind) {
    case nand::PageOwner::Kind::kData: {
      const Lpn lpn{owner.id};
      AF_CHECK_MSG(pmt_[lpn.get()].ppn == victim, "GC/PMT desync");
      pmt_[lpn.get()].ppn = moved.ppn;
      journal_lpn(lpn.get());
      clock = touch_pmt(lpn, /*dirty=*/true, clock);
      break;
    }
    case nand::PageOwner::Kind::kAcross: {
      const auto aidx = static_cast<std::uint32_t>(owner.id);
      AF_CHECK_MSG(amt_[aidx].live && amt_[aidx].appn == victim,
                   "GC/AMT desync");
      amt_[aidx].appn = moved.ppn;
      journal_area(aidx);
      push_area_weight(aidx);
      clock = touch_amt(aidx, /*dirty=*/true, clock);
      break;
    }
    default:
      AF_CHECK_MSG(false, "unexpected page owner in Across-FTL GC");
  }
}

std::uint64_t AcrossFtl::map_bytes() const {
  const auto* dir = engine_.map_directory();
  return dir ? dir->touched_pages() * engine_.geometry().page_bytes : 0;
}

// --- RecoverableMapping -------------------------------------------------------

namespace {
void sink_pmt_entry(ssd::ByteSink& sink, std::uint64_t lpn,
                    const AcrossFtl::PmtEntry& pe) {
  sink.u64(lpn);
  sink.u64(pe.ppn.get());
  sink.u32(pe.aidx);
}
void sink_amt_entry(ssd::ByteSink& sink, const AcrossFtl::AmtEntry& entry) {
  sink.u8(entry.live ? 1 : 0);
  sink.u64(entry.range.begin);
  sink.u64(entry.range.end);
  sink.u64(entry.appn.get());
  sink.u64(entry.slot_base);
}
void source_amt_entry(ssd::ByteSource& src, AcrossFtl::AmtEntry& entry) {
  entry.live = src.u8() != 0;
  entry.range.begin = src.u64();
  entry.range.end = src.u64();
  entry.appn = Ppn{src.u64()};
  entry.slot_base = src.u64();
  // Generations are valve-FIFO staleness tokens, valid only within one
  // incarnation: the FIFO is rebuilt at mount, so every restored table
  // restarts them — which also keeps a checkpointed mount bit-identical
  // to a from-scratch OOB scan (the scan cannot know pre-crash counters).
  entry.generation = entry.live ? 1 : 0;
}
}  // namespace

void AcrossFtl::serialize_mapping(ssd::ByteSink& sink) const {
  std::uint64_t count = 0;
  for (const PmtEntry& pe : pmt_) {
    count += (pe.ppn.valid() || pe.aidx != kNoArea) ? 1u : 0u;
  }
  sink.u64(count);
  for (std::uint64_t l = 0; l < pmt_.size(); ++l) {
    const PmtEntry& pe = pmt_[l];
    if (pe.ppn.valid() || pe.aidx != kNoArea) sink_pmt_entry(sink, l, pe);
  }
  // Trailing dead entries are canonically trimmed: a from-scratch OOB scan
  // only ever materialises slots up to the highest live aidx, and allocation
  // order is unaffected (rebuild_area_state hands out the lowest free id,
  // then the vector grows).
  std::uint64_t amt_count = amt_.size();
  while (amt_count > 0 && !amt_[amt_count - 1].live) --amt_count;
  sink.u64(amt_count);
  for (std::uint64_t a = 0; a < amt_count; ++a) sink_amt_entry(sink, amt_[a]);
}

void AcrossFtl::serialize_delta(ssd::ByteSink& sink) {
  std::sort(dirty_lpns_.begin(), dirty_lpns_.end());
  dirty_lpns_.erase(std::unique(dirty_lpns_.begin(), dirty_lpns_.end()),
                    dirty_lpns_.end());
  sink.u64(dirty_lpns_.size());
  for (const std::uint64_t l : dirty_lpns_) sink_pmt_entry(sink, l, pmt_[l]);
  dirty_lpns_.clear();

  std::sort(dirty_areas_.begin(), dirty_areas_.end());
  dirty_areas_.erase(std::unique(dirty_areas_.begin(), dirty_areas_.end()),
                     dirty_areas_.end());
  sink.u64(dirty_areas_.size());
  for (const std::uint32_t a : dirty_areas_) {
    sink.u32(a);
    sink_amt_entry(sink, amt_[a]);
  }
  dirty_areas_.clear();
}

void AcrossFtl::deserialize_mapping(ssd::ByteSource& src) {
  const std::uint64_t pmt_count = src.u64();
  for (std::uint64_t i = 0; i < pmt_count; ++i) {
    const std::uint64_t l = src.u64();
    AF_CHECK(l < pmt_.size());
    pmt_[l].ppn = Ppn{src.u64()};
    pmt_[l].aidx = src.u32();
  }
  const std::uint64_t amt_count = src.u64();
  amt_.assign(static_cast<std::size_t>(amt_count), AmtEntry{});
  for (AmtEntry& entry : amt_) source_amt_entry(src, entry);
}

void AcrossFtl::apply_delta(ssd::ByteSource& src) {
  const std::uint64_t pmt_count = src.u64();
  for (std::uint64_t i = 0; i < pmt_count; ++i) {
    const std::uint64_t l = src.u64();
    AF_CHECK(l < pmt_.size());
    pmt_[l].ppn = Ppn{src.u64()};
    pmt_[l].aidx = src.u32();
  }
  const std::uint64_t amt_count = src.u64();
  for (std::uint64_t i = 0; i < amt_count; ++i) {
    const std::uint32_t a = src.u32();
    if (a >= amt_.size()) amt_.resize(a + 1);
    source_amt_entry(src, amt_[a]);
  }
}

void AcrossFtl::recover_claim_data(const nand::OobRecord& oob, Lpn lpn,
                                   Ppn ppn) {
  PmtEntry& pe = pmt_[lpn.get()];
  if (pe.aidx != kNoArea) {
    const std::uint32_t aidx = pe.aidx;
    AmtEntry& area = amt_[aidx];
    AF_CHECK_MSG(area.live, "dangling AIdx during claim replay");
    const SectorRange page = pgeom_.page_range(lpn);
    const SectorRange share = area.range.intersect(page);
    AF_CHECK_MSG(!share.empty(), "AIdx mark without coverage during replay");
    // The OOB write range decides between the two live-path outcomes: a
    // write covering the area's whole share of this page shrank/dissolved
    // the area (write_sub, rollback); anything narrower — or a GC move,
    // which stamps no range — left the area serving its share beside the
    // page-mode data.
    const SectorRange wrote{oob.range_begin, oob.range_end};
    if (wrote.contains(share)) {
      const auto diff = area.range.subtract(page);
      const SectorRange rem = diff.left.empty() ? diff.right : diff.left;
      if (rem.empty()) {
        auto [first, last] = pgeom_.lpn_span(area.range);
        for (std::uint64_t l = first.get(); l <= last.get(); ++l) {
          if (pmt_[l].aidx == aidx) pmt_[l].aidx = kNoArea;
        }
        const std::uint32_t generation = area.generation;
        area = AmtEntry{};  // free_area semantics: the slot resets in full
        area.generation = generation;
      } else {
        area.range = rem;
        pe.aidx = kNoArea;
      }
    }
  }
  pe.ppn = ppn;
}

void AcrossFtl::recover_claim_across(const nand::OobRecord& oob, Ppn ppn) {
  const auto aidx = static_cast<std::uint32_t>(oob.owner.id);
  if (aidx >= amt_.size()) amt_.resize(aidx + 1);
  AmtEntry& area = amt_[aidx];
  if (area.live) {
    // AMerge or GC reprogram of a live area: unmark the old span (the new
    // range re-marks below; a pure GC move re-marks identically).
    auto [first, last] = pgeom_.lpn_span(area.range);
    for (std::uint64_t l = first.get(); l <= last.get(); ++l) {
      if (pmt_[l].aidx == aidx) pmt_[l].aidx = kNoArea;
    }
  }
  area.range = {oob.range_begin, oob.range_end};
  area.appn = ppn;
  area.slot_base = oob.slot_base;
  area.live = true;
  if (area.generation == 0) area.generation = 1;
  auto [first, last] = pgeom_.lpn_span(area.range);
  for (std::uint64_t l = first.get(); l <= last.get(); ++l) {
    AF_CHECK_MSG(pmt_[l].aidx == kNoArea || pmt_[l].aidx == aidx,
                 "area collision during claim replay");
    pmt_[l].aidx = aidx;
  }
}

void AcrossFtl::recover_trim(SectorRange range) {
  const auto [first, last] = trim_span(range);
  for (std::uint64_t l = first; l < last; ++l) {
    PmtEntry& pe = pmt_[l];
    if (pe.aidx != kNoArea) {
      const std::uint32_t aidx = pe.aidx;
      AmtEntry& area = amt_[aidx];
      AF_CHECK_MSG(area.live, "dangling AIdx during trim replay");
      const auto diff = area.range.subtract(pgeom_.page_range(Lpn{l}));
      const SectorRange rem = diff.left.empty() ? diff.right : diff.left;
      if (rem.empty()) {
        auto [afirst, alast] = pgeom_.lpn_span(area.range);
        for (std::uint64_t m = afirst.get(); m <= alast.get(); ++m) {
          if (pmt_[m].aidx == aidx) pmt_[m].aidx = kNoArea;
        }
        const std::uint32_t generation = area.generation;
        area = AmtEntry{};  // free_area semantics: the slot resets in full
        area.generation = generation;
      } else {
        area.range = rem;
        pe.aidx = kNoArea;
      }
    }
    pe.ppn = Ppn{};
  }
}

void AcrossFtl::recover_claim(const nand::OobRecord& oob, Ppn ppn) {
  switch (oob.owner.kind) {
    case nand::PageOwner::Kind::kData:
      AF_CHECK(oob.owner.id < pmt_.size());
      recover_claim_data(oob, Lpn{oob.owner.id}, ppn);
      break;
    case nand::PageOwner::Kind::kAcross:
      recover_claim_across(oob, ppn);
      break;
    default:
      AF_CHECK_MSG(false, "unexpected OOB owner kind in Across-FTL recovery");
  }
}

void AcrossFtl::recover_enumerate(
    const std::function<void(Ppn, nand::PageOwner)>& fn) const {
  for (std::uint64_t l = 0; l < pmt_.size(); ++l) {
    if (pmt_[l].ppn.valid()) fn(pmt_[l].ppn, nand::PageOwner::data(Lpn{l}));
  }
  for (std::uint32_t a = 0; a < amt_.size(); ++a) {
    if (amt_[a].live) {
      fn(amt_[a].appn, nand::PageOwner::across(AmtIndex{a}));
    }
  }
}

void AcrossFtl::rebuild_area_state() {
  amt_free_.clear();
  area_fifo_.clear();
  live_areas_ = 0;
  // Descending push so back() (the next allocation) is the lowest free id —
  // deterministic regardless of the pre-crash free-list order.
  for (std::size_t i = amt_.size(); i-- > 0;) {
    if (!amt_[i].live) amt_free_.push_back(static_cast<std::uint32_t>(i));
  }
  // Valve FIFO: live areas in aidx order stand in for the lost creation
  // order. Only affects which area the pressure valve drains first.
  for (std::uint32_t a = 0; a < amt_.size(); ++a) {
    if (amt_[a].live) {
      area_fifo_.emplace_back(a, amt_[a].generation);
      ++live_areas_;
    }
  }
}

void AcrossFtl::recover_finalize() { rebuild_area_state(); }

// --- Introspection -----------------------------------------------------------------

const AcrossFtl::PmtEntry& AcrossFtl::pmt(Lpn lpn) const {
  AF_CHECK(lpn.get() < pmt_.size());
  return pmt_[lpn.get()];
}

const AcrossFtl::AmtEntry& AcrossFtl::amt(std::uint32_t aidx) const {
  AF_CHECK(aidx < amt_.size());
  return amt_[aidx];
}

void AcrossFtl::check_invariants() const {
  std::uint64_t live = 0;
  for (std::uint32_t a = 0; a < amt_.size(); ++a) {
    const AmtEntry& entry = amt_[a];
    if (!entry.live) continue;
    ++live;
    AF_CHECK_MSG(!entry.range.empty(), "live area with empty range");
    AF_CHECK_MSG(entry.range.size() <= pgeom_.sectors_per_page,
                 "area larger than a page (I2)");
    AF_CHECK_MSG(pgeom_.pages_touched(entry.range) <= 2,
                 "area spanning more than two LPNs (I2)");
    AF_CHECK_MSG(entry.range.begin >= entry.slot_base &&
                     entry.range.end <= entry.slot_base + pgeom_.sectors_per_page,
                 "area range outside its page slots");
    AF_CHECK_MSG(entry.appn.valid(), "live area without a flash page (I3)");
    AF_CHECK_MSG(engine_.array().state(entry.appn) == nand::PageState::kValid,
                 "area page not valid on flash (I3)");
    AF_CHECK_MSG(engine_.array().owner(entry.appn) ==
                     nand::PageOwner::across(AmtIndex{a}),
                 "area page owner mismatch (I3)");
    auto [first, last] = pgeom_.lpn_span(entry.range);
    for (std::uint64_t l = first.get(); l <= last.get(); ++l) {
      AF_CHECK_MSG(pmt_[l].aidx == a, "covered LPN not marked (I1)");
    }
  }
  AF_CHECK_MSG(live == live_areas_, "live-area count drift");
  for (std::uint64_t l = 0; l < pmt_.size(); ++l) {
    const std::uint32_t a = pmt_[l].aidx;
    if (a == kNoArea) continue;
    AF_CHECK_MSG(a < amt_.size() && amt_[a].live, "dangling AIdx (I1)");
    AF_CHECK_MSG(
        !amt_[a].range.intersect(pgeom_.page_range(Lpn{l})).empty(),
        "marked LPN without area coverage (I1)");
  }
}

}  // namespace af::ftl
