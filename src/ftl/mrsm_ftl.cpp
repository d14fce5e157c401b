#include "ftl/mrsm_ftl.h"

#include <algorithm>
#include <cmath>

namespace af::ftl {

namespace {
constexpr std::uint64_t kPageEntryBytes = 4;
// Sub-mode entries record four (PPN, slot) pairs per LPN plus the per-piece
// offset/size metadata the paper calls out ("a complicated mapping data
// structure to record the offset and size information", §2.2).
constexpr std::uint64_t kSubEntryBytes = 24;
// GC victim weight of one live sub-page slot. Pushed into the engine's
// incremental per-block accounting at every slot-liveness change; the
// victim-weight oracle below must compute the same value.
constexpr std::uint32_t kSlotWeight =
    ssd::Engine::kFullPageWeight / MrsmFtl::kSubsPerPage;
}  // namespace

MrsmFtl::MrsmFtl(ssd::Engine& engine) : FtlScheme(engine) {
  const std::uint64_t logical = engine.config().logical_pages();
  pmt_.assign(static_cast<std::size_t>(logical), Ppn{});
  subs_.assign(static_cast<std::size_t>(logical), {});
  region_mode_.assign(
      static_cast<std::size_t>((logical + kRegionLpns - 1) / kRegionLpns), 0);

  const std::uint64_t page_bytes = engine.geometry().page_bytes;
  page_entries_per_tpage_ = page_bytes / kPageEntryBytes;
  sub_entries_per_tpage_ = page_bytes / kSubEntryBytes;
  page_tpages_ =
      (logical + page_entries_per_tpage_ - 1) / page_entries_per_tpage_;
  const std::uint64_t sub_tpages =
      (logical + sub_entries_per_tpage_ - 1) / sub_entries_per_tpage_;
  engine.init_map_space(page_tpages_ + sub_tpages);

  tree_depth_ = static_cast<std::uint64_t>(
      std::ceil(std::log2(std::max<std::uint64_t>(2, region_mode_.size()))));

  engine.set_gc_flush([this](std::uint64_t plane, SimTime& clock) {
    flush_staged(plane, clock);
  });

  // Slot-aware GC victim scoring: a packed page with dead slots is partially
  // reclaimable even though it is "valid" at page level. Without this the
  // device wedges under sub-page fragmentation.
  engine.set_victim_weight([this](Ppn ppn) -> std::uint32_t {
    const auto it = packed_.find(ppn.get());
    if (it != packed_.end()) {
      return it->second.live_count() * (ssd::Engine::kFullPageWeight /
                                        kSubsPerPage);
    }
    const nand::PageOwner& owner = engine_.array().owner(ppn);
    if (owner.kind == nand::PageOwner::Kind::kData &&
        region_is_sub(Lpn{owner.id})) {
      // Converted page: weight by how many of the LPN's sub-pages still
      // point here.
      std::uint32_t live = 0;
      for (std::uint32_t k = 0; k < kSubsPerPage; ++k) {
        live += (subs_[owner.id][k].ppn == ppn) ? 1u : 0u;
      }
      return live * (ssd::Engine::kFullPageWeight / kSubsPerPage);
    }
    return ssd::Engine::kFullPageWeight;
  });
}

SectorRange MrsmFtl::sub_range(Lpn lpn, std::uint32_t sub) const {
  const SectorAddr base =
      pgeom_.page_range(lpn).begin + std::uint64_t{sub} * sub_sectors();
  return {base, base + sub_sectors()};
}

std::uint64_t MrsmFtl::page_tpage_of(Lpn lpn) const {
  return lpn.get() / page_entries_per_tpage_;
}

std::uint64_t MrsmFtl::sub_tpage_of(Lpn lpn) const {
  return page_tpages_ + lpn.get() / sub_entries_per_tpage_;
}

SimTime MrsmFtl::touch_map(Lpn lpn, bool dirty, SimTime ready) {
  // Locating the region in MRSM's tree-structured index costs a walk of
  // DRAM accesses before the translation entry itself is touched (§4.2.4).
  engine_.dram_access(tree_depth_);
  const std::uint64_t tpage =
      region_is_sub(lpn) ? sub_tpage_of(lpn) : page_tpage_of(lpn);
  return engine_.map_touch(tpage, dirty, ready);
}

void MrsmFtl::upgrade_region(std::uint64_t region) {
  AF_CHECK(region_mode_[region] == 0);
  region_mode_[region] = 1;
  journal_region(region);
  const std::uint64_t first = region * kRegionLpns;
  const std::uint64_t last = std::min<std::uint64_t>(
      first + kRegionLpns, pmt_.size());
  // Existing page-mapped data converts in place: sub-page k of the LPN lives
  // at slot k of its old page. No flash traffic — only the mapping changes.
  for (std::uint64_t l = first; l < last; ++l) {
    if (!pmt_[l].valid()) continue;
    for (std::uint32_t k = 0; k < kSubsPerPage; ++k) {
      subs_[l][k] = {pmt_[l], static_cast<std::uint8_t>(k)};
    }
    pmt_[l] = Ppn{};
    journal_lpn(l);
  }
}

void MrsmFtl::retire_subloc(Lpn lpn, std::uint32_t sub) {
  const SubLoc loc = subs_[lpn.get()][sub];
  if (!loc.valid()) return;
  subs_[lpn.get()][sub] = SubLoc{};
  journal_lpn(lpn.get());

  auto it = packed_.find(loc.ppn.get());
  if (it != packed_.end()) {
    journal_packed(loc.ppn);
    PackedPage::Slot& slot = it->second.slots[loc.slot];
    AF_CHECK(slot.live && slot.lpn == lpn && slot.sub == sub);
    slot.live = false;
    const std::uint32_t live = it->second.live_count();
    if (live == 0) {
      engine_.invalidate(loc.ppn);
      packed_.erase(it);
    } else {
      engine_.note_page_weight(loc.ppn, live * kSlotWeight);
    }
    return;
  }
  // Page-mode-origin page (owner kData): it dies when no sub-page of its LPN
  // points at it any more.
  std::uint32_t live = 0;
  for (std::uint32_t k = 0; k < kSubsPerPage; ++k) {
    live += (subs_[lpn.get()][k].ppn == loc.ppn) ? 1u : 0u;
  }
  if (live > 0) {
    engine_.note_page_weight(loc.ppn, live * kSlotWeight);
    return;
  }
  engine_.invalidate(loc.ppn);
}

ssd::Engine::Programmed MrsmFtl::program_packed(std::span<const Chunk> chunks,
                                                SimTime ready, bool gc,
                                                std::uint64_t gc_plane) {
  AF_CHECK(!chunks.empty() && chunks.size() <= kSubsPerPage);
  const nand::PageOwner owner = nand::PageOwner::packed(next_pack_id_++);
  // The slot directory rides the spare area so recovery can rebuild packed_
  // from OOB alone.
  nand::OobExtra oob{};
  for (std::uint32_t i = 0; i < chunks.size(); ++i) {
    oob.slots[i] = {chunks[i].lpn.get(), chunks[i].sub, true};
  }
  // Stamps ride the program itself (data and spare land atomically on real
  // flash, and power-cut recovery depends on that). They must be staged
  // before any retire_subloc below mutates the sub-location table.
  std::vector<std::uint64_t> stamps;
  if (tracking()) {
    stamps.assign(static_cast<std::size_t>(pgeom_.sectors_per_page), 0);
    for (std::uint32_t i = 0; i < chunks.size(); ++i) {
      const Chunk& chunk = chunks[i];
      const SubLoc old_loc = subs_[chunk.lpn.get()][chunk.sub];
      const SectorRange whole = sub_range(chunk.lpn, chunk.sub);
      for (std::uint32_t j = 0; j < sub_sectors(); ++j) {
        const SectorAddr s = whole.begin + j;
        std::uint64_t stamp = 0;
        if (chunk.fresh.contains(s)) {
          stamp = new_stamp(s);
        } else if (old_loc.valid()) {
          stamp = engine_.read_stamp(old_loc.ppn,
                                     old_loc.slot * sub_sectors() + j);
        }
        stamps[i * sub_sectors() + j] = stamp;
      }
    }
  }
  // Retire the superseded sub-locations BEFORE the program: it can run GC,
  // and a still-live old slot it relocated would re-claim its stale payload
  // with a newer OOB seq after a power cut (recovery replays claims
  // newest-last). Retirement is RAM-only, so a cut before the program still
  // recovers the old slots — the legal unacknowledged-write outcome.
  for (const Chunk& chunk : chunks) retire_subloc(chunk.lpn, chunk.sub);
  const ssd::Engine::Programmed programmed =
      gc ? engine_.gc_program(gc_plane, owner, ready, &oob)
         : engine_.flash_program(ssd::Stream::kData, owner,
                                 ssd::OpKind::kDataWrite, ready, &oob,
                                 tracking() ? &stamps : nullptr);
  if (gc && tracking()) {
    // gc_program issues no further flash ops before we land here, so writing
    // the spare area now is still atomic with respect to power cuts.
    for (std::uint32_t s = 0; s < stamps.size(); ++s) {
      engine_.write_stamp(programmed.ppn, s, stamps[s]);
    }
  }

  PackedPage dir;
  dir.pack_id = owner.id;
  for (std::uint32_t i = 0; i < chunks.size(); ++i) {
    const Chunk& chunk = chunks[i];
    engine_.dram_access(1);  // per-sub-entry update within the cached page
    subs_[chunk.lpn.get()][chunk.sub] = {programmed.ppn,
                                         static_cast<std::uint8_t>(i)};
    journal_lpn(chunk.lpn.get());
    dir.slots[i] = {chunk.lpn, chunk.sub, true};
  }
  // Unfilled slots are dead on arrival — the packing tax MRSM pays.
  const bool inserted = packed_.emplace(programmed.ppn.get(), dir).second;
  AF_CHECK_MSG(inserted, "stale packed-page directory entry");
  journal_packed(programmed.ppn);
  engine_.note_page_weight(
      programmed.ppn, static_cast<std::uint32_t>(chunks.size()) * kSlotWeight);
  return programmed;
}

SimTime MrsmFtl::write_page_mode(const SubRequest& sub, SimTime ready) {
  const auto programmed = program_sub(sub, pmt_[sub.lpn.get()], ready);
  pmt_[sub.lpn.get()] = programmed.ppn;
  journal_lpn(sub.lpn.get());
  return programmed.done;
}

SimTime MrsmFtl::write(const IoRequest& req, SimTime ready) {
  SimTime cursor = ready;
  SimTime done = ready;
  std::vector<Chunk> chunks;

  for (const auto& sub : split(req.range, pgeom_)) {
    const std::uint64_t region = sub.lpn.get() / kRegionLpns;
    const bool full_page = sub.range == pgeom_.page_range(sub.lpn);

    if (region_mode_[region] == 0) {
      // Adaptive ("multiregional") switch: only truly misaligned behaviour —
      // a request edge landing inside a sub-page — justifies the 4x mapping
      // density. Sub-page-aligned partial writes (plain 4 KiB traffic) stay
      // page-mapped, so cold/aligned regions keep the small table.
      const bool subpage_aligned =
          sub.range.begin % sub_sectors() == 0 &&
          sub.range.end % sub_sectors() == 0;
      if (full_page || subpage_aligned) {
        cursor = touch_map(sub.lpn, /*dirty=*/true, cursor);
        done = std::max(done, write_page_mode(sub, cursor));
        continue;
      }
      upgrade_region(region);
    }
    cursor = touch_map(sub.lpn, /*dirty=*/true, cursor);

    const SectorRange page = pgeom_.page_range(sub.lpn);
    const auto first_sub = static_cast<std::uint32_t>(
        (sub.range.begin - page.begin) / sub_sectors());
    const auto last_sub = static_cast<std::uint32_t>(
        (sub.range.end - 1 - page.begin) / sub_sectors());
    for (std::uint32_t k = first_sub; k <= last_sub; ++k) {
      chunks.push_back({sub.lpn, static_cast<std::uint8_t>(k),
                        sub.range.intersect(sub_range(sub.lpn, k))});
    }
  }

  // Pack sub-page chunks four to a physical page, RMW-reading the old copy
  // of any chunk the request covers only partially.
  for (std::size_t start = 0; start < chunks.size(); start += kSubsPerPage) {
    const std::size_t count =
        std::min<std::size_t>(kSubsPerPage, chunks.size() - start);
    const std::span<const Chunk> group(chunks.data() + start, count);

    SimTime group_ready = cursor;
    std::vector<Ppn> rmw_sources;
    for (const Chunk& chunk : group) {
      if (chunk.fresh == sub_range(chunk.lpn, chunk.sub)) continue;
      const SubLoc old_loc = subs_[chunk.lpn.get()][chunk.sub];
      if (!old_loc.valid()) continue;
      if (std::find(rmw_sources.begin(), rmw_sources.end(), old_loc.ppn) ==
          rmw_sources.end()) {
        rmw_sources.push_back(old_loc.ppn);
        group_ready =
            engine_.flash_read(old_loc.ppn, ssd::OpKind::kDataRead, group_ready)
                .done;
        engine_.stats().count_rmw_read();
      }
    }
    done = std::max(done, program_packed(group, group_ready, /*gc=*/false, 0).done);
  }
  return done;
}

SimTime MrsmFtl::trim(SectorRange range, SimTime ready) {
  const auto [first, last] = trim_span(range);
  // RAM phase first: all covered mappings die before any mapping-table
  // traffic is charged — a map eviction can trigger GC, and a relocated
  // covered page would out-seq the trim tombstone and resurrect after a
  // power cut.
  for (std::uint64_t l = first; l < last; ++l) {
    const Lpn lpn{l};
    if (region_is_sub(lpn)) {
      // retire_subloc handles the packed-directory bookkeeping: slot
      // live-counts, weight pushes, invalidation when the last slot dies.
      for (std::uint32_t k = 0; k < kSubsPerPage; ++k) retire_subloc(lpn, k);
    } else {
      if (pmt_[l].valid()) {
        engine_.invalidate(pmt_[l]);
        pmt_[l] = Ppn{};
      }
      journal_lpn(l);
    }
  }
  for (std::uint64_t l = first; l < last; ++l) {
    ready = touch_map(Lpn{l}, /*dirty=*/true, ready);
  }
  return ready;
}

bool MrsmFtl::lpn_mapped(Lpn lpn) const {
  if (pmt_[lpn.get()].valid()) return true;
  if (region_is_sub(lpn)) {
    for (const SubLoc& loc : subs_[lpn.get()]) {
      if (loc.valid()) return true;
    }
  }
  return false;
}

SimTime MrsmFtl::read(const IoRequest& req, SimTime ready, ReadPlan* plan) {
  const auto subs = split(req.range, pgeom_);

  // Phase 1: mapping touches only — a dirty CMT eviction can run GC and
  // relocate data pages, so sources are captured afterwards.
  SimTime cursor = ready;
  for (const auto& sub : subs) {
    cursor = touch_map(sub.lpn, /*dirty=*/false, cursor);
  }

  std::vector<Ppn> sources;
  auto add_source = [&sources](Ppn ppn) {
    if (std::find(sources.begin(), sources.end(), ppn) == sources.end()) {
      sources.push_back(ppn);
    }
  };

  for (const auto& sub : subs) {
    const SectorRange page = pgeom_.page_range(sub.lpn);

    if (!region_is_sub(sub.lpn)) {
      const Ppn ppn = pmt_[sub.lpn.get()];
      if (ppn.valid()) add_source(ppn);
      if (plan != nullptr && tracking()) {
        for (SectorAddr s = sub.range.begin; s < sub.range.end; ++s) {
          const std::uint64_t stamp =
              ppn.valid() ? engine_.read_stamp(
                                ppn, static_cast<std::uint32_t>(s - page.begin))
                          : 0;
          plan->observed.push_back({s, stamp});
        }
      }
      continue;
    }

    const auto first_sub = static_cast<std::uint32_t>(
        (sub.range.begin - page.begin) / sub_sectors());
    const auto last_sub = static_cast<std::uint32_t>(
        (sub.range.end - 1 - page.begin) / sub_sectors());
    for (std::uint32_t k = first_sub; k <= last_sub; ++k) {
      engine_.dram_access(1);  // per-sub-entry lookup
      const SubLoc loc = subs_[sub.lpn.get()][k];
      if (loc.valid()) add_source(loc.ppn);
    }
    if (plan != nullptr && tracking()) {
      for (SectorAddr s = sub.range.begin; s < sub.range.end; ++s) {
        const auto k = static_cast<std::uint32_t>((s - page.begin) /
                                                  sub_sectors());
        const SubLoc loc = subs_[sub.lpn.get()][k];
        const std::uint64_t stamp =
            loc.valid()
                ? engine_.read_stamp(
                      loc.ppn,
                      loc.slot * sub_sectors() +
                          static_cast<std::uint32_t>(
                              (s - page.begin) % sub_sectors()))
                : 0;
        plan->observed.push_back({s, stamp});
      }
    }
  }

  SimTime done = cursor;
  for (Ppn src : sources) {
    done = std::max(
        done, engine_.flash_read(src, ssd::OpKind::kDataRead, cursor).done);
  }
  return done;
}

void MrsmFtl::stage_victim_chunks(Ppn victim, std::span<const Chunk> live,
                                  std::uint64_t plane, SimTime& clock) {
  AF_CHECK(!live.empty());
  clock = engine_.flash_read(victim, ssd::OpKind::kGcRead, clock).done;
  for (const Chunk& chunk : live) {
    StagedChunk staged{chunk.lpn, chunk.sub, {}};
    if (engine_.tracks_payload()) {
      const SubLoc loc = subs_[chunk.lpn.get()][chunk.sub];
      AF_CHECK(loc.ppn == victim);
      staged.stamps.resize(sub_sectors());
      for (std::uint32_t i = 0; i < sub_sectors(); ++i) {
        staged.stamps[i] =
            engine_.read_stamp(victim, loc.slot * sub_sectors() + i);
      }
    }
    retire_subloc(chunk.lpn, chunk.sub);
    staged_.push_back(std::move(staged));
    if (staged_.size() >= kSubsPerPage) flush_staged_group(plane, clock);
  }
  AF_CHECK_MSG(engine_.array().state(victim) == nand::PageState::kInvalid,
               "staging left the victim live");
}

void MrsmFtl::flush_staged_group(std::uint64_t plane, SimTime& clock) {
  const std::size_t count =
      std::min<std::size_t>(kSubsPerPage, staged_.size());
  AF_CHECK(count > 0);

  const nand::PageOwner owner = nand::PageOwner::packed(next_pack_id_++);
  nand::OobExtra oob{};
  for (std::uint32_t i = 0; i < count; ++i) {
    oob.slots[i] = {staged_[i].lpn.get(), staged_[i].sub, true};
  }
  const auto programmed = engine_.gc_program(plane, owner, clock, &oob);
  clock = programmed.done;

  PackedPage dir;
  dir.pack_id = owner.id;
  for (std::uint32_t i = 0; i < count; ++i) {
    const StagedChunk& staged = staged_[i];
    engine_.dram_access(1);
    if (engine_.tracks_payload()) {
      for (std::uint32_t s = 0; s < sub_sectors(); ++s) {
        engine_.write_stamp(programmed.ppn, i * sub_sectors() + s,
                            staged.stamps[s]);
      }
    }
    subs_[staged.lpn.get()][staged.sub] = {programmed.ppn,
                                           static_cast<std::uint8_t>(i)};
    journal_lpn(staged.lpn.get());
    dir.slots[i] = {staged.lpn, staged.sub, true};
    clock = touch_map(staged.lpn, /*dirty=*/true, clock);
  }
  const bool inserted = packed_.emplace(programmed.ppn.get(), dir).second;
  AF_CHECK_MSG(inserted, "stale packed-page directory entry");
  journal_packed(programmed.ppn);
  engine_.note_page_weight(programmed.ppn,
                           static_cast<std::uint32_t>(count) * kSlotWeight);
  staged_.erase(staged_.begin(),
                staged_.begin() + static_cast<std::ptrdiff_t>(count));
}

void MrsmFtl::flush_staged(std::uint64_t plane, SimTime& clock) {
  while (!staged_.empty()) flush_staged_group(plane, clock);
}

void MrsmFtl::gc_relocate(Ppn victim, const nand::PageOwner& owner,
                          SimTime& clock) {
  const std::uint64_t plane = engine_.geometry().plane_of(victim);

  if (owner.kind == nand::PageOwner::Kind::kData) {
    const Lpn lpn{owner.id};
    if (!region_is_sub(lpn)) {
      AF_CHECK_MSG(pmt_[lpn.get()] == victim, "GC/PMT desync");
      clock = engine_.flash_read(victim, ssd::OpKind::kGcRead, clock).done;
      auto moved = engine_.gc_program(plane, owner, clock);
      clock = moved.done;
      if (engine_.tracks_payload()) engine_.copy_stamps(victim, moved.ppn);
      engine_.invalidate(victim);
      pmt_[lpn.get()] = moved.ppn;
      journal_lpn(lpn.get());
      clock = touch_map(lpn, /*dirty=*/true, clock);
      return;
    }
    // Converted page: live slots are whatever sub-pages of the LPN still
    // point here. Stage them for cross-page repacking.
    std::vector<Chunk> live;
    for (std::uint32_t k = 0; k < kSubsPerPage; ++k) {
      if (subs_[lpn.get()][k].ppn == victim) {
        live.push_back({lpn, static_cast<std::uint8_t>(k), SectorRange{}});
      }
    }
    AF_CHECK_MSG(!live.empty(), "valid kData page with no live sub-pages");
    stage_victim_chunks(victim, live, plane, clock);
    return;
  }

  AF_CHECK_MSG(owner.kind == nand::PageOwner::Kind::kPacked,
               "unexpected page owner in MRSM GC");
  auto it = packed_.find(victim.get());
  AF_CHECK_MSG(it != packed_.end(), "packed page without a slot directory");
  std::vector<Chunk> live;
  for (const auto& slot : it->second.slots) {
    if (slot.live) live.push_back({slot.lpn, slot.sub, SectorRange{}});
  }
  AF_CHECK_MSG(!live.empty(), "valid packed page with no live slots");
  stage_victim_chunks(victim, live, plane, clock);
}

// --- RecoverableMapping -------------------------------------------------------
//
// Snapshot layout: next_pack_id, the full region-mode vector, sparse PMT
// pairs, sparse sub-tables and the packed-page directories (sorted by PPN for
// determinism). Deltas re-emit the *current* value of every dirty key, so
// replay order within one delta does not matter.

void MrsmFtl::sink_lpn_entry(ssd::ByteSink& sink, std::uint64_t l) const {
  sink.u64(l);
  sink.u64(pmt_[l].get());
  // Most of the space stays page-mapped (subs all invalid); a presence flag
  // cuts those entries from 52 to 17 bytes. Unconditional sub encoding made
  // MRSM snapshots ~3.5x the page-FTL's, and the resulting ~150-page journal
  // bursts on the map stream stalled data traffic badly enough to show up as
  // a 4x io_time inflation in perf_replay's checkpoint section.
  bool any_sub = false;
  for (const SubLoc& loc : subs_[l]) any_sub = any_sub || loc.valid();
  sink.u8(any_sub ? 1 : 0);
  if (!any_sub) return;
  for (const SubLoc& loc : subs_[l]) {
    sink.u64(loc.ppn.get());
    sink.u8(loc.slot);
  }
}

void MrsmFtl::source_lpn_entry(ssd::ByteSource& src) {
  const std::uint64_t l = src.u64();
  AF_CHECK(l < pmt_.size());
  pmt_[l] = Ppn{src.u64()};
  if (src.u8() == 0) {
    // Entry was serialized with no live subs; clear ours — a delta replay
    // may be overwriting an entry that had subs when it was last applied.
    for (SubLoc& loc : subs_[l]) loc = SubLoc{};
    return;
  }
  for (SubLoc& loc : subs_[l]) {
    loc.ppn = Ppn{src.u64()};
    loc.slot = src.u8();
  }
}

void MrsmFtl::sink_packed_dir(ssd::ByteSink& sink, const PackedPage& dir) {
  sink.u64(dir.pack_id);
  // Dead slots are one flag byte: their lpn/sub are never read (every
  // consumer checks `live` first), and packed pages age toward mostly-dead
  // before GC reclaims them, so this halves a typical directory.
  for (const PackedPage::Slot& slot : dir.slots) {
    sink.u8(slot.live ? 1 : 0);
    if (!slot.live) continue;
    sink.u64(slot.lpn.get());
    sink.u8(slot.sub);
  }
}

MrsmFtl::PackedPage MrsmFtl::source_packed_dir(ssd::ByteSource& src) {
  PackedPage dir;
  dir.pack_id = src.u64();
  for (PackedPage::Slot& slot : dir.slots) {
    slot.live = src.u8() != 0;
    if (!slot.live) continue;
    slot.lpn = Lpn{src.u64()};
    slot.sub = src.u8();
  }
  return dir;
}

void MrsmFtl::serialize_mapping(ssd::ByteSink& sink) const {
  sink.u64(next_pack_id_);

  sink.u64(region_mode_.size());
  for (const std::uint8_t mode : region_mode_) sink.u8(mode);

  auto lpn_used = [this](std::uint64_t l) {
    if (pmt_[l].valid()) return true;
    for (const SubLoc& loc : subs_[l]) {
      if (loc.valid()) return true;
    }
    return false;
  };
  std::uint64_t count = 0;
  for (std::uint64_t l = 0; l < pmt_.size(); ++l) count += lpn_used(l) ? 1u : 0u;
  sink.u64(count);
  for (std::uint64_t l = 0; l < pmt_.size(); ++l) {
    if (lpn_used(l)) sink_lpn_entry(sink, l);
  }

  std::vector<std::uint64_t> ppns;
  ppns.reserve(packed_.size());
  for (const auto& [ppn, dir] : packed_) ppns.push_back(ppn);
  std::sort(ppns.begin(), ppns.end());
  sink.u64(ppns.size());
  for (const std::uint64_t ppn : ppns) {
    sink.u64(ppn);
    sink_packed_dir(sink, packed_.at(ppn));
  }
}

void MrsmFtl::serialize_delta(ssd::ByteSink& sink) {
  auto dedup = [](std::vector<std::uint64_t>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  dedup(dirty_regions_);
  dedup(dirty_lpns_);
  dedup(dirty_packed_);

  sink.u64(next_pack_id_);

  sink.u64(dirty_regions_.size());
  for (const std::uint64_t r : dirty_regions_) {
    sink.u64(r);
    sink.u8(region_mode_[r]);
  }

  sink.u64(dirty_lpns_.size());
  for (const std::uint64_t l : dirty_lpns_) sink_lpn_entry(sink, l);

  sink.u64(dirty_packed_.size());
  for (const std::uint64_t ppn : dirty_packed_) {
    sink.u64(ppn);
    const auto it = packed_.find(ppn);
    sink.u8(it != packed_.end() ? 1 : 0);
    if (it != packed_.end()) sink_packed_dir(sink, it->second);
  }

  dirty_regions_.clear();
  dirty_lpns_.clear();
  dirty_packed_.clear();
}

void MrsmFtl::deserialize_mapping(ssd::ByteSource& src) {
  next_pack_id_ = std::max(next_pack_id_, src.u64());

  const std::uint64_t regions = src.u64();
  AF_CHECK(regions == region_mode_.size());
  for (std::uint64_t r = 0; r < regions; ++r) region_mode_[r] = src.u8();

  const std::uint64_t lpns = src.u64();
  for (std::uint64_t i = 0; i < lpns; ++i) source_lpn_entry(src);

  const std::uint64_t dirs = src.u64();
  for (std::uint64_t i = 0; i < dirs; ++i) {
    const std::uint64_t ppn = src.u64();
    packed_[ppn] = source_packed_dir(src);
  }
}

void MrsmFtl::apply_delta(ssd::ByteSource& src) {
  next_pack_id_ = std::max(next_pack_id_, src.u64());

  const std::uint64_t regions = src.u64();
  for (std::uint64_t i = 0; i < regions; ++i) {
    const std::uint64_t r = src.u64();
    AF_CHECK(r < region_mode_.size());
    region_mode_[r] = src.u8();
  }

  const std::uint64_t lpns = src.u64();
  for (std::uint64_t i = 0; i < lpns; ++i) source_lpn_entry(src);

  const std::uint64_t dirs = src.u64();
  for (std::uint64_t i = 0; i < dirs; ++i) {
    const std::uint64_t ppn = src.u64();
    const bool present = src.u8() != 0;
    if (present) {
      packed_[ppn] = source_packed_dir(src);
    } else {
      packed_.erase(ppn);
    }
  }
}

void MrsmFtl::recover_displace(Lpn lpn, std::uint32_t sub) {
  const SubLoc loc = subs_[lpn.get()][sub];
  if (!loc.valid()) return;
  subs_[lpn.get()][sub] = SubLoc{};

  const auto it = packed_.find(loc.ppn.get());
  if (it == packed_.end()) return;  // converted page — dies by reference count
  PackedPage::Slot& slot = it->second.slots[loc.slot];
  // The directory may already reflect a later state (checkpointed after the
  // displacement) — only clear slots that still name this sub-page.
  if (slot.live && slot.lpn == lpn && slot.sub == sub) slot.live = false;
  if (it->second.live_count() == 0) packed_.erase(it);
}

void MrsmFtl::recover_claim_packed(const nand::OobRecord& oob, Ppn ppn) {
  // A stale directory can survive at this PPN if the checkpoint predates the
  // block's erase cycle; this program supersedes it wholesale.
  packed_.erase(ppn.get());

  PackedPage dir;
  dir.pack_id = oob.owner.id;
  for (std::uint32_t i = 0; i < kSubsPerPage; ++i) {
    const nand::OobRecord::Slot& slot = oob.slots[i];
    if (!slot.used) continue;
    const Lpn lpn{slot.lpn};
    AF_CHECK(lpn.get() < pmt_.size());
    const std::uint64_t region = lpn.get() / kRegionLpns;
    // A packed program implies the region was sub-mapped by then; replaying
    // the upgrade here keeps region modes chronologically consistent.
    if (region_mode_[region] == 0) upgrade_region(region);
    recover_displace(lpn, slot.sub);
    subs_[lpn.get()][slot.sub] = {ppn, static_cast<std::uint8_t>(i)};
    dir.slots[i] = {lpn, slot.sub, true};
  }
  packed_.emplace(ppn.get(), dir);
  next_pack_id_ = std::max(next_pack_id_, oob.owner.id + 1);
}

void MrsmFtl::recover_claim(const nand::OobRecord& oob, Ppn ppn) {
  switch (oob.owner.kind) {
    case nand::PageOwner::Kind::kData: {
      AF_CHECK(oob.owner.id < pmt_.size());
      const Lpn lpn{oob.owner.id};
      AF_CHECK_MSG(!region_is_sub(lpn),
                   "kData program replayed into a sub-mapped region");
      pmt_[oob.owner.id] = ppn;  // newest seq wins
      return;
    }
    case nand::PageOwner::Kind::kPacked:
      recover_claim_packed(oob, ppn);
      return;
    default:
      AF_CHECK_MSG(false, "unexpected OOB owner kind in MRSM recovery");
  }
}

void MrsmFtl::recover_trim(SectorRange range) {
  const auto [first, last] = trim_span(range);
  for (std::uint64_t l = first; l < last; ++l) {
    const Lpn lpn{l};
    if (region_is_sub(lpn)) {
      for (std::uint32_t k = 0; k < kSubsPerPage; ++k) recover_displace(lpn, k);
    } else {
      pmt_[l] = Ppn{};
    }
  }
}

void MrsmFtl::recover_enumerate(
    const std::function<void(Ppn, nand::PageOwner)>& fn) const {
  for (std::uint64_t l = 0; l < pmt_.size(); ++l) {
    if (pmt_[l].valid()) fn(pmt_[l], nand::PageOwner::data(Lpn{l}));
  }
  // Packed pages are referenced through their directory (a page with live
  // slots is live, whoever points at it).
  for (const auto& [raw, dir] : packed_) {
    fn(Ppn{raw}, nand::PageOwner::packed(dir.pack_id));
  }
  // Converted pages (page-mapped data re-interpreted as four slots) carry a
  // kData owner and can be referenced by several sub-entries of the same LPN
  // — emit each distinct PPN once.
  for (std::uint64_t l = 0; l < subs_.size(); ++l) {
    for (std::uint32_t k = 0; k < kSubsPerPage; ++k) {
      const SubLoc& loc = subs_[l][k];
      if (!loc.valid() || packed_.count(loc.ppn.get()) != 0) continue;
      bool first = true;
      for (std::uint32_t j = 0; j < k; ++j) {
        if (subs_[l][j].ppn == loc.ppn) {
          first = false;
          break;
        }
      }
      if (first) fn(loc.ppn, nand::PageOwner::data(Lpn{l}));
    }
  }
}

void MrsmFtl::recover_finalize() {
  AF_CHECK_MSG(staged_.empty(), "GC staging buffer non-empty at mount");
}

std::uint64_t MrsmFtl::map_bytes() const {
  const auto* dir = engine_.map_directory();
  return dir ? dir->touched_pages() * engine_.geometry().page_bytes : 0;
}

std::uint64_t MrsmFtl::sub_regions() const {
  std::uint64_t n = 0;
  for (auto m : region_mode_) n += m;
  return n;
}

}  // namespace af::ftl
