// Across-FTL — the paper's contribution (§3).
//
// An across-page write (size ≤ one page, spanning two logical pages) is
// remapped onto a single freshly allocated physical page, the *across-page
// area*. The two-level mapping table consists of:
//
//   PMT  — per-LPN entry {PPN, AIdx}; AIdx = kNoArea ("-1" in the paper)
//          when the page has no remapped data, otherwise an AMT slot.
//   AMT  — per-area entry {range (Off+Size in the paper), APPN}.
//
// Area data lives at page-internal slots [0, range.size()), i.e. slot k
// holds logical sector range.begin + k.
//
// Lifecycle (§3.3): direct write creates an area; AMerge folds an update
// into the area when the union still fits in one page (profitable when the
// update itself is across-page); ARollback dissolves the area back into
// normal pages when the union outgrows a page. Two behaviours the paper
// leaves unspecified are documented in DESIGN.md: AIdx lives on *both* LPNs
// of the pair, and a full overwrite of one LPN's share *shrinks* the area
// (metadata-only) instead of forcing a rollback.
//
// Invariants (checked by check_invariants() in tests):
//   I1  pmt[l].aidx == a  ⇔  amt[a] is live and amt[a].range ∩ page(l) ≠ ∅.
//   I2  a live area covers 1 or 2 consecutive LPNs and ≤ one page of sectors.
//   I3  amt[a].appn is a valid flash page owned by PageOwner::across(a).
//   I4  area data is never stale: any write overlapping an area merges into
//       it, shrinks it away, or rolls it back in the same request.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "ftl/scheme.h"

namespace af::ftl {

class AcrossFtl final : public FtlScheme {
 public:
  static constexpr std::uint32_t kNoArea = UINT32_MAX;

  struct PmtEntry {
    Ppn ppn;                      // normal data page (may be invalid)
    std::uint32_t aidx = kNoArea; // the paper's AIdx field
  };

  struct AmtEntry {
    SectorRange range;  // absolute sectors; the paper's Off + Size
    Ppn appn;           // the across-page area
    std::uint32_t generation = 0;  // bumped per reuse (valve FIFO validity)
    /// Sector mapped to page slot 0 — fixed when the page is programmed.
    /// After a shrink, `range` may start later than `slot_base`, so slot
    /// lookups must use this, not range.begin.
    SectorAddr slot_base = 0;
    bool live = false;

    [[nodiscard]] std::uint32_t slot_of(SectorAddr s) const {
      return static_cast<std::uint32_t>(s - slot_base);
    }
  };

  explicit AcrossFtl(ssd::Engine& engine);

  [[nodiscard]] const char* name() const override { return "Across-FTL"; }
  SimTime write(const IoRequest& req, SimTime ready) override;
  SimTime read(const IoRequest& req, SimTime ready, ReadPlan* plan) override;
  [[nodiscard]] SimTime trim(SectorRange range, SimTime ready) override;
  [[nodiscard]] bool lpn_mapped(Lpn lpn) const override {
    return pmt_[lpn.get()].ppn.valid() || pmt_[lpn.get()].aidx != kNoArea;
  }
  void gc_relocate(Ppn victim, const nand::PageOwner& owner,
                   SimTime& clock) override;
  [[nodiscard]] std::uint64_t map_bytes() const override;

  // RecoverableMapping: PMT entries plus the full AMT (dead entries carry the
  // generation counters the valve FIFO depends on).
  void serialize_mapping(ssd::ByteSink& sink) const override;
  void serialize_delta(ssd::ByteSink& sink) override;
  void deserialize_mapping(ssd::ByteSource& src) override;
  void apply_delta(ssd::ByteSource& src) override;
  void recover_claim(const nand::OobRecord& oob, Ppn ppn) override;
  void recover_trim(SectorRange range) override;
  void recover_enumerate(
      const std::function<void(Ppn, nand::PageOwner)>& fn) const override;
  void recover_finalize() override;

  // --- Introspection (tests, examples) --------------------------------------
  [[nodiscard]] const PmtEntry& pmt(Lpn lpn) const;
  [[nodiscard]] const AmtEntry& amt(std::uint32_t aidx) const;
  [[nodiscard]] std::uint64_t live_areas() const { return live_areas_; }
  /// Aborts on any violated invariant; O(table size), test-only.
  void check_invariants() const;

 private:
  // --- Mapping-table address layout ------------------------------------------
  // Translation pages: PMT pages first (6-byte entries: 4B PPN + 2B AIdx),
  // then AMT pages (16-byte entries).
  [[nodiscard]] std::uint64_t pmt_tpage_of(Lpn lpn) const {
    return lpn.get() / pmt_entries_per_tpage_;
  }
  [[nodiscard]] std::uint64_t amt_tpage_of(std::uint32_t aidx) const {
    return pmt_tpages_ + aidx / amt_entries_per_tpage_;
  }
  [[nodiscard]] SimTime touch_pmt(Lpn lpn, bool dirty, SimTime ready);
  [[nodiscard]] SimTime touch_amt(std::uint32_t aidx, bool dirty,
                                  SimTime ready);

  // --- Area lifecycle ---------------------------------------------------------
  std::uint32_t alloc_area();
  void free_area(std::uint32_t aidx);

  /// First across-page write of a pair: one program, no reads.
  [[nodiscard]] SimTime direct_write(SectorRange w, SimTime ready);

  /// Folds `w` into area `aidx`: read old area page, program merged area.
  [[nodiscard]] SimTime amerge(std::uint32_t aidx, SectorRange w,
                               bool profitable, SimTime ready);

  /// Dissolves area `aidx` back into normal pages, folding in the update `u`
  /// (if any). Writes full pages for every LPN the area/update hull touches.
  [[nodiscard]] SimTime rollback(std::uint32_t aidx,
                                 std::optional<SectorRange> u, SimTime ready);

  /// The baseline's page-mapped write of one sub-request
  /// (FtlScheme::program_sub, RMW over the old normal page).
  [[nodiscard]] SimTime write_normal_sub(const SubRequest& sub, SimTime ready);

  /// Handles one sub-request of a non-across write against current state.
  [[nodiscard]] SimTime write_sub(const SubRequest& sub, SimTime ready);

  /// Across-page write dispatch (direct / AMerge / ARollback / conflicts).
  [[nodiscard]] SimTime write_across(const IoRequest& req, SimTime ready);

  /// Space-pressure valve. Every remapped area keeps the host's old normal
  /// pages alive alongside one extra flash page, so an unbounded area pool
  /// can push live data past what per-plane GC can ever reclaim (the paper
  /// does not discuss area-pool sizing). Above the watermark new across
  /// writes fall back to the normal path and the oldest areas are drained.
  [[nodiscard]] bool under_pressure() const;
  SimTime drain_one_area(SimTime ready);

  // --- Area-aware victim weighting (config.across.area_live_weight) ----------
  /// Weight of an area page carrying `range` live sectors.
  [[nodiscard]] std::uint32_t area_weight(const SectorRange& range) const {
    return static_cast<std::uint32_t>(range.size() *
                                      ssd::Engine::kFullPageWeight /
                                      pgeom_.sectors_per_page);
  }
  /// Pushes the area's current live weight into the engine's incremental
  /// victim accounting. No-op unless area_live_weight is enabled.
  void push_area_weight(std::uint32_t aidx);

  // --- Crash recovery helpers -------------------------------------------------
  void journal_lpn(std::uint64_t lpn) {
    if (journaling()) dirty_lpns_.push_back(lpn);
  }
  void journal_area(std::uint32_t aidx) {
    if (journaling()) dirty_areas_.push_back(aidx);
  }
  /// Replays a durable kData program: the new normal page supersedes this
  /// LPN's share of any area covering it (the shrink/rollback semantics).
  void recover_claim_data(const nand::OobRecord& oob, Lpn lpn, Ppn ppn);
  /// Replays a durable kAcross program (direct write, AMerge or GC move).
  void recover_claim_across(const nand::OobRecord& oob, Ppn ppn);
  /// Rebuilds amt_free_, area_fifo_ and live_areas_ from the AMT (used after
  /// checkpoint restore + claim replay).
  void rebuild_area_state();

  std::vector<PmtEntry> pmt_;
  std::vector<AmtEntry> amt_;
  std::vector<std::uint32_t> amt_free_;
  /// Creation-ordered (aidx, generation) pairs for valve eviction; entries
  /// are validated lazily against the generation counter.
  std::deque<std::pair<std::uint32_t, std::uint32_t>> area_fifo_;
  double pressure_watermark_ = 1.0;
  std::uint64_t live_areas_ = 0;

  std::uint64_t pmt_entries_per_tpage_;
  std::uint64_t amt_entries_per_tpage_;
  std::uint64_t pmt_tpages_;
  std::uint64_t max_amt_entries_;
  bool area_weight_on_ = false;  // snapshot of config.across.area_live_weight

  // Delta-journal dirty sets (tracked only while journaling).
  std::vector<std::uint64_t> dirty_lpns_;
  std::vector<std::uint32_t> dirty_areas_;
};

}  // namespace af::ftl
