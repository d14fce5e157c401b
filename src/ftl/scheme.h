// FtlScheme: the policy interface all three comparison schemes implement
// (baseline page-level FTL, MRSM, Across-FTL). A scheme plans flash
// operations through the Engine's services; the engine owns placement,
// timing, GC and statistics.
//
// Threading: schemes and the engine are single-threaded by design. Scheme
// code must not spawn threads or assume it can be re-entered concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/interval.h"
#include "common/types.h"
#include "ftl/request.h"
#include "ssd/engine.h"
#include "ssd/recovery.h"

namespace af::ftl {

/// Supplies the version stamp a write leaves on a logical sector. Present
/// only when the device runs with payload tracking (the oracle); schemes use
/// it to label newly-programmed sectors.
class StampProvider {
 public:
  virtual ~StampProvider() = default;
  [[nodiscard]] virtual std::uint64_t stamp_of(SectorAddr sector) const = 0;
};

/// Per-read verification record: the stamp each logical sector's data carried
/// on flash at the location the scheme chose to read. Filled only when the
/// caller passes a non-null plan.
struct ReadPlan {
  struct Observation {
    SectorAddr sector;
    std::uint64_t stamp;  // 0 for never-written sectors
  };
  std::vector<Observation> observed;
};

/// Every scheme is also a RecoverableMapping: its tables can be serialized
/// into checkpoint-journal entries and rebuilt at mount from a checkpoint
/// plus OOB claims (ssd/recovery.h).
class FtlScheme : public ssd::RecoverableMapping {
 public:
  explicit FtlScheme(ssd::Engine& engine);
  ~FtlScheme() override = default;

  FtlScheme(const FtlScheme&) = delete;
  FtlScheme& operator=(const FtlScheme&) = delete;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Services a write; returns the completion time of its last flash op.
  [[nodiscard]] virtual SimTime write(const IoRequest& req, SimTime ready) = 0;

  /// Services a read; returns completion time. Fills `plan` when non-null
  /// and the device tracks payload.
  [[nodiscard]] virtual SimTime read(const IoRequest& req, SimTime ready,
                                     ReadPlan* plan) = 0;

  /// Services a TRIM/discard: unmaps every logical page fully covered by
  /// `range` (partial head/tail pages keep their data), invalidating the
  /// freed flash pages and pushing GC live-weight updates. Pure metadata —
  /// the cost is the mapping-table touches. Returns completion time.
  [[nodiscard]] virtual SimTime trim(SectorRange range, SimTime ready) = 0;

  /// GC relocation hook: move live page `victim` owned by `owner`, update
  /// the scheme's mapping, and advance `clock` past the copy operations.
  virtual void gc_relocate(Ppn victim, const nand::PageOwner& owner,
                           SimTime& clock) = 0;

  /// Bytes of mapping state the scheme has materialised so far — the
  /// quantity Figure 12(a) plots. Includes second-level structures (AMT,
  /// MRSM sub-tables).
  [[nodiscard]] virtual std::uint64_t map_bytes() const = 0;

  /// True when the logical page currently occupies flash in any form (page
  /// mapping, MRSM sub-slots, or an Across area overlapping it). A write to
  /// a mapped page is an overwrite — it adds no net valid pages — so the
  /// capacity admission guard charges only the unmapped pages of a request;
  /// otherwise a device at the ceiling would refuse overwrites of its own
  /// data forever.
  [[nodiscard]] virtual bool lpn_mapped(Lpn lpn) const = 0;

  /// Net-new logical pages a write spanning `range` would materialise:
  /// pages of the footprint with no current mapping.
  [[nodiscard]] std::uint64_t unmapped_pages(SectorRange range) const {
    const std::uint32_t spp = page_geometry().sectors_per_page;
    std::uint64_t count = 0;
    for (std::uint64_t l = range.begin / spp; l * spp < range.end; ++l) {
      if (!lpn_mapped(Lpn{l})) ++count;
    }
    return count;
  }

  void set_stamp_provider(const StampProvider* provider) {
    stamps_ = provider;
  }

  [[nodiscard]] const PageGeometry& page_geometry() const { return pgeom_; }

  void enable_journal(bool on) override { journal_ = on; }

 protected:
  /// Dirty-entry tracking is on (a Checkpointer is writing delta entries).
  [[nodiscard]] bool journaling() const { return journal_; }

  /// LPNs fully covered by `range`, as a half-open raw index span
  /// [first, last); empty (first >= last) when no whole page is covered.
  /// The shared inward-rounding rule of every trim path (live, recovery and
  /// oracle sides must agree on it exactly).
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> trim_span(
      SectorRange range) const {
    const std::uint32_t spp = pgeom_.sectors_per_page;
    return {(range.begin + spp - 1) / spp, range.end / spp};
  }

  [[nodiscard]] bool tracking() const {
    return stamps_ != nullptr && engine_.tracks_payload();
  }

  /// The page-mapped sub-write all three schemes share (the paper's
  /// baseline): read `old` first when `sub` covers only part of the page
  /// (read-modify-write), stage the page's stamps, invalidate `old`, then
  /// program a kData page carrying `oob`. The caller repoints its mapping at
  /// the returned page.
  [[nodiscard]] ssd::Engine::Programmed program_sub(
      const SubRequest& sub, Ppn old, SimTime ready,
      const nand::OobExtra* oob = nullptr);

  /// Stamp for a sector freshly written by the current request.
  [[nodiscard]] std::uint64_t new_stamp(SectorAddr s) const {
    return stamps_->stamp_of(s);
  }

  ssd::Engine& engine_;
  PageGeometry pgeom_;

 private:
  const StampProvider* stamps_ = nullptr;
  bool journal_ = false;
};

enum class SchemeKind { kPageFtl, kMrsm, kAcrossFtl };

const char* to_string(SchemeKind kind);

/// Builds a scheme, sizes its mapping space on the engine, and registers its
/// GC relocator.
std::unique_ptr<FtlScheme> make_scheme(SchemeKind kind, ssd::Engine& engine);

}  // namespace af::ftl
