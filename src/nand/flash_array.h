// State machine of the flash array: page states, block bookkeeping, erase
// semantics and (optionally) per-sector payload stamps used by the
// correctness oracle.
//
// This layer is pure mechanism: it knows nothing about timing, queuing or
// mapping. The SSD engine charges time; FTL schemes decide placement. A
// seeded FaultModel can make programs and erases fail: a failed program
// leaves a torn (invalid) page, a failed erase retires the block into the
// bad-block table. Recovery — reallocation, spare management, degradation —
// is the engine's job.
//
// Crash consistency: every program additionally stamps a spare-area
// (out-of-band) record — owner, array-wide sequence number, and for
// across/packed pages the mapping payload — which survives power loss and is
// what mount-time recovery replays. An armed PowerCutPlan kills the device
// at an exact op (see nand/power.h); the interrupted program leaves a torn
// OOB record that recovery detects and skips.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/interval.h"
#include "common/types.h"
#include "nand/faults.h"
#include "nand/geometry.h"
#include "nand/power.h"

namespace af::nand {

enum class PageState : std::uint8_t { kFree, kValid, kInvalid, kRetired };

/// Back-pointer from a valid physical page to its logical owner, used by GC
/// to relocate live data. `id` is an LPN for data pages, an AMT slot for
/// across-page areas, and a translation-page index for map pages.
struct PageOwner {
  /// kPacked marks pages whose slots hold sub-page chunks from multiple LPNs
  /// (MRSM's log-packed layout); the owning scheme keeps the slot directory.
  /// kCkpt marks checkpoint-journal pages (mapping snapshot / delta chunks).
  /// kParity marks die-level parity pages (id = stripe id); the engine's
  /// stripe tracker owns them, not any FTL scheme.
  enum class Kind : std::uint8_t {
    kNone, kData, kAcross, kMap, kPacked, kCkpt, kParity
  };
  Kind kind = Kind::kNone;
  std::uint64_t id = 0;

  static PageOwner data(Lpn lpn) { return {Kind::kData, lpn.get()}; }
  static PageOwner across(AmtIndex idx) { return {Kind::kAcross, idx.get()}; }
  static PageOwner map(std::uint64_t map_page) { return {Kind::kMap, map_page}; }
  static PageOwner packed(std::uint64_t log_id) { return {Kind::kPacked, log_id}; }
  static PageOwner ckpt(std::uint64_t journal_id) { return {Kind::kCkpt, journal_id}; }
  static PageOwner parity(std::uint64_t stripe_id) {
    return {Kind::kParity, stripe_id};
  }

  friend bool operator==(const PageOwner&, const PageOwner&) = default;
};

/// Spare-area slot directory capacity. Sized for MRSM's four quarter-page
/// sub-chunks — the densest per-page mapping payload any scheme writes.
inline constexpr std::uint32_t kOobSlots = 4;

/// One out-of-band record per page, written atomically with the page program
/// and erased with the block. This is the durable side of the mapping: RAM
/// tables are a cache; after power loss, recovery re-derives them from these
/// records (newest `seq` wins) on top of the last checkpoint.
struct OobRecord {
  /// Who the page belonged to at program time (kNone until programmed).
  PageOwner owner;
  /// Program was interrupted (fault or power cut): no readable data, no
  /// usable payload. Detected and counted at mount, never replayed.
  bool torn = false;
  /// Array-wide monotonic program sequence, 1-based; 0 = never programmed.
  std::uint64_t seq = 0;
  /// Across-page payload — the paper's AMT entry {Off, Size} as a sector
  /// range plus the slot base the stamps were laid out from.
  SectorAddr range_begin = 0;
  SectorAddr range_end = 0;
  SectorAddr slot_base = 0;
  /// Packed-page payload: slot `i` holds sub-chunk `sub` of `lpn`.
  struct Slot {
    std::uint64_t lpn = 0;
    std::uint8_t sub = 0;
    bool used = false;
  };
  std::array<Slot, kOobSlots> slots{};
  /// Parity-stripe membership (0 = none). Data pages carry the id of the
  /// stripe they were programmed into; a kParity owner's page carries its
  /// own stripe id here too. Recovery regroups stripes from these stamps.
  std::uint64_t stripe = 0;
  /// Write-stream slot the page was allocated from and the tenant it belongs
  /// to (DESIGN.md §12). Both 0 on single-tenant builds; recovery re-adopts
  /// partially-written blocks as stream frontiers and rebuilds per-tenant
  /// accounting from these stamps.
  std::uint8_t stream = 0;
  std::uint16_t tenant = 0;

  [[nodiscard]] bool written() const { return seq != 0; }
};

/// Caller-supplied spare-area payload beyond the owner itself. Data/map/ckpt
/// pages need none (the owner id is the whole story); across and packed
/// programs pass their mapping payload here.
struct OobExtra {
  SectorAddr range_begin = 0;
  SectorAddr range_end = 0;
  SectorAddr slot_base = 0;
  std::array<OobRecord::Slot, kOobSlots> slots{};
};

/// Durable root record for the checkpoint journal — modelled after the fixed
/// root block real firmware reserves. Updated only after a journal entry is
/// completely on flash, so a crash mid-journal-write leaves the previous
/// (complete) chain in force and the partial entry as orphan pages.
struct MountRoot {
  bool valid = false;
  /// Array seq at the moment the snapshot was serialized.
  std::uint64_t snapshot_seq = 0;
  /// Seq at the newest complete journal entry: recovery only replays OOB
  /// records newer than this.
  std::uint64_t journal_seq = 0;
  std::vector<Ppn> snapshot_pages;
  /// Delta entries since the snapshot, oldest first.
  std::vector<std::vector<Ppn>> delta_pages;
};

struct BlockInfo {
  std::uint32_t valid_pages = 0;
  /// Write frontier: pages [0, written) have been programmed since the last
  /// erase. NAND requires in-order programming within a block.
  std::uint32_t written = 0;
  std::uint64_t erase_count = 0;
  /// Largest OOB seq programmed into the block since its last erase (torn
  /// programs included) — lets recovery skip blocks older than the
  /// checkpoint without touching their pages.
  std::uint64_t max_seq = 0;
  /// Reads issued against this block's pages since its last erase — the
  /// read-disturb exposure every resident page shares. Reset by erase.
  std::uint64_t reads = 0;
  /// Grown bad block: a failed erase (or explicit retirement) removed it
  /// from service permanently. Retired blocks are never programmed or
  /// erased again.
  bool retired = false;

  [[nodiscard]] bool fully_written(std::uint32_t pages_per_block) const {
    return written == pages_per_block;
  }
};

/// Aggregate state counters maintained incrementally. Page-state counters
/// conserve: free + valid + invalid + retired == total pages.
struct ArrayCounters {
  std::uint64_t programs = 0;
  std::uint64_t erases = 0;
  std::uint64_t free_pages = 0;
  std::uint64_t valid_pages = 0;
  std::uint64_t invalid_pages = 0;
  std::uint64_t retired_pages = 0;
  // Injected-fault tallies (ground truth; survives DeviceStats::reset()).
  std::uint64_t program_faults = 0;
  std::uint64_t erase_faults = 0;
  std::uint64_t retired_blocks = 0;
};

class FlashArray {
 public:
  /// `track_payload` enables per-sector stamp storage (for the oracle);
  /// benches leave it off to save memory. `faults` seeds the injection
  /// model; the all-zero default makes every operation succeed.
  explicit FlashArray(const Geometry& geometry, bool track_payload = false,
                      const FaultConfig& faults = {});

  [[nodiscard]] const Geometry& geometry() const { return geom_; }
  [[nodiscard]] FaultModel& faults() { return faults_; }
  [[nodiscard]] const FaultModel& faults() const { return faults_; }

  // --- State transitions -------------------------------------------------

  /// Programs a free page. Enforces the in-order-within-block NAND rule:
  /// `ppn` must be the next unwritten page of its block. Returns false when
  /// the fault model fails the program — the page is then torn: it consumed
  /// a program cycle and the write frontier, holds no data, and is left
  /// kInvalid for GC to reclaim. The caller must re-program elsewhere.
  /// `extra` carries the spare-area mapping payload for across/packed pages;
  /// `stripe` (nonzero with parity striping on) is stamped into the OOB so
  /// stripe membership survives power loss, and `stream`/`tenant` stamp the
  /// allocation stream slot and owning tenant the same way (both 0 outside
  /// multi-tenant QoS runs).
  /// Throws PowerLoss (after tearing the page) if an armed cut fires here.
  [[nodiscard]] bool program(Ppn ppn, PageOwner owner,
                             const OobExtra* extra = nullptr,
                             std::uint64_t stripe = 0,
                             std::uint8_t stream = 0,
                             std::uint16_t tenant = 0);

  /// Marks a valid page as invalid (its logical owner moved elsewhere).
  /// RAM-side bookkeeping only: the OOB record stays until erase, which is
  /// exactly what recovery replays.
  void invalidate(Ppn ppn);

  /// Erases a block (flat block index): every page returns to kFree. All
  /// pages must already be invalid or free — erasing live data is a bug in
  /// the caller, not a legal operation. Returns false when the fault model
  /// fails the erase: the block is then retired (grown bad block) and its
  /// pages leave service; the caller must not reuse it.
  /// Throws PowerLoss (before any state change — erase is atomic) if an
  /// armed cut fires here.
  [[nodiscard]] bool erase_block(std::uint64_t flat_block);

  /// Explicit retirement (firmware policy, e.g. after repeated program
  /// failures). The block must hold no valid data.
  void retire_block(std::uint64_t flat_block);

  // --- Power-cut injection -------------------------------------------------

  /// Arms (or re-arms) the power-cut plan; the op counter restarts at zero.
  /// A disarmed plan (`at_op == 0`) still counts ops, so harnesses can
  /// measure a run's op horizon before sampling a crash point.
  void arm_power_cut(const PowerCutPlan& plan);
  void disarm_power_cut() { power_cut_ = PowerCutPlan{}; }
  [[nodiscard]] bool power_cut_armed() const { return power_cut_.armed(); }
  /// Physical ops observed since the last arm_power_cut call.
  [[nodiscard]] std::uint64_t ops_since_arm() const { return ops_since_arm_; }
  /// Read ops don't pass through this class, so the engine reports each page
  /// read here for op counting. Throws PowerLoss (reads change no state) if
  /// the armed cut fires on it.
  void count_read();
  /// count_read() plus read-disturb accounting: the read ages every page
  /// sharing `ppn`'s block. The disturb counter bumps before a cut can fire
  /// — partial sensing disturbs cells too, and the image carries it.
  void note_read(Ppn ppn);

  // --- Queries -------------------------------------------------------------

  [[nodiscard]] PageState state(Ppn ppn) const { return pages_[index(ppn)]; }
  [[nodiscard]] const PageOwner& owner(Ppn ppn) const {
    return owners_[index(ppn)];
  }
  [[nodiscard]] const BlockInfo& block(std::uint64_t flat_block) const {
    AF_CHECK(flat_block < blocks_.size());
    return blocks_[flat_block];
  }
  [[nodiscard]] bool retired(std::uint64_t flat_block) const {
    return block(flat_block).retired;
  }
  [[nodiscard]] const ArrayCounters& counters() const { return counters_; }

  /// Next programmable page of a block, or invalid Ppn if the block is full
  /// or retired.
  [[nodiscard]] Ppn write_frontier(std::uint64_t flat_block) const;

  /// Valid pages currently in a block, by page offset.
  [[nodiscard]] std::vector<Ppn> valid_pages_in(std::uint64_t flat_block) const;

  /// Allocation-free variant of valid_pages_in: calls `fn(Ppn)` for each
  /// valid page of the block in page order; `fn` returning false stops the
  /// walk. Liveness is re-checked as each page is reached, so `fn` may
  /// invalidate the page it was handed (the GC relocation pattern).
  template <typename Fn>
  void for_each_valid_page(std::uint64_t flat_block, Fn&& fn) const {
    const BlockInfo& info = block(flat_block);
    const std::uint64_t first = flat_block * geom_.pages_per_block;
    for (std::uint32_t p = 0; p < info.written; ++p) {
      const Ppn ppn{first + p};
      if (pages_[static_cast<std::size_t>(ppn.get())] != PageState::kValid) {
        continue;
      }
      if (!fn(ppn)) return;
    }
  }

  /// Fraction of all pages that are not free ("used", the paper's aging
  /// metric) and fraction that are valid.
  [[nodiscard]] double used_fraction() const;
  [[nodiscard]] double valid_fraction() const;

  [[nodiscard]] std::uint64_t max_erase_count() const;
  [[nodiscard]] std::uint64_t total_erases() const { return counters_.erases; }
  [[nodiscard]] std::uint64_t retired_blocks() const {
    return counters_.retired_blocks;
  }

  /// Wear distribution across blocks — the endurance picture behind the
  /// paper's erase-count metric.
  struct WearSummary {
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double mean = 0;
    /// max - min: how unevenly the scheme ages the flash.
    [[nodiscard]] std::uint64_t spread() const { return max - min; }
  };
  [[nodiscard]] WearSummary wear() const;

  // --- Latent bit-error state (data-integrity subsystem) -------------------

  /// Monotonic physical-op clock (programs + erases + reads); never resets,
  /// unlike ops_since_arm(). The retention proxy: page age is measured in
  /// device activity, keeping the model deterministic and wall-clock-free.
  [[nodiscard]] std::uint64_t op_clock() const { return op_clock_; }
  /// Physical ops elapsed since `ppn` was programmed. The page must have a
  /// durable program (torn pages hold no data to age).
  [[nodiscard]] std::uint64_t retention_ops(Ppn ppn) const;
  /// Expected raw bit errors (Poisson intensity) a sensing of `ppn` sees
  /// right now, from its retention, its block's read-disturb exposure and
  /// wear. Pure — no RNG state consumed; the scrub policy keys off this.
  [[nodiscard]] double page_ber(Ppn ppn) const;
  /// Draws the raw bit-error count of one sensing of `ppn` at the current
  /// page_ber() intensity (consumes the fault model's BER stream).
  [[nodiscard]] std::uint32_t draw_read_errors(Ppn ppn);

  // --- Spare-area (OOB) records --------------------------------------------

  [[nodiscard]] const OobRecord& oob(Ppn ppn) const { return oob_[index(ppn)]; }
  /// Largest OOB seq handed out so far (0 = nothing programmed yet).
  [[nodiscard]] std::uint64_t last_seq() const { return next_seq_; }

  // --- TRIM tombstones ------------------------------------------------------

  /// Durable record of one host TRIM, ordered against page programs by the
  /// shared OOB sequence counter. Real firmware journals trims into its log
  /// block; like MountRoot, the tombstone is modeled as durable the moment
  /// it is appended — a power cut after note_trim() recovers with the trim
  /// in force (a completed discard), one before it loses the trim (an
  /// unacknowledged discard). Recovery replays tombstones newer than the
  /// checkpoint interleaved with OOB claims, newest seq winning.
  struct TrimTombstone {
    std::uint64_t seq = 0;
    SectorAddr begin = 0;
    SectorAddr end = 0;
  };

  /// Appends a tombstone for `range`, consuming the next OOB seq; returns
  /// that seq. No physical op is counted (metadata journal append).
  std::uint64_t note_trim(SectorRange range);
  [[nodiscard]] const std::vector<TrimTombstone>& trim_log() const {
    return trim_log_;
  }
  /// Drops tombstones with seq ≤ `upto` — they are subsumed by a checkpoint
  /// journal entry serialized at that seq. Bounds the log under sustained
  /// trim traffic.
  void prune_trim_log(std::uint64_t upto);

  // --- Checkpoint journal storage ------------------------------------------

  /// Serialized journal chunks live in a side table keyed by page — the
  /// simulator doesn't model page data, only its existence — and follow the
  /// page's lifecycle: erased with the block, moved when GC relocates it.
  void set_ckpt_blob(Ppn ppn, std::vector<std::uint8_t> bytes);
  [[nodiscard]] const std::vector<std::uint8_t>* ckpt_blob(Ppn ppn) const;
  void move_ckpt_blob(Ppn from, Ppn to);

  [[nodiscard]] const MountRoot& mount_root() const { return root_; }
  void set_mount_root(MountRoot root) { root_ = std::move(root); }

  // --- Mount-time reconciliation (Recovery only) ---------------------------

  /// Invalidate a page recovery found to be an orphan (programmed, still
  /// marked valid, but not referenced by any recovered mapping entry).
  void recover_invalidate(Ppn ppn) { invalidate(ppn); }
  /// Re-validate a page whose program was durable but whose invalidation was
  /// RAM-only at crash time and is NOT superseded by newer OOB records.
  void recover_revive(Ppn ppn, PageOwner owner);

  // --- Payload stamps (oracle support) --------------------------------------

  [[nodiscard]] bool tracks_payload() const { return !stamps_.empty(); }
  void set_stamp(Ppn ppn, std::uint32_t sector_in_page, std::uint64_t stamp);
  [[nodiscard]] std::uint64_t stamp(Ppn ppn, std::uint32_t sector_in_page) const;

 private:
  [[nodiscard]] std::size_t index(Ppn ppn) const {
    AF_CHECK(ppn.valid() && ppn.get() < geom_.total_pages());
    return static_cast<std::size_t>(ppn.get());
  }
  [[nodiscard]] std::size_t stamp_index(Ppn ppn, std::uint32_t sector) const {
    AF_CHECK(sector < geom_.sectors_per_page());
    return index(ppn) * geom_.sectors_per_page() + sector;
  }

  /// Counts one physical op; true when the armed cut fires on it.
  [[nodiscard]] bool cut_now();

  /// Moves every page of the block to kRetired and flags the block. The
  /// block must hold no valid data.
  void do_retire(std::uint64_t flat_block);

  /// Clears a page's stamps and checkpoint blob (erase/retire path).
  void scrub_page(std::size_t i);

  Geometry geom_;
  FaultModel faults_;
  std::vector<PageState> pages_;
  std::vector<PageOwner> owners_;
  std::vector<OobRecord> oob_;
  std::vector<BlockInfo> blocks_;
  /// op_clock_ value at each page's last durable program (0 = none); the
  /// minuend of retention_ops(). Cleared with the block.
  std::vector<std::uint64_t> programmed_at_;
  std::vector<std::uint64_t> stamps_;  // empty unless track_payload
  // Keyed by raw ppn; lookups only — never iterated, so determinism holds.
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> blobs_;
  /// Seq-ascending (append-only) durable TRIM records; pruned as checkpoints
  /// subsume them.
  std::vector<TrimTombstone> trim_log_;
  MountRoot root_;
  ArrayCounters counters_;
  std::uint64_t next_seq_ = 0;
  PowerCutPlan power_cut_;
  std::uint64_t ops_since_arm_ = 0;
  std::uint64_t op_clock_ = 0;
};

}  // namespace af::nand
