// The SSD engine: page allocation, garbage collection, flash-op timing and
// accounting. FTL schemes are policies layered on top of this mechanism —
// they decide *what* to read, program and remap; the engine decides *where*
// pages land, *when* operations complete, and keeps every figure's counters.
//
// Threading: deliberately unsynchronized — the engine is owned by the
// caller's thread. Nothing here may block or spawn.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "nand/flash_array.h"
#include "ssd/config.h"
#include "ssd/map_directory.h"
#include "ssd/stats.h"
#include "ssd/status.h"
#include "ssd/timeline.h"

namespace af::ssd {

/// Write streams keep unlike data apart: host writes, GC migrations,
/// translation pages and parity pages each fill their own active block per
/// plane (parity separated so a stripe's members and its parity never share
/// a block — one block failure must not take both).
///
/// The enum names the four fixed streams; under multi-tenant QoS
/// (config.qos.streams_enabled(), DESIGN.md §12) the engine grows a runtime
/// stream table past them — a data slot and a GC slot per tenant — and
/// Stream::kData programs are routed to the current tenant's slot, so
/// schemes keep passing the enum and never learn about tenants.
enum class Stream : std::uint8_t { kData = 0, kGc, kMap, kParity, kStreamCount };
constexpr std::size_t kStreamCount =
    static_cast<std::size_t>(Stream::kStreamCount);

/// "No tenant" marker for engine-internal attribution (map/ckpt/parity
/// pages, single-tenant builds).
inline constexpr std::uint16_t kNoTenant = 0xffff;

class StripeTracker;

/// How a flash read's data came back (DESIGN.md §8). Everything except kLost
/// returned correct data; the grades price what it cost. kLost means the ECC
/// ladder was exhausted and no intact parity stripe covered the page — the
/// caller must treat the payload as gone (the sim surfaces it via counters
/// and Completion::data_lost; stamps stay intact so the oracle keeps running).
enum class ReadStatus : std::uint8_t {
  kOk = 0,      // first sensing decoded (or BER model off)
  kEccRetried,  // rescued by the read-retry ladder
  kRebuilt,     // uncorrectable, rebuilt from stripe peers + parity
  kLost         // uncorrectable, no intact stripe
};

struct ReadResult {
  SimTime done = 0;
  ReadStatus status = ReadStatus::kOk;
  [[nodiscard]] bool data_lost() const { return status == ReadStatus::kLost; }
};

class Engine final : private MapIo {
 public:
  explicit Engine(const SsdConfig& config);
  /// Mount path: adopts a flash image that survived power loss. Free lists,
  /// retirement counts and the read-only floor are rebuilt from the image;
  /// active blocks start empty (partially-written blocks become GC
  /// candidates), and the victim-weight caches stay zero until Recovery has
  /// re-derived page liveness and calls rebuild_victim_state().
  Engine(const SsdConfig& config, nand::FlashArray image);
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Scheme services ------------------------------------------------------

  /// Reads a flash page; returns completion time plus the integrity grade.
  /// With the BER model on, the read draws raw bit errors and may climb the
  /// ECC read-retry ladder, rebuild from a parity stripe, or come back
  /// kLost — callers must consume the status (enforced by [[nodiscard]] and
  /// the af_lint integrity-status rule).
  [[nodiscard]] ReadResult flash_read(Ppn ppn, OpKind kind, SimTime ready);

  struct Programmed {
    Ppn ppn;
    SimTime done = 0;
  };

  /// Allocates the next page of `stream`, programs it, and returns its
  /// address and completion time (threshold GC may run behind the program).
  /// `oob` carries the spare-area mapping payload for across/packed pages;
  /// plain data/map/ckpt pages derive theirs from the owner alone. `stamps`
  /// is the page's payload (slots [0, stamps->size())), written atomically
  /// with the program — on real flash data and spare land in one operation,
  /// so under power-cut injection a completed program must never be
  /// separable from its payload.
  [[nodiscard]] Programmed flash_program(
      Stream stream, nand::PageOwner owner, OpKind kind, SimTime ready,
      const nand::OobExtra* oob = nullptr,
      const std::vector<std::uint64_t>* stamps = nullptr);

  /// Marks a page stale. No timing cost: invalidation is a metadata action.
  void invalidate(Ppn ppn);

  // --- Capacity admission (DESIGN.md §9) -----------------------------------

  /// Admission check for a host write needing up to `pages` fresh data
  /// pages. Pure arithmetic over the array counters — no RNG, no timing, no
  /// state change — so arming it costs default runs nothing. kReadOnly once
  /// degradation engaged; kNoSpace when the projected valid-page population
  /// would eat into the per-plane GC reserve plus
  /// CapacityPolicy::kNoSpaceMarginBlocks (a device that full can no longer
  /// turn blocks over). Never fires while exported_fraction leaves
  /// the stock over-provisioning in place.
  [[nodiscard]] Status admit_write(std::uint64_t pages) const;

  /// Accesses one translation page of the scheme's mapping table through the
  /// CMT. Must be preceded by init_map_space(). Returns advanced ready time.
  [[nodiscard]] SimTime map_touch(std::uint64_t map_page, bool dirty,
                                  SimTime ready);

  /// Charges `n` DRAM accesses (mapping-structure walks beyond the CMT touch
  /// itself, e.g. MRSM's tree descent).
  void dram_access(std::uint64_t n = 1);

  /// Declares the scheme's mapping-table size in translation pages and
  /// builds the CMT with the configured DRAM budget.
  void init_map_space(std::uint64_t num_map_pages);

  // --- GC plumbing ----------------------------------------------------------

  /// The scheme's relocation callback: move the live page `victim` (owned by
  /// `owner`) to a fresh location and update the scheme's mapping. Data must
  /// be programmed through gc_program(). `clock` is the GC time cursor.
  using Relocator =
      std::function<void(Ppn victim, const nand::PageOwner& owner, SimTime& clock)>;
  void set_relocator(Relocator relocator) { relocator_ = std::move(relocator); }

  /// End-of-GC hook, called once per GC pass after the last victim was
  /// erased, with GC allowances still in force. Schemes that stage sub-page
  /// chunks during relocation (MRSM's cross-page repacking) drain their
  /// buffers here.
  using GcFlush = std::function<void(std::uint64_t plane, SimTime& clock)>;
  void set_gc_flush(GcFlush flush) { gc_flush_ = std::move(flush); }

  /// Weight of a fully-live valid page in victim scoring.
  static constexpr std::uint32_t kFullPageWeight = 256;

  /// Victim-scoring oracle: how much of a valid page is actually live, in
  /// [0, kFullPageWeight]. Sub-page schemes (MRSM, Across-FTL's area mode)
  /// install this so that page-level-valid but slot-level-dead blocks remain
  /// GC victims; without it, fragmentation wedges the device.
  ///
  /// The hot path never calls this: victim selection reads the incremental
  /// per-block weight cache, which the scheme keeps in sync by pushing
  /// note_page_weight() at every slot-liveness change. The callback is the
  /// pull-style ground truth behind block_weight(), used by the debug
  /// consistency checks and tests to validate the pushed weights.
  using VictimWeight = std::function<std::uint32_t(Ppn)>;
  void set_victim_weight(VictimWeight weight) {
    victim_weight_ = std::move(weight);
  }

  /// Weight-delta push: declares that valid page `ppn` now carries
  /// `live_weight` (≤ kFullPageWeight) of live data. Programs start at
  /// kFullPageWeight; schemes with sub-page liveness (MRSM slots, Across-FTL
  /// areas) push the real weight right after programming and again whenever
  /// slot-level liveness changes. O(1): updates the page and block weight
  /// caches and re-indexes the block in its plane's victim heap.
  void note_page_weight(Ppn ppn, std::uint32_t live_weight);

  /// Program dedicated to relocation: writes into the GC stream of the
  /// victim's plane.
  [[nodiscard]] Programmed gc_program(std::uint64_t plane,
                                      nand::PageOwner owner, SimTime ready,
                                      const nand::OobExtra* oob = nullptr);

  /// Notification that GC moved a checkpoint-journal page, so the journal
  /// owner (ssd::Checkpointer) can repoint the mount root at the new copy.
  using CkptMoved = std::function<void(Ppn from, Ppn to)>;
  void set_ckpt_moved(CkptMoved moved) { ckpt_moved_ = std::move(moved); }

  // --- Data integrity (DESIGN.md §8) ----------------------------------------

  /// Scrub health-check sensing: charges one read (no ECC ladder — the
  /// scrubber acts on the page's *expected* BER, not a sampled draw, so the
  /// sweep itself stays deterministic and draw-free).
  [[nodiscard]] SimTime scrub_read(Ppn ppn, SimTime ready);

  /// Relocates one valid page through the GC machinery (mapping updates, OOB
  /// stamps and victim-weight caches all follow the normal relocation path),
  /// refreshing its retention clock. Must not be called during GC.
  [[nodiscard]] SimTime scrub_relocate(Ppn ppn, SimTime ready);

  /// Mount-time parity-state rebuild from the OOB stripe stamps; returns the
  /// number of sealed stripes recovered. No-op (0) with parity off. A pure
  /// metadata pass: real firmware would persist a stripe directory in its
  /// checkpoints, so mount charges no extra reads here.
  std::uint64_t rebuild_parity_state();

  /// Sealed-stripe directory, or nullptr with parity off. Recovery marks
  /// parity pages as referenced through this.
  [[nodiscard]] const StripeTracker* stripes() const { return stripes_.get(); }

  // --- Payload stamps (oracle) ----------------------------------------------

  [[nodiscard]] bool tracks_payload() const { return array_.tracks_payload(); }
  void write_stamp(Ppn ppn, std::uint32_t sector_in_page, std::uint64_t stamp);
  [[nodiscard]] std::uint64_t read_stamp(Ppn ppn,
                                         std::uint32_t sector_in_page) const;
  /// Copies all sector stamps from one page to another (GC migration).
  void copy_stamps(Ppn from, Ppn to);

  // --- Introspection ----------------------------------------------------------

  [[nodiscard]] const SsdConfig& config() const { return config_; }
  [[nodiscard]] const nand::Geometry& geometry() const {
    return config_.geometry;
  }
  [[nodiscard]] nand::FlashArray& array() { return array_; }
  [[nodiscard]] const nand::FlashArray& array() const { return array_; }
  [[nodiscard]] DeviceStats& stats() { return stats_; }
  [[nodiscard]] const DeviceStats& stats() const { return stats_; }
  [[nodiscard]] const MapDirectory* map_directory() const { return map_.get(); }
  /// Mutable directory access for the checkpoint/recovery machinery (GTD
  /// serialization and mount-time restore).
  [[nodiscard]] MapDirectory* map_directory_mut() { return map_.get(); }
  [[nodiscard]] ResourceTimeline& timeline() { return timeline_; }

  // --- Mount/recovery support -----------------------------------------------

  /// Spare-area scan read during mount: charges one flash read (OOB reads
  /// ride the page-read latency here) without the valid-page assertion —
  /// recovery reads invalid and torn pages too.
  [[nodiscard]] SimTime mount_read(Ppn ppn, SimTime ready);

  /// Surrenders the flash image (e.g. after a power cut, to hand it to a
  /// freshly mounted engine). The engine must not be used afterwards.
  [[nodiscard]] nand::FlashArray release_array() { return std::move(array_); }

  /// Recomputes per-page/per-block live-weight caches from the array and the
  /// installed victim-weight oracle, then rebuilds every plane's victim
  /// heap. Recovery calls this once the scheme's tables are back.
  void rebuild_victim_state();

  /// Free blocks currently available in a plane (excluding active blocks).
  [[nodiscard]] std::uint64_t free_blocks(std::uint64_t plane) const;

  /// Device-wide free capacity in pages (free blocks only — active-block
  /// frontiers are excluded). The checkpointer sizes journal entries against
  /// this so a snapshot burst never eats the free blocks GC still needs.
  [[nodiscard]] std::uint64_t free_headroom_pages() const;

  /// Per-plane free-block floor below which GC engages. Public because
  /// schemes derive their space-pressure watermarks from it. The effective
  /// per-plane trigger adds a small deterministic stagger (see
  /// plane_trigger_blocks) so plane GC waves do not synchronise.
  [[nodiscard]] std::uint32_t gc_trigger_blocks() const;
  [[nodiscard]] std::uint32_t plane_trigger_blocks(std::uint64_t plane) const;

  /// Attribute subsequent data programs to this request class (Figure 4c).
  void set_request_class(std::optional<ReqClass> c) { current_class_ = c; }

  // --- Multi-tenant QoS (DESIGN.md §12) -------------------------------------

  /// Attribute subsequent host data programs to this tenant: they allocate
  /// from the tenant's stream slot (config.qos.streams_enabled()) and are
  /// stamped into page/OOB tenant bookkeeping. Ignored — cheap store only —
  /// unless config.qos.enabled(). The facade sets it per request, mirroring
  /// set_request_class.
  void set_tenant(std::uint16_t tenant) { current_tenant_ = tenant; }

  /// Per-tenant capacity-share admission on top of admit_write(): kNoSpace
  /// once the tenant's live footprint plus `pages` would exceed its share of
  /// logical pages (config.qos.capacity_share_millis). kOk whenever quotas
  /// are unconfigured — pure arithmetic, no state change.
  [[nodiscard]] Status admit_tenant_write(std::uint16_t tenant,
                                          std::uint64_t pages) const;

  /// Live data pages currently attributed to `tenant` (0 with QoS off).
  [[nodiscard]] std::uint64_t tenant_live_pages(std::uint16_t tenant) const {
    return tenant < tenant_live_pages_.size() ? tenant_live_pages_[tenant] : 0;
  }

  /// Returns and clears the pages GC relocated on `tenant`'s behalf since
  /// the last drain. The facade converts this into a token-bucket surcharge
  /// (config.qos.gc_debt_sectors_per_page) so the tenant that dirtied the
  /// blocks pays for their reclamation.
  std::uint64_t drain_gc_debt_pages(std::uint16_t tenant);

  /// Tenant attributed to a valid page, or kNoTenant (engine-owned pages,
  /// QoS off). Exposed for tests and recovery verification.
  [[nodiscard]] std::uint16_t page_tenant(Ppn ppn) const {
    return page_tenant_.empty() ? kNoTenant : page_tenant_[ppn.get()];
  }

  /// Mount-time QoS rebuild from OOB stamps: re-derives page→tenant
  /// attribution and per-tenant live-page counts, and re-adopts
  /// partially-written blocks as their stream slot's active frontier (the
  /// stamped slot of the block's newest page). Recovery calls this before
  /// rebuild_victim_state() so adopted frontiers leave the victim heaps.
  /// No-op unless config.qos.enabled().
  void rebuild_qos_state();

  // --- Tail-latency subsystem (DESIGN.md §11) -------------------------------

  /// In-simulated-time deadline of the request currently being serviced.
  /// While set, foreground reads that would otherwise finish past it may
  /// suspend in-flight background erase/program ops
  /// (config.deadline.preempt); reads finishing late are counted as misses
  /// and feed die quarantine. Cleared between requests; never set unless
  /// config.deadline.enabled().
  void set_deadline(std::optional<SimTime> deadline) { deadline_ = deadline; }

  /// Total GC passes run.
  [[nodiscard]] std::uint64_t gc_runs() const { return gc_runs_; }

  /// Graceful degradation: true once block retirement has eaten into the
  /// spare capacity some plane needs to keep GC viable. The device then
  /// refuses new writes (the facade surfaces the rejection) but keeps
  /// serving reads and internal housekeeping.
  [[nodiscard]] bool read_only() const { return read_only_; }

  /// Sum of live weights over a block's valid pages, recomputed from scratch
  /// through the VictimWeight oracle (brute force; public for tests and the
  /// debug consistency checks).
  [[nodiscard]] std::uint64_t block_weight(std::uint64_t flat_block) const;

  /// Cross-validates the weight caches against a brute-force recompute of
  /// every block (and the per-page weights against the oracle). Aborts
  /// loudly on any drift; O(pages), for tests and debugging only.
  void verify_victim_accounting() const;

  /// Victim-selection work counters (perf trajectory; see bench/perf_replay).
  struct GcPerf {
    std::uint64_t victim_picks = 0;     // pick_victim calls
    std::uint64_t heap_pops = 0;        // stale index entries discarded
    std::uint64_t heap_pushes = 0;      // index entries (re-)inserted
    std::uint64_t heap_rebuilds = 0;    // compactions of a plane's index
    std::uint64_t scan_picks = 0;       // reference-path picks (debug/bench)
    std::uint64_t scan_blocks = 0;      // blocks visited by the scan path
  };
  [[nodiscard]] const GcPerf& gc_perf() const { return gc_perf_; }

  static constexpr std::uint32_t kNoBlock = UINT32_MAX;
  static constexpr std::uint64_t kNoPlane = UINT64_MAX;

  /// Greedy victim choice off the plane's weight-indexed heap; returns
  /// kNoBlock when nothing is reclaimable. Public (with pick_victim_scan)
  /// so benches and tests can compare the indexed and scan paths. Lazily
  /// discards stale index entries, hence non-const.
  std::uint32_t pick_victim(std::uint64_t plane);

  /// Reference implementation: the original full scan over the plane's
  /// blocks, rescoring each through block_weight(). Kept as the verification
  /// oracle for the indexed path and as the microbenchmark baseline.
  [[nodiscard]] std::uint32_t pick_victim_scan(std::uint64_t plane) const;

 private:
  struct PlaneState {
    std::vector<std::uint32_t> free_blocks;  // block ids within plane
    // Active (partially filled) block per stream slot (stream_slots_
    // entries: the four fixed streams plus any tenant data and GC slots);
    // kNoBlock when none.
    std::vector<std::uint32_t> active;
    // Victim currently being drained by resumable partial GC.
    std::uint32_t gc_victim;
    // Grown bad blocks no longer in service (spare-capacity accounting).
    std::uint32_t retired;
    // Lazy min-heap of victim_key() entries over this plane's non-active,
    // non-retired blocks. Entries are snapshots: a block's key is re-pushed
    // on every weight/frontier change and stale snapshots are discarded at
    // pick time (or swept wholesale by rebuild_victim_heap).
    std::vector<std::uint64_t> victim_heap;
  };

  // MapIo implementation (directory's view of the engine).
  [[nodiscard]] SimTime map_flash_read(Ppn ppn, SimTime ready) override;
  std::pair<Ppn, SimTime> map_flash_program(std::uint64_t map_page,
                                            SimTime ready) override;
  void map_flash_invalidate(Ppn ppn) override;
  void map_dram_access(std::uint64_t n) override;

  /// Fixed-stream slot index (tenant routing happens in the callers that
  /// hold the tenant: flash_program and gc_program).
  [[nodiscard]] static constexpr std::uint32_t slot_of(Stream stream) {
    return static_cast<std::uint32_t>(stream);
  }
  /// Slot a host data program of `tenant` allocates from.
  [[nodiscard]] std::uint32_t data_slot(std::uint16_t tenant) const;
  /// Slot a GC relocation of `tenant`'s page programs into: the tenant's
  /// GC slot under per-tenant streams, the shared kGc slot otherwise.
  [[nodiscard]] std::uint32_t gc_slot(std::uint16_t tenant) const;

  /// Returns the PPN to program next for (plane, slot); opens a new active
  /// block from the free list when needed.
  Ppn take_frontier(std::uint64_t plane, std::uint32_t slot);

  /// Program with bounded retry-with-reallocation: a failed (torn) program
  /// abandons the active block, charges the wasted program time, and
  /// re-programs on a fresh block — spilling to another plane if this one
  /// runs dry. Shared by host/map programs and GC migrations. `tenant`
  /// (kNoTenant for engine-owned pages) feeds the OOB stamp and the
  /// per-tenant live-page accounting.
  [[nodiscard]] Programmed program_on(std::uint64_t plane, std::uint32_t slot,
                                      nand::PageOwner owner, OpKind kind,
                                      SimTime ready, const nand::OobExtra* oob,
                                      std::uint16_t tenant = kNoTenant);

  /// Shared body of the two constructors; `adopted` distinguishes a fresh
  /// array from a crash-survivor image.
  Engine(const SsdConfig& config, nand::FlashArray image, bool adopted);

  /// Spare-capacity bookkeeping after a block retirement in `plane`; drops
  /// the device to read-only mode when the plane's usable blocks fall below
  /// the degradation floor.
  void note_retirement(std::uint64_t plane);

  /// Closes the open parity stripe: programs its parity page (kParity
  /// stream) and seals the directory entry.
  void seal_stripe(SimTime ready);

  /// Stripe bookkeeping before a block's pages are destroyed (erase or
  /// retirement): breaks affected stripes and invalidates orphaned parity
  /// pages so GC reclaims them.
  void break_stripes_in(std::uint64_t flat_block);

  /// Relocates one live page during GC/scrub. Scheme-owned pages go through
  /// the scheme's relocator; engine-owned ones (map / checkpoint / parity)
  /// are read, re-programmed through gc_program, repointed in their owner's
  /// directory and invalidated.
  void relocate_page(Ppn live, std::uint64_t plane, SimTime& clock);

  /// Erases a drained block (GC victim or wear-leveling cold block) and
  /// returns it to the plane's free list, or retires it when the erase
  /// fails. Flushes staged GC chunks first when a power cut is armed and
  /// breaks the stripes over the block. Returns the erase completion.
  [[nodiscard]] SimTime recycle_block(std::uint64_t plane, std::uint32_t block,
                                      SimTime clock);

  /// Makes a background op (GC/checkpoint program, erase) occupying `span`
  /// on `addr`'s chip suspendable by foreground reads; no-op unless
  /// config.deadline.preempt.
  void arm_background(const nand::PhysAddr& addr,
                      ResourceTimeline::SuspendSlot::Kind kind,
                      ResourceTimeline::Span span);

  /// Picks the plane for the next allocation of `slot`: round-robin over
  /// planes with usable space. Pure striping balances *capacity* across
  /// planes — load-aware policies starve busy planes of writes and let
  /// per-plane occupancy skew until GC cannot reclaim them.
  std::uint64_t pick_plane(std::uint32_t slot);

  [[nodiscard]] bool plane_has_space(std::uint64_t plane,
                                     std::uint32_t slot) const;

  /// Runs GC on `plane` until its free-block count clears the threshold.
  [[nodiscard]] SimTime run_gc(std::uint64_t plane, SimTime ready);

  /// Static wear leveling (end-of-GC hook, in_gc_ still set): when the
  /// array-wide erase spread reaches config.capacity.wear_spread_threshold,
  /// recycle up to wear_migrate_per_pass of the plane's coldest blocks —
  /// migrate their long-lived data to the hot frontier and erase them, so
  /// they rejoin the rotation. Also refreshes the wear_spread gauge.
  [[nodiscard]] SimTime wear_level(std::uint64_t plane, SimTime clock);
  /// Least-erased recyclable block of `plane` (not active, not retired, not
  /// the in-flight GC victim, written at least once), or kNoBlock.
  [[nodiscard]] std::uint32_t pick_cold_block(std::uint64_t plane) const;
  [[nodiscard]] bool is_active_block(std::uint64_t plane,
                                     std::uint32_t block) const;

  /// Victim-index key: lexicographic (weight, not-full, block id) packed so
  /// the heap minimum reproduces the scan path's greedy choice bit-for-bit —
  /// least live weight first, fully-written blocks before partial ones at
  /// equal weight, lowest block id among remaining ties.
  [[nodiscard]] static constexpr std::uint64_t victim_key(std::uint64_t weight,
                                                          bool full,
                                                          std::uint32_t block) {
    return (weight << 33) | (std::uint64_t{full ? 0u : 1u} << 32) | block;
  }
  /// Re-indexes `block` in its plane's victim heap with its current key.
  /// No-op for blocks that cannot be victims right now (active, retired,
  /// never written) — each of those states re-pushes on exit.
  void push_victim_key(std::uint64_t plane, std::uint32_t block);

  // --- Tail-latency helpers (DESIGN.md §11) ---------------------------------

  /// Flat die index (chip-major) of a physical address.
  [[nodiscard]] std::uint64_t die_of(const nand::PhysAddr& a) const {
    return config_.geometry.chip_index(a) * config_.geometry.dies_per_chip +
           a.die;
  }
  /// Fail-slow latency multiplier for `a` at the array's current op-clock.
  /// Exactly 1.0 — and query-free, so the lazy episode schedules never
  /// materialize — with the model unconfigured.
  [[nodiscard]] double slow_of(const nand::PhysAddr& a);
  /// One page sensing: power-cut op accounting and read-disturb exposure
  /// (FlashArray::note_read), the op count, then sched_read. Every read
  /// except mount_read goes through here — first reads, transient retries,
  /// ECC ladder steps, parity-rebuild peers and scrub checks.
  [[nodiscard]] SimTime sense(Ppn ppn, OpKind kind, SimTime ready,
                              bool account = true);
  /// Deadline-aware read scheduling: applies the fail-slow multiplier, may
  /// suspend an armed background erase/program when queueing behind it would
  /// miss the deadline, records the op-kind service time, and (when
  /// `account`) books a deadline miss against the page's die. With no
  /// deadline set this degrades to a plain schedule_read.
  [[nodiscard]] SimTime sched_read(Ppn ppn, OpKind kind, SimTime ready,
                                   bool account = true);
  void note_deadline_miss(std::uint64_t die);
  /// Re-evaluates one die's quarantine verdict against its episode state:
  /// quarantines a sick die whose miss count reached the threshold, readmits
  /// a quarantined die whose episode ended.
  void update_quarantine(std::uint64_t die);
  /// Compacts a plane's victim heap back to one fresh entry per candidate
  /// block (stale snapshots accumulate between GC passes).
  void rebuild_victim_heap(std::uint64_t plane);

  SsdConfig config_;
  nand::FlashArray array_;
  ResourceTimeline timeline_;
  DeviceStats stats_;
  std::unique_ptr<MapDirectory> map_;
  std::vector<PlaneState> planes_;
  // Incremental victim accounting: per-page live weight (kFullPageWeight on
  // program unless the scheme pushes less) and its per-block sum.
  std::vector<std::uint16_t> page_weight_;
  std::vector<std::uint32_t> cached_weight_;
  mutable GcPerf gc_perf_;  // mutable: the const scan path counts its work
  std::uint64_t rr_plane_ = 0;
  Relocator relocator_;
  GcFlush gc_flush_;
  CkptMoved ckpt_moved_;
  VictimWeight victim_weight_;
  // Parity-stripe state (null when integrity.parity_enabled() is false, so
  // the default config allocates and touches nothing).
  std::unique_ptr<StripeTracker> stripes_;
  bool in_parity_ = false;  // a parity-page program is in flight
  std::uint64_t sealing_stripe_ = 0;  // stripe id that program stamps
  bool in_gc_ = false;
  // While the wear-leveling migration loop runs, gc_program overrides its
  // caller's plane with this target: schemes re-home relocated pages on the
  // victim's own plane, which would preserve the very per-plane population
  // skew the migration exists to drain.
  std::uint64_t wear_target_ = kNoPlane;
  bool read_only_ = false;
  std::uint64_t gc_runs_ = 0;
  std::optional<ReqClass> current_class_;
  // Multi-tenant QoS state (DESIGN.md §12). stream_slots_ is kStreamCount on
  // single-tenant builds; the per-page tenant map and per-tenant counters
  // stay empty unless config_.qos.enabled() — default runs allocate and
  // touch nothing.
  std::uint32_t stream_slots_ = static_cast<std::uint32_t>(kStreamCount);
  std::uint16_t current_tenant_ = 0;
  // Tenant whose page is being relocated right now (GC/scrub), so the
  // relocation program lands in that tenant's GC slot and is re-stamped
  // with the same tenant; kNoTenant outside relocation.
  std::uint16_t gc_relocating_tenant_ = kNoTenant;
  std::vector<std::uint16_t> page_tenant_;
  std::vector<std::uint64_t> tenant_live_pages_;
  std::vector<std::uint64_t> tenant_gc_debt_;
  // Tail-latency state (DESIGN.md §11): the per-request deadline and the
  // per-die quarantine book. The deadline is only ever set by the facade
  // when config_.deadline.enabled(); the quarantine vectors stay empty unless
  // quarantine_misses is configured — default runs allocate and touch nothing.
  std::optional<SimTime> deadline_;
  std::vector<std::uint32_t> die_misses_;
  std::vector<std::uint8_t> die_quarantined_;
  std::uint64_t quarantined_count_ = 0;
};

}  // namespace af::ssd
