// Device-level measurement state. Every number reported in the paper's
// figures (flash op counts split map/data, per-class latencies, erase counts,
// DRAM accesses, across-page event classification) is accumulated here.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace af::ssd {

/// Why a flash operation was issued; drives the Map/Data split of Figure 10
/// and the GC accounting.
enum class OpKind : std::uint8_t {
  kDataRead = 0,
  kDataWrite,
  kMapRead,
  kMapWrite,
  kGcRead,
  kGcWrite,
  kCkptWrite,   // checkpoint-journal page programs (crash consistency)
  kMountRead,   // spare-area scan reads during mount-time recovery
  kScrubRead,   // background scrub health-check sensings
  kRebuildRead, // stripe peer + parity reads during a parity rebuild
  kParityWrite, // parity-page programs closing a stripe
  kKindCount
};

/// Request classification (Figure 4 splits all metrics along this axis).
enum class ReqClass : std::uint8_t {
  kNormalRead = 0,
  kNormalWrite,
  kAcrossRead,
  kAcrossWrite,
  kClassCount
};

[[nodiscard]] constexpr bool is_write(ReqClass c) {
  return c == ReqClass::kNormalWrite || c == ReqClass::kAcrossWrite;
}
[[nodiscard]] constexpr bool is_across(ReqClass c) {
  return c == ReqClass::kAcrossRead || c == ReqClass::kAcrossWrite;
}

const char* to_string(OpKind kind);
const char* to_string(ReqClass c);

/// Counters specific to the Across-FTL mechanism (Figure 8 and §4.2.1).
struct AcrossStats {
  std::uint64_t direct_writes = 0;        // fresh across-area creations
  std::uint64_t profitable_amerge = 0;    // AMerge triggered by across request
  std::uint64_t unprofitable_amerge = 0;  // AMerge triggered by other updates
  std::uint64_t rollbacks = 0;            // ARollback events
  std::uint64_t area_shrinks = 0;         // metadata-only partial invalidation
  std::uint64_t direct_reads = 0;         // reads fully inside an area
  std::uint64_t merged_reads = 0;         // reads spilling out of an area
  std::uint64_t merged_read_flash_reads = 0;
  std::uint64_t areas_created = 0;
  std::uint64_t peak_live_areas = 0;
  /// Across-page writes serviced through the normal path because the device
  /// was too full to afford another remapped area (space-pressure valve).
  std::uint64_t bypassed_writes = 0;
  /// Areas rolled back by the valve to drain space pressure.
  std::uint64_t pressure_evictions = 0;

  [[nodiscard]] std::uint64_t total_across_writes() const {
    return direct_writes + profitable_amerge + unprofitable_amerge;
  }
};

/// Recovery-path accounting for injected NAND faults (fault model &
/// recovery, DESIGN.md). Benches report these to price fault overhead;
/// zero-fault runs keep every counter at zero.
struct FaultRecoveryStats {
  std::uint64_t program_faults = 0;   // torn pages (program failed mid-write)
  std::uint64_t program_retries = 0;  // re-programs on a fresh block
  std::uint64_t erase_faults = 0;     // failed erases (each retires a block)
  std::uint64_t read_retries = 0;     // extra read ops for transient failures
  std::uint64_t retired_blocks = 0;   // grown bad blocks pulled from service
  std::uint64_t read_only_entries = 0;  // drops into read-only degradation
  std::uint64_t rejected_writes = 0;  // writes refused while read-only

  // --- Data-integrity subsystem (DESIGN.md §8) -----------------------------
  // All zero unless the BER model / scrub / parity are configured on.
  std::uint64_t read_disturb_reads = 0;  // sensings aging their block's cells
  std::uint64_t raw_bit_errors = 0;      // total raw bit errors drawn
  std::uint64_t ecc_retry_steps = 0;     // extra ladder sensings issued
  std::uint64_t ecc_retry_recoveries = 0;  // reads the ladder rescued
  std::uint64_t uncorrectable_reads = 0;   // ladder exhausted
  std::uint64_t parity_writes = 0;       // parity programs closing stripes
  std::uint64_t parity_rebuilds = 0;     // uncorrectables rebuilt from peers
  std::uint64_t parity_rebuild_reads = 0;  // peer+parity reads those cost
  std::uint64_t stripes_broken = 0;      // stripes whose protection lapsed
  std::uint64_t scrub_ticks = 0;         // scrub scheduler invocations
  std::uint64_t scrub_scans = 0;         // pages health-checked by scrub
  std::uint64_t scrub_relocations = 0;   // pages refreshed past the watermark
  std::uint64_t lost_pages = 0;          // uncorrectable with no intact stripe

  // --- Capacity pressure (DESIGN.md §9) ------------------------------------
  // All zero unless the host issues trims or config.capacity arms the wear
  // leveler.
  std::uint64_t trims = 0;                 // TRIM commands serviced
  std::uint64_t trimmed_pages = 0;         // logical pages unmapped by them
  std::uint64_t no_space_rejections = 0;   // writes refused with kNoSpace
  // Always 0: the GC-debt write throttle was removed (DESIGN.md §9.2). Kept
  // so existing readers still compile.
  std::uint64_t throttle_stalls = 0;
  std::uint64_t throttle_stall_ns = 0;
  std::uint64_t wear_level_migrations = 0; // cold blocks recycled by leveling
  std::uint64_t wear_spread = 0;           // gauge: max-min erase count seen

  [[nodiscard]] std::uint64_t total_faults() const {
    return program_faults + erase_faults + read_retries;
  }
};

/// Tail-latency subsystem accounting (DESIGN.md §11). All zero unless
/// config.deadline arms the deadline / preemption / quarantine, so a
/// default-config run carries no trace of the subsystem.
struct TailStats {
  std::uint64_t erase_suspends = 0;    // background erases preempted
  std::uint64_t program_suspends = 0;  // background programs preempted
  std::uint64_t resume_overhead_ns = 0;  // total re-ramp cost charged
  std::uint64_t suspend_ceiling_hits = 0;  // preemptions refused (starvation guard)
  std::uint64_t suspend_nesting_hits = 0;  // preemptions refused (stack cap)
  // Always 0: hedged reads were removed (DESIGN.md §11.4). Kept so existing
  // readers still compile.
  std::uint64_t hedged_reads = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t deadline_misses = 0;   // flash reads finishing past the deadline
  std::uint64_t deadline_retries = 0;  // retry-ladder re-issues
  std::uint64_t deadline_exceeded = 0; // requests escalated to kDeadlineExceeded
  std::uint64_t quarantines = 0;       // dies steered away from
  std::uint64_t unquarantines = 0;     // dies readmitted after episodes end
};

/// Per-tenant accounting for the multi-tenant QoS subsystem (DESIGN.md §12).
/// Only allocated when config.qos names more than one tenant, so the
/// single-tenant default carries no trace of it.
struct TenantStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t read_sectors = 0;
  std::uint64_t write_sectors = 0;
  /// Data-page programs issued on the tenant's behalf (host writes).
  std::uint64_t host_pages = 0;
  /// The tenant's pages relocated by GC — its share of write amplification,
  /// charged to the page's owner, not to whoever triggered the collection.
  std::uint64_t gc_pages = 0;
  std::uint64_t throttle_stalls = 0;    // token-bucket admission stalls
  std::uint64_t throttle_stall_ns = 0;  // total simulated stall injected
  std::uint64_t rejected_writes = 0;    // capacity-share kNoSpace rejections
  LatencyRecorder read_latency;
  LatencyRecorder write_latency;

  /// Per-tenant write amplification: (host + GC programs) / host programs.
  [[nodiscard]] double waf() const {
    return host_pages != 0 ? static_cast<double>(host_pages + gc_pages) /
                                 static_cast<double>(host_pages)
                           : 0.0;
  }
};

class DeviceStats {
 public:
  // --- Flash operations ----------------------------------------------------
  void count_flash_op(OpKind kind) { ++flash_ops_[idx(kind)]; }
  [[nodiscard]] std::uint64_t flash_ops(OpKind kind) const {
    return flash_ops_[idx(kind)];
  }
  [[nodiscard]] std::uint64_t flash_reads() const {
    return flash_ops(OpKind::kDataRead) + flash_ops(OpKind::kMapRead) +
           flash_ops(OpKind::kGcRead) + flash_ops(OpKind::kMountRead) +
           flash_ops(OpKind::kScrubRead) + flash_ops(OpKind::kRebuildRead);
  }
  [[nodiscard]] std::uint64_t flash_writes() const {
    return flash_ops(OpKind::kDataWrite) + flash_ops(OpKind::kMapWrite) +
           flash_ops(OpKind::kGcWrite) + flash_ops(OpKind::kCkptWrite) +
           flash_ops(OpKind::kParityWrite);
  }

  void count_erase() { ++erases_; }
  [[nodiscard]] std::uint64_t erases() const { return erases_; }

  void count_dram_access(std::uint64_t n = 1) { dram_accesses_ += n; }
  [[nodiscard]] std::uint64_t dram_accesses() const { return dram_accesses_; }

  /// Reads issued only to preserve unmodified sectors during an update
  /// (read-modify-write); §4.2.2 reports Across-FTL removing 62.2% of these.
  void count_rmw_read() { ++rmw_reads_; }
  [[nodiscard]] std::uint64_t rmw_reads() const { return rmw_reads_; }

  // --- Per-request-class accounting (Figure 4) ------------------------------
  void record_request(ReqClass c, SimDuration latency_ns, SectorCount sectors) {
    recorders_[cidx(c)].record(latency_ns, sectors);
  }
  [[nodiscard]] const LatencyRecorder& requests(ReqClass c) const {
    return recorders_[cidx(c)];
  }
  /// Page programs attributed to the request class being serviced.
  void count_class_flush(ReqClass c) { ++class_flushes_[cidx(c)]; }
  [[nodiscard]] std::uint64_t class_flushes(ReqClass c) const {
    return class_flushes_[cidx(c)];
  }

  // --- Mapping footprint (Figure 12a) ----------------------------------------
  void note_map_bytes(std::uint64_t bytes) {
    if (bytes > peak_map_bytes_) peak_map_bytes_ = bytes;
  }
  [[nodiscard]] std::uint64_t peak_map_bytes() const { return peak_map_bytes_; }

  AcrossStats& across() { return across_; }
  [[nodiscard]] const AcrossStats& across() const { return across_; }

  FaultRecoveryStats& faults() { return faults_; }
  [[nodiscard]] const FaultRecoveryStats& faults() const { return faults_; }

  TailStats& tail() { return tail_; }
  [[nodiscard]] const TailStats& tail() const { return tail_; }

  // --- Multi-tenant QoS (DESIGN.md §12) -------------------------------------
  /// Sizes the per-tenant table; reset() preserves the sizing so aging
  /// warm-up can be discarded without losing the tenant layout.
  void init_tenants(std::size_t n) { tenants_.assign(n, TenantStats{}); }
  TenantStats& tenant(std::size_t i) { return tenants_[i]; }
  [[nodiscard]] const std::vector<TenantStats>& tenants() const {
    return tenants_;
  }

  /// Per-op-kind simulated service-time histogram (ready → done of the
  /// scheduled flash op). Feeds perf_replay's op-kind latency section; never
  /// printed by the legacy tables, so recording is output-neutral for them.
  void note_op_latency(OpKind kind, SimDuration ns) {
    op_latency_[idx(kind)].add(ns);
  }
  [[nodiscard]] const LogHistogram& op_latency(OpKind kind) const {
    return op_latency_[idx(kind)];
  }

  /// Aggregate latency across all request classes.
  [[nodiscard]] LatencyRecorder all_reads() const;
  [[nodiscard]] LatencyRecorder all_writes() const;
  [[nodiscard]] double total_io_time_ns() const;

  /// Zeroes the measurement state (called after device aging so warm-up ops
  /// do not pollute reported numbers).
  void reset();

 private:
  static constexpr std::size_t idx(OpKind kind) {
    return static_cast<std::size_t>(kind);
  }
  static constexpr std::size_t cidx(ReqClass c) {
    return static_cast<std::size_t>(c);
  }

  std::array<std::uint64_t, static_cast<std::size_t>(OpKind::kKindCount)>
      flash_ops_{};
  std::array<LatencyRecorder, static_cast<std::size_t>(ReqClass::kClassCount)>
      recorders_{};
  std::array<std::uint64_t, static_cast<std::size_t>(ReqClass::kClassCount)>
      class_flushes_{};
  std::uint64_t erases_ = 0;
  std::uint64_t dram_accesses_ = 0;
  std::uint64_t rmw_reads_ = 0;
  std::uint64_t peak_map_bytes_ = 0;
  AcrossStats across_;
  FaultRecoveryStats faults_;
  TailStats tail_;
  std::array<LogHistogram, static_cast<std::size_t>(OpKind::kKindCount)>
      op_latency_{};
  std::vector<TenantStats> tenants_;
};

}  // namespace af::ssd
