// Device configuration. The `paper()` preset mirrors Table 1 of the paper
// (TLC timings, 64 pages/block, 8 KiB pages, 10% GC threshold) with a
// scalable block count so benches can trade fidelity for runtime.
#pragma once

#include <cstdint>

#include "nand/faults.h"
#include "nand/geometry.h"
#include "nand/timing.h"

namespace af::ssd {

struct SsdConfig {
  nand::Geometry geometry;
  nand::Timing timing;

  /// GC triggers in a plane when its free-block fraction drops below this.
  double gc_threshold = 0.10;
  /// Hard reserve: blocks per plane GC itself may consume; allocations during
  /// GC never trigger nested GC thanks to this margin.
  std::uint32_t gc_reserve_blocks = 2;

  /// Partial (resumable) GC: at most this many page migrations per GC
  /// invocation; a half-collected victim is resumed by later invocations
  /// (cf. Sha et al., TACO'21 — the paper's reference on GC-induced long
  /// tails). Bounds the chip-time burst a single pass injects.
  std::uint32_t gc_pages_per_pass = 8;

  /// Fraction of raw capacity exported as logical space (the rest is
  /// over-provisioning for GC headroom and Across-FTL's area pool).
  double exported_fraction = 0.85;

  /// DRAM budget for cached translation pages (the CMT). Schemes with larger
  /// mapping tables (MRSM) thrash this; the baseline mostly fits (§4.2.4).
  std::uint64_t map_cache_bytes = 0;  // 0 = sized at paper() time

  /// Store per-sector version stamps for the verification oracle.
  bool track_payload = false;

  /// NAND fault injection (seeded, deterministic). All-zero rates (the
  /// default) disable injection entirely: no RNG draws, no behaviour change.
  /// See DESIGN.md "Fault model & recovery" for the retry / retirement /
  /// read-only semantics layered on top.
  nand::FaultConfig faults;

  /// Read-only degradation floor: the device drops to read-only mode when
  /// retirement leaves any plane with fewer usable blocks than the GC
  /// trigger + reserve + this margin (writes would otherwise wedge GC).
  std::uint32_t degrade_margin_blocks = 2;

  /// Crash-consistency checkpoint journal (DESIGN.md §7). Off by default:
  /// `interval_requests == 0` writes no journal and tracks no dirty state,
  /// keeping the no-crash path bit-identical to the PR 2 baseline; recovery
  /// then falls back to a full OOB scan.
  struct CheckpointPolicy {
    /// Write a journal entry every this many accepted write requests (0 =
    /// journaling off).
    std::uint64_t interval_requests = 0;
    /// Every Nth journal entry is a full mapping snapshot; the entries in
    /// between are deltas (dirty entries only).
    std::uint32_t snapshot_every = 8;

    [[nodiscard]] bool enabled() const { return interval_requests > 0; }
  };
  CheckpointPolicy checkpoint;

  /// Data-integrity subsystem (DESIGN.md §8): ECC read-retry ladder over the
  /// NAND bit-error model, background scrubbing, and die-level parity
  /// stripes. Scrub and parity default off and the BER model (faults.ber_*)
  /// defaults to zero, so a default-config run is bit-identical to a build
  /// without the subsystem.
  struct IntegrityConfig {
    /// Raw bit errors the ECC engine corrects in a single sensing.
    std::uint32_t ecc_correctable_bits = 8;
    /// Read-retry ladder depth past the initial sensing. Each step re-senses
    /// with tuned reference voltages — one extra flash read of latency —
    /// and sees the page's bit errors scaled by `read_retry_ber_scale`.
    /// An uncorrectable read is one that exhausts the ladder.
    std::uint32_t read_retry_steps = 4;
    double read_retry_ber_scale = 0.5;

    /// Background scrub: every `scrub_interval_requests` accepted host
    /// requests the scrubber examines up to `scrub_pages_per_tick` valid
    /// pages (cursor sweep over the array) and refreshes — relocates through
    /// the normal GC machinery — any whose expected bit errors have reached
    /// `scrub_ber_watermark`. 0 = scrubbing off.
    std::uint64_t scrub_interval_requests = 0;
    std::uint32_t scrub_pages_per_tick = 8;
    double scrub_ber_watermark = 4.0;

    /// RAID-5-style stripes: every `parity_stripe_width - 1` page programs
    /// close with one parity-page program, and an uncorrectable member is
    /// rebuilt from its surviving peers + parity. 0 or 1 = parity off.
    std::uint32_t parity_stripe_width = 0;

    [[nodiscard]] bool scrub_enabled() const {
      return scrub_interval_requests > 0;
    }
    [[nodiscard]] bool parity_enabled() const {
      return parity_stripe_width >= 2;
    }
  };
  IntegrityConfig integrity;

  /// Capacity-pressure subsystem (DESIGN.md §9). Zero-default: wear
  /// leveling is off, and while the TRIM path and the kNoSpace admission
  /// check are always armed, they only act when the host actually sends
  /// trims or fills the device past what GC can sustain — situations the
  /// default benches never create, so a default-config run is bit-identical
  /// to a build without the subsystem.
  struct CapacityPolicy {
    /// Ignored: the GC-debt write throttle they paced was removed (DESIGN.md
    /// §9.2). Kept so existing callers that set them still compile.
    std::uint32_t throttle_window_blocks = 0;
    std::uint64_t throttle_ns_per_block = 0;

    /// Static+dynamic wear leveling: once the array-wide (max − min) erase
    /// spread reaches this, each GC pass additionally migrates the plane's
    /// coldest (least-erased, fully written) block so its erase count
    /// catches up. 0 = leveling off.
    std::uint32_t wear_spread_threshold = 0;
    /// Cold-block migrations allowed per GC pass while the spread is high.
    std::uint32_t wear_migrate_per_pass = 1;

    /// Admission headroom: writes are refused with kNoSpace once projected
    /// live pages would leave some plane fewer usable blocks than
    /// gc_reserve_blocks + this margin (frontier + GC need room to turn).
    std::uint32_t no_space_margin_blocks = 2;

    [[nodiscard]] bool wear_enabled() const {
      return wear_spread_threshold > 0;
    }
  };
  CapacityPolicy capacity;

  /// Queue-depth request scheduler (DESIGN.md §10). Zero-default:
  /// `queue_depth <= 1` chains every request behind the previous completion,
  /// so a default-config run is bit-identical to the serial engine. At
  /// `queue_depth > 1` the scheduler keeps up to queue_depth requests in
  /// flight in simulated time, so their issue times overlap across
  /// channels/chips; `enabled()` also switches the engine to chip-rotating
  /// placement.
  struct PipelineConfig {
    /// Requests in flight at once (closed-loop driver). 0 or 1 = serial.
    std::uint32_t queue_depth = 0;
    /// Ignored: the scheduler is single-threaded. Kept so existing callers
    /// that set it still compile.
    std::uint32_t workers = 0;
    /// Open-loop arrivals: issue each request at its trace timestamp (still
    /// honoring dependency ordering) instead of the closed-loop QD window,
    /// so queueing delay is measured rather than suppressed. Simulated
    /// results become independent of queue_depth.
    bool open_loop = false;

    [[nodiscard]] bool enabled() const { return queue_depth > 1 || open_loop; }
  };
  PipelineConfig pipeline;

  /// Tail-latency / deadline subsystem (DESIGN.md §11). Zero-default: with
  /// both deadlines at 0 no deadline is set, no background op is ever
  /// suspended and no die is quarantined, so a default-config run is
  /// bit-identical to a build without the subsystem.
  /// All times are simulated; the subsystem keys off request arrival
  /// timestamps and the engine op-clock, never a wall clock.
  struct DeadlineConfig {
    /// Simulated completion budget for a read/write request, measured from
    /// its arrival timestamp. 0 = no deadline for that direction.
    std::uint64_t read_deadline_us = 0;
    std::uint64_t write_deadline_us = 0;
    /// Ignored: hedged parity-reconstruct reads were removed (DESIGN.md
    /// §11.4). Kept so existing callers that set it still compile.
    std::uint64_t hedge_after_us = 0;
    /// Retry-with-backoff ladder for reads that still miss their deadline:
    /// up to this many re-issues before the completion surfaces
    /// Status::kDeadlineExceeded.
    std::uint32_t max_retries = 2;
    /// Backoff before retry k is 2^k × this (simulated).
    std::uint64_t retry_backoff_us = 50;
    /// Allow foreground reads to suspend in-flight background erase/program
    /// ops (GC, wear leveling, scrub relocation, checkpoint journal) when
    /// the read would otherwise miss its deadline.
    bool preempt = false;
    /// Starvation guard: after this many suspensions one victim op runs to
    /// completion (further preemptions refused).
    std::uint32_t suspend_ceiling = 8;
    /// Max preempting reads stacked on one suspended op at a time.
    std::uint32_t suspend_nesting_cap = 4;
    /// Quarantine a die after this many deadline-missing flash reads while
    /// the die is inside a fail-slow episode; allocation steers away until
    /// the episode ends. 0 = quarantine off.
    std::uint32_t quarantine_misses = 0;

    [[nodiscard]] bool enabled() const {
      return read_deadline_us > 0 || write_deadline_us > 0;
    }
  };
  DeadlineConfig deadline;

  /// Multi-tenant QoS isolation (DESIGN.md §12). Zero-default: with
  /// `tenants <= 1` no stream table is grown, no token bucket is consulted
  /// and no per-tenant stats are allocated, so a default-config run is
  /// bit-identical to a build without the subsystem.
  /// All pacing is simulated time keyed off request arrival timestamps.
  struct QosPolicy {
    /// Number of tenants sharing the device. 0 or 1 = subsystem off.
    std::uint32_t tenants = 0;
    /// Give each tenant its own pair of write streams (frontier blocks per
    /// plane): host writes fill the tenant's data slot, GC relocations of
    /// its pages the tenant's GC slot. Tenants never co-mingle pages in a
    /// block, and GC relocates — and charges — each tenant's garbage
    /// separately.
    bool per_tenant_streams = true;
    /// Token-bucket admission, per tenant: sustained rate and burst depth in
    /// sectors. A request finding the bucket dry is stalled (simulated) until
    /// its tokens accrue; the stall rides the recorded latency. 0 rate =
    /// bucket off (that tenant is unpaced).
    std::uint64_t rate_sectors_per_s = 0;
    std::uint64_t burst_sectors = 0;
    /// GC-debt surcharge: each page GC relocates on behalf of a tenant adds
    /// this many sectors of extra token cost to that tenant's next writes
    /// (the noisy neighbor pays for its own garbage). 0 = no surcharge.
    std::uint32_t gc_debt_sectors_per_page = 0;
    /// Per-tenant capacity share as a fraction of logical pages ×1000 (e.g.
    /// 600 = 60%). A tenant whose live footprint would exceed its share gets
    /// kNoSpace while the others keep writing. 0 = no per-tenant quota.
    std::uint32_t capacity_share_millis = 0;

    [[nodiscard]] bool enabled() const { return tenants > 1; }
    [[nodiscard]] bool streams_enabled() const {
      return enabled() && per_tenant_streams;
    }
    [[nodiscard]] bool bucket_enabled() const {
      return enabled() && rate_sectors_per_s > 0;
    }
  };
  QosPolicy qos;

  /// Across-FTL design-choice toggles (ablation knobs; DESIGN.md §ablations).
  struct AcrossPolicy {
    /// Remap across-page writes at all; false degrades to baseline servicing
    /// (the scheme still pays its two-level-table footprint).
    bool enable_remap = true;
    /// Merge overlapping updates into the area when the union fits one page;
    /// false rolls the area back on every overlapping update.
    bool enable_amerge = true;
    /// Metadata-only area shrink when an overwrite covers one page's share;
    /// false rolls back instead.
    bool enable_shrink = true;
    /// Score GC victims by each area page's live sector range instead of
    /// treating every area page as fully live. Sharpens victim choice under
    /// heavy shrinking, but changes which blocks GC picks — off by default
    /// to keep results comparable with the paper-baseline runs.
    bool area_live_weight = false;
  };
  AcrossPolicy across;

  [[nodiscard]] std::uint64_t logical_pages() const {
    return static_cast<std::uint64_t>(
        static_cast<double>(geometry.total_pages()) * exported_fraction);
  }
  [[nodiscard]] std::uint64_t logical_sectors() const {
    return logical_pages() * geometry.sectors_per_page();
  }

  /// Table-1-shaped TLC device. `blocks_per_plane` scales total capacity
  /// (the paper's 262144 total blocks ≈ 128 GiB; benches default far smaller
  /// so GC is exercised within seconds). `page_kb` ∈ {4, 8, 16} selects the
  /// Figure 13/14 page-size variants.
  static SsdConfig paper(std::uint32_t page_kb = 8,
                         std::uint32_t blocks_per_plane = 128);

  /// Miniature device for unit tests: few planes, tiny blocks, payload
  /// tracking on.
  static SsdConfig tiny();
};

}  // namespace af::ssd
