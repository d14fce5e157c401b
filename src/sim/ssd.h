// Ssd — the public device facade a downstream user interacts with.
//
// Owns the engine, the chosen FTL scheme and (when payload tracking is on)
// the verification oracle. Provides request submission with per-class
// latency accounting, device aging (the paper warms the SSD to 90% used
// capacity before measuring), and measurement snapshots.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ftl/request.h"
#include "ftl/scheme.h"
#include "ssd/checkpoint.h"
#include "ssd/config.h"
#include "ssd/engine.h"
#include "ssd/integrity.h"
#include "ssd/oracle.h"
#include "ssd/recovery.h"

namespace af::sim {

class Ssd {
 public:
  Ssd(const ssd::SsdConfig& config, ftl::SchemeKind kind);
  ~Ssd();

  Ssd(const Ssd&) = delete;
  Ssd& operator=(const Ssd&) = delete;

  /// Mount path: adopts a flash image that survived a power cut, rebuilds
  /// the mapping stack through ssd::Recovery (checkpoint chain + OOB scan)
  /// and re-attaches the checkpoint journal when `config` enables it.
  /// `oracle_seed` (required when track_payload is on) is copied so new
  /// writes continue the pre-crash stamp sequence; pass the crashed device's
  /// oracle. `report`, when non-null, receives the mount statistics.
  [[nodiscard]] static std::unique_ptr<Ssd> mount(
      const ssd::SsdConfig& config, ftl::SchemeKind kind,
      nand::FlashArray image, const ssd::Oracle* oracle_seed = nullptr,
      ssd::RecoveryReport* report = nullptr);

  /// A device remounted from a crashed one (see remount()).
  struct Remount {
    std::unique_ptr<Ssd> device;
    ssd::RecoveryReport report;
    /// Logical sectors the oracle sweep read back: all of them.
    std::uint64_t verified_sectors = 0;
    /// Of those, the sectors that still held the version from before the
    /// write in service when power died.
    std::uint64_t tolerated_sectors = 0;
  };

  /// The crash harness (DESIGN.md §7.5). Takes the flash image of a device
  /// whose armed power cut fired (`crashed` must not be used afterwards),
  /// mounts it with `crashed`'s oracle as seed and runs the oracle sweep:
  /// every logical sector is read back and must hold its acknowledged stamp.
  /// Only the sectors of the write in service at the cut may instead hold
  /// the stamp they had before it; there the mounted oracle adopts the old
  /// stamp, since the host never saw that write complete. Any other
  /// divergence aborts. Requires config.track_payload.
  [[nodiscard]] static Remount remount(Ssd& crashed);

  struct Completion {
    SimTime done = 0;
    SimDuration latency = 0;
    ssd::ReqClass cls = ssd::ReqClass::kNormalRead;
    /// False when the device refused the request (write in read-only
    /// degradation after spare-block exhaustion, or kNoSpace admission:
    /// accepting it would leave GC no blocks to turn over). Refused writes
    /// change no state and cost no simulated time; `status` says why.
    bool accepted = true;
    ssd::Status status = ssd::Status::kOk;
    /// True when servicing this request hit an uncorrectable page that no
    /// parity stripe could rebuild (DESIGN.md §8) — the returned payload
    /// includes unrecoverable data. The device also drops to read-only.
    bool data_lost = false;
  };

  /// Services one host request. When the oracle is active, writes update the
  /// shadow space and reads are verified sector-by-sector (aborting on any
  /// divergence). Writes are rejected (accepted=false) once block
  /// retirement has degraded the device to read-only mode, or with
  /// Status::kNoSpace when the device is too full to keep GC viable (trim
  /// or wait for reclamation, then retry). Trim requests (req.trim) unmap
  /// the fully covered pages and are durable the instant they are accepted.
  [[nodiscard]] Completion submit(const ftl::IoRequest& req);

  /// Ages the device: fills `live_fraction` of raw capacity with valid data
  /// and keeps overwriting it until `used_fraction` of all physical pages
  /// have been consumed (GC active throughout), mirroring §4.1. Call
  /// reset_measurement() afterwards.
  void age(double used_fraction, double live_fraction, std::uint64_t seed);

  /// Clears statistics, the verified-sector count and the timing backlog
  /// accumulated so far (used after aging so measured runs start from a
  /// clean clock).
  void reset_measurement();

  /// Admits every write still held back by a dry token bucket (end of
  /// trace: no later submission will advance simulated time past their
  /// admit points). No-op unless QoS throttling deferred something.
  void drain_admission();

  [[nodiscard]] const ssd::DeviceStats& stats() const {
    return engine_->stats();
  }
  [[nodiscard]] ssd::Engine& engine() { return *engine_; }
  [[nodiscard]] const ssd::Engine& engine() const { return *engine_; }
  [[nodiscard]] ftl::FtlScheme& scheme() { return *scheme_; }
  [[nodiscard]] const ftl::FtlScheme& scheme() const { return *scheme_; }
  [[nodiscard]] const ssd::Oracle* oracle() const { return oracle_.get(); }
  [[nodiscard]] const ssd::Checkpointer* checkpointer() const {
    return checkpointer_.get();
  }
  [[nodiscard]] const ssd::ScrubScheduler* scrubber() const {
    return scrubber_.get();
  }
  [[nodiscard]] const ssd::SsdConfig& config() const {
    return engine_->config();
  }
  [[nodiscard]] std::uint64_t verified_sectors() const {
    return verified_sectors_;
  }

  /// Surrenders the flash image after a power cut (the engine and scheme
  /// must not be used afterwards); hand the result to mount().
  [[nodiscard]] nand::FlashArray release_flash();

  /// Captures the scheme's current mapping footprint into the stats (peak).
  void snapshot_map_footprint();

 private:
  class OracleStamps;  // adapts Oracle to ftl::StampProvider

  /// Token-bucket state for one tenant (DESIGN.md §12). Refilled lazily at
  /// request arrival in simulated time; a dry bucket converts the deficit
  /// into a deterministic admission stall. Allocated only when config.qos
  /// arms a rate.
  struct TenantBucket {
    double tokens = 0;
    SimTime last = 0;
  };

  /// A write held back by a dry token bucket: it enters the device at
  /// `admit_at`, not at submission. Keeping stalled writes out of the
  /// resource timeline until simulated time catches up preserves the
  /// timeline's in-order booking invariant — booking a far-future program
  /// eagerly would serialize every later-submitted request behind it.
  struct Deferred {
    ftl::IoRequest req;  ///< original arrival kept for latency accounting
    SimTime admit_at = 0;
    std::uint64_t seq = 0;  ///< FIFO tie-break for equal admit times
  };

  /// Everything past admission shaping: capacity checks, execution, stats.
  /// `anchor` is the host's original arrival — latency is measured from it,
  /// so an admission stall shows up in the tenant's recorded tail.
  [[nodiscard]] Completion service(const ftl::IoRequest& req, SimTime anchor);

  /// Runs every deferred write whose admit time has been reached. Called
  /// before each submission so bookings stay in nondecreasing
  /// simulated-time order.
  void flush_deferred(SimTime now);

  /// Min-heap order for `deferred_`: earliest admit time first, submission
  /// order breaking ties.
  [[nodiscard]] static bool admits_later(const Deferred& a, const Deferred& b);

  /// Shared tail of both construction paths: scheme, oracle, checkpointer.
  Ssd(std::unique_ptr<ssd::Engine> engine, ftl::SchemeKind kind,
      const ssd::Oracle* oracle_seed);
  void attach_checkpointer();
  void attach_scrubber();

  std::unique_ptr<ssd::Engine> engine_;
  ftl::SchemeKind kind_;
  std::unique_ptr<ftl::FtlScheme> scheme_;
  std::unique_ptr<ssd::Oracle> oracle_;
  std::unique_ptr<OracleStamps> stamp_provider_;
  std::unique_ptr<ssd::Checkpointer> checkpointer_;
  std::unique_ptr<ssd::ScrubScheduler> scrubber_;
  std::uint64_t verified_sectors_ = 0;
  /// The in-flight window, kept only while a power cut is armed: the range
  /// of the write in service and the stamps its sectors held before it.
  /// Empty between requests.
  SectorRange inflight_{};
  std::vector<std::uint64_t> inflight_pre_stamps_;
  std::vector<TenantBucket> buckets_;
  std::vector<Deferred> deferred_;  ///< min-heap on (admit_at, seq)
  std::uint64_t deferred_seq_ = 0;
  /// True while age() runs: aging traffic is device prehistory, not any
  /// tenant's I/O — it bypasses buckets, quotas and per-tenant accounting
  /// and lands untenanted (kNoTenant) so no tenant inherits the aged
  /// footprint against its capacity share.
  bool aging_ = false;
};

}  // namespace af::sim
