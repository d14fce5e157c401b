// Trace replayer: drives one Ssd instance through a trace (after optional
// device aging) and snapshots every measurement the paper's figures need.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "ftl/scheme.h"
#include "nand/flash_array.h"
#include "ssd/config.h"
#include "ssd/engine.h"
#include "ssd/recovery.h"
#include "ssd/stats.h"
#include "trace/event.h"

namespace af::trace {

struct ReplayOptions {
  bool age = true;
  double age_used = 0.90;  // §4.1: 90% of capacity consumed before measuring
  double age_live = 0.398;  // §4.1: valid data occupies 39.8% after warm-up
  std::uint64_t age_seed = 42;
  /// Crash-harness hook: invoked right after a power-cut mount completes,
  /// before the post-recovery verification sweep.
  std::function<void(const ssd::RecoveryReport&)> on_recovery;
};

struct ReplayResult {
  std::string scheme;
  ssd::DeviceStats stats;           // snapshot after the run
  std::uint64_t gc_runs = 0;
  std::uint64_t map_bytes = 0;      // scheme mapping footprint
  std::uint64_t map_cache_hits = 0;
  std::uint64_t map_cache_misses = 0;
  std::uint64_t lost_requests = 0;  // completions flagged data_lost (§8)
  double used_fraction = 0;
  double io_time_s = 0;             // sum of request latencies
  nand::FlashArray::WearSummary wear;  // block erase distribution
  ssd::Engine::GcPerf gc_perf;      // victim-selection work (perf harness)

  [[nodiscard]] double read_latency_ms() const {
    return stats.all_reads().latency().mean() / 1e6;
  }
  [[nodiscard]] double write_latency_ms() const {
    return stats.all_writes().latency().mean() / 1e6;
  }
};

/// Replays `trace` on a fresh device with the given scheme.
[[nodiscard]] ReplayResult replay(const ssd::SsdConfig& config,
                                  ftl::SchemeKind kind, const Trace& trace,
                                  const ReplayOptions& options = {});

/// replay() through the queue-depth scheduler (DESIGN.md §10).
struct PipelineReplayResult {
  ReplayResult result;             // same snapshot as a serial replay
  std::uint32_t queue_depth = 1;
  std::uint64_t verified_sectors = 0;
  /// Latest simulated completion of the measured phase; with the closed-loop
  /// driver this is the device-limited makespan, so requests/sim-second =
  /// requests / (makespan_ns / 1e9) — the fio-style QD-sweep throughput.
  std::uint64_t makespan_ns = 0;
  std::uint64_t requests = 0;
  /// True when config.pipeline.open_loop drove arrivals from the trace
  /// timestamps instead of the closed-loop window.
  bool open_loop = false;
  /// Per-request decomposition over executed requests: queueing delay
  /// (issue − trace arrival; identically 0 in closed-loop mode, where trace
  /// arrivals are ignored) and service time (done − issue). Open-loop runs
  /// report the two separately so queue buildup is priced, not folded into
  /// the device latency.
  LatencyRecorder queue_delay;
  LatencyRecorder service;

  [[nodiscard]] double sim_requests_per_s() const {
    return makespan_ns > 0 ? static_cast<double>(requests) * 1e9 /
                                 static_cast<double>(makespan_ns)
                           : 0.0;
  }
};

/// Replays `trace` through an SsdPipeline at config.pipeline's queue depth
/// (closed-loop: trace arrival times are ignored, the driver keeps the
/// window full). Every simulated number in the result is deterministic in
/// (config, trace).
[[nodiscard]] PipelineReplayResult replay_pipeline(
    const ssd::SsdConfig& config, ftl::SchemeKind kind, const Trace& trace,
    const ReplayOptions& options = {});

/// One scheduled sudden power-off for replay_with_power_cut.
struct PowerCutSpec {
  /// 1-based flash-op index, counted from the start of the measured replay
  /// (aging is never interrupted), at which power dies. 0 = sample one
  /// uniformly from `seed` over the run's op horizon, at the cost of one
  /// extra dry replay to measure that horizon.
  std::uint64_t at_op = 0;
  std::uint64_t seed = 1;
};

struct CrashReplayResult {
  /// False when the cut point lay beyond the run's op horizon — the replay
  /// completed normally and no recovery happened.
  bool crashed = false;
  std::uint64_t cut_at_op = 0;   // resolved cut point (post seed-sampling)
  std::uint64_t total_ops = 0;   // flash ops the measured phase issued
  std::size_t crash_event = 0;   // trace index of the interrupted request
  ssd::RecoveryReport recovery;  // what the mount cost and found
  /// Sectors checked by the post-mount oracle sweep (every logical sector,
  /// with only the interrupted request's range tolerating the pre-crash
  /// version).
  std::uint64_t verified_sectors = 0;
  /// Final stats, measured over the post-recovery continuation replay (or
  /// the whole run when the cut never fired).
  ReplayResult result;
};

/// Crash-point harness: replays `trace`, kills the device at the spec'd
/// flash op, mounts the surviving image (checkpoint chain + OOB scan),
/// verifies every logical sector against the acknowledged-write oracle and
/// finishes the trace on the recovered device. Aborts on any post-recovery
/// divergence. Deterministic in (config, trace, spec). Requires
/// config.track_payload.
[[nodiscard]] CrashReplayResult replay_with_power_cut(
    const ssd::SsdConfig& config, ftl::SchemeKind kind, const Trace& trace,
    const PowerCutSpec& spec, const ReplayOptions& options = {});

}  // namespace af::trace
