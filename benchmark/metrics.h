// Metric computation. Simulated metrics are pure functions of (workload,
// seed) and repeat bit-for-bit; host metrics are wall-clock and are added by
// the driver.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "ssd/engine.h"
#include "ssd/stats.h"
#include "trace/event.h"

namespace af::benchmark {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Exact nearest-rank percentile (0 < p <= 100) of the samples; 0 when
/// there are none. Works on its own copy.
[[nodiscard]] double exact_percentile(std::vector<std::uint64_t> samples,
                                      double p);

/// Engine counters that Ssd::reset_measurement() does not clear; taken right
/// after the reset so a rep reports measured-phase deltas only.
struct CounterBase {
  std::uint64_t gc_runs = 0;
  ssd::Engine::GcPerf gc_perf;
  std::uint64_t map_hits = 0;
  std::uint64_t map_misses = 0;
  std::uint64_t map_evictions = 0;

  [[nodiscard]] static CounterBase of(const ssd::Engine& engine);
};

/// What the driver saw during one rep's measured phase.
struct Observed {
  /// Simulated latencies (ns) of the measured tenant's reads and writes, in
  /// submission order.
  std::vector<std::uint64_t> read_ns;
  std::vector<std::uint64_t> write_ns;
  std::uint64_t latency_sum_ns = 0;  ///< over read_ns and write_ns
  /// Entries of read_ns that came from the first half of the requests.
  std::size_t first_half_reads = 0;
  /// Device stats once the first half of the measured requests, and once
  /// all of them, were submitted (before parked writes are drained, so the
  /// halves compare like with like).
  ssd::DeviceStats half_stats;
  ssd::DeviceStats submitted_stats;
  std::uint64_t requests = 0;
  std::uint64_t lost = 0;          ///< completions flagged data_lost
  std::uint64_t read_sectors = 0;  ///< sectors of accepted reads
  std::uint64_t verified_sectors = 0;
  SimTime first_arrival = 0;
  SimTime last_done = 0;
};

/// Requests the device refused (read-only, kNoSpace, tenant quota). Read
/// from the stats, so a write parked by a token bucket and refused when it
/// finally enters the device still counts.
[[nodiscard]] std::uint64_t refused_requests(const ssd::DeviceStats& stats);

/// The additive simulated totals behind the end-to-end metrics. A run
/// replays several independently seeded parts and pools their tallies, so
/// its percentiles and ratios rest on more samples than one part holds.
struct SimTally {
  std::vector<std::uint64_t> read_ns;
  std::vector<std::uint64_t> write_ns;
  std::uint64_t latency_sum_ns = 0;
  std::uint64_t requests = 0;
  /// Refused, lost, or served after its deadline (kDeadlineExceeded).
  std::uint64_t unserved = 0;
  std::uint64_t flash_reads = 0;
  std::uint64_t flash_writes = 0;
  std::uint64_t host_write_sectors = 0;
  std::uint32_t sectors_per_page = 0;
  /// Last completion − first arrival, summed over the pooled parts.
  std::uint64_t span_ns = 0;

  /// Takes the latencies out of `obs`.
  [[nodiscard]] static SimTally take(Observed& obs, const ssd::Engine& engine);
  void merge(const SimTally& other);
};

/// The simulated end-to-end metrics, in BENCHMARK.json order.
[[nodiscard]] Metrics sim_metrics(const SimTally& tally);

/// The deterministic per-layer metrics of one rep.
[[nodiscard]] Metrics layer_metrics(const Observed& obs,
                                    const ssd::Engine& engine,
                                    const CounterBase& base,
                                    const trace::Trace& trace);

/// Value of the named metric; aborts if absent.
[[nodiscard]] double value_of(const Metrics& metrics, const std::string& name);

}  // namespace af::benchmark
