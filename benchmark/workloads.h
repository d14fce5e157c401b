// The benchmark's named workloads (benchmark/README.md says why each one
// exists). Each fixes a device configuration, a trace shape, how deep the
// device is aged and how the trace is driven. A run replays several parts,
// each with its own inputs; every input is a pure function of (workload,
// seed, part, scale), so the same seed always replays the same requests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ssd/config.h"
#include "trace/event.h"

namespace af::benchmark {

/// Share of raw capacity aging fills with live data (§4.1: 39.8%); every
/// trace addresses exactly that span, so reads find data.
inline constexpr double kLiveFraction = 0.398;

struct Workload {
  std::string name;
  /// Device under test. The verification oracle is on (track_payload).
  ssd::SsdConfig config;
  /// Full-length request counts per part (--scale shrinks both).
  std::uint64_t warmup_requests = 0;
  std::uint64_t requests = 0;
  /// Drive through sim::SsdPipeline (closed loop at config.pipeline's queue
  /// depth) instead of serial Ssd::submit at trace timestamps.
  bool pipelined = false;
  /// Used share of physical pages Ssd::age fills to before the warm-up.
  double age_used = 0.90;
  /// Tenant whose requests the latency metrics cover; -1 covers all.
  int measured_tenant = -1;
  /// Generates `n` requests over `span` sectors from `seed`.
  std::function<trace::Trace(std::uint64_t n, std::uint64_t seed,
                             std::uint64_t span)>
      generate;
};

/// One part's inputs. The first `warmup` records bring the aged device to
/// the workload's own steady state during setup; the rest are measured.
struct PartInput {
  trace::Trace records;
  std::size_t warmup = 0;
  std::uint64_t age_seed = 0;
};

/// Workload names in the order a full pass runs them.
const std::vector<std::string>& workload_names();

/// The named workload. Aborts on an unknown name; check workload_names()
/// first.
Workload make_workload(const std::string& name);

/// Generates part `part`'s inputs from `seed`, `scale` × full length.
/// Exits with code 2 when `scale` leaves fewer than 1000 measured requests.
PartInput make_input(const Workload& workload, std::uint64_t seed,
                     std::uint32_t part, double scale);

}  // namespace af::benchmark
