// SsdPipeline — the queue-depth request scheduler (DESIGN.md §10).
//
// Wraps one sim::Ssd in a closed-loop host driver with a bounded simulated
// submission window (`SsdConfig::PipelineConfig::queue_depth`). It is a plain
// single-threaded loop: submit() computes the request's simulated issue time,
// services it through Ssd::submit (which verifies reads against the oracle
// inline) and updates the gates. Overlap between in-flight requests lives in
// simulated time — the device's ResourceTimeline books each request's flash
// ops from its issue time — not in host threads.
//
// Determinism contract: every simulated number — issue/completion times,
// stats, oracle state, GC decisions — is a pure function of
// (config, submission sequence).
//
// Closed-loop timing: trace arrival times are ignored. A request's simulated
// issue time is max(previous issue, slot gate, dependency gate) where the
// slot gate pops the earliest in-flight completion once queue_depth
// simulated requests are outstanding (fio-style QD semantics), and the
// dependency gate orders overlapping pages (reads after the last overlapping
// write, writes after every overlapping access) and barriers (trims after
// everything, everything after them). QD=1 therefore chains every request
// behind the previous completion — exactly the serial engine driven
// one-request-at-a-time, which the tests check bit-identically.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ftl/request.h"
#include "nand/power.h"
#include "sim/ssd.h"

namespace af::sim {

class SsdPipeline {
 public:
  SsdPipeline(const ssd::SsdConfig& config, ftl::SchemeKind kind);

  SsdPipeline(const SsdPipeline&) = delete;
  SsdPipeline& operator=(const SsdPipeline&) = delete;

  /// Per-request outcome, indexed by submission sequence. `submitted` /
  /// `done` are the simulated device issue/completion times; a request
  /// interrupted by a power cut stays `executed = false`. `queue_delay` is
  /// submitted − trace arrival: zero in closed-loop mode (arrival timestamps
  /// are ignored there), and the time a request waited behind dependencies
  /// in open-loop mode — reported separately from the service time
  /// (done − submitted) so queueing is priced, not hidden.
  struct CompletionRecord {
    SimTime submitted = 0;
    SimTime done = 0;
    SimDuration queue_delay = 0;
    ssd::ReqClass cls = ssd::ReqClass::kNormalRead;
    bool executed = false;
    bool accepted = false;
    bool data_lost = false;
  };

  /// Serial warm-up; call reset_measurement() afterwards, before the first
  /// submit().
  void age(double used_fraction, double live_fraction, std::uint64_t seed);

  /// Clears device stats and all scheduler timing state.
  void reset_measurement();

  /// Issues and services one request. Arrival time is ignored (closed-loop
  /// driver) unless config.pipeline.open_loop is set. Throws nand::PowerLoss
  /// when an armed power cut fires, and at every later call — like the
  /// serial engine, the host learns of the crash at its next interaction.
  void submit(const ftl::IoRequest& req);

  /// Every submitted request has already completed; throws nand::PowerLoss
  /// after a crash.
  void flush();

  /// flush() + admits every write still parked by a dry token bucket. Call
  /// before reading any accessor below.
  void drain();

  [[nodiscard]] Ssd& device() { return device_; }
  [[nodiscard]] const Ssd& device() const { return device_; }

  [[nodiscard]] std::uint32_t queue_depth() const { return queue_depth_; }

  [[nodiscard]] const std::vector<CompletionRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::uint64_t submitted() const { return records_.size(); }
  /// Sectors read back and checked against the oracle since the last
  /// reset_measurement().
  [[nodiscard]] std::uint64_t verified_sectors() const {
    return device_.verified_sectors();
  }
  [[nodiscard]] std::uint64_t lost_requests() const { return lost_requests_; }
  /// Latest simulated completion of the measured phase.
  [[nodiscard]] SimTime makespan_ns() const { return makespan_; }

  // Crash introspection for the power-cut harness (post-PowerLoss).
  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] std::uint64_t crash_op_index() const { return crash_op_; }
  /// Range of the write interrupted mid-flight (empty if the cut hit a
  /// read/erase) and its pre-submission stamps — the only sectors the
  /// post-mount oracle sweep may tolerate at the old version.
  [[nodiscard]] SectorRange crash_inflight() const { return crash_inflight_; }
  [[nodiscard]] const std::vector<std::uint64_t>& crash_pre_stamps() const {
    return crash_pre_stamps_;
  }

 private:
  struct PageGate {
    SimTime last_any = 0;   // latest completion touching the page
    SimTime last_excl = 0;  // latest exclusive (write) completion
  };
  using MinHeap =
      std::priority_queue<SimTime, std::vector<SimTime>, std::greater<>>;

  /// Logical pages `req` touches, first and one-past-last.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> pages_of(
      const ftl::IoRequest& req) const;
  [[nodiscard]] SimTime dependency_gate(const ftl::IoRequest& req) const;
  /// Pops the slot gate and returns the request's simulated issue time.
  [[nodiscard]] SimTime issue_time(const ftl::IoRequest& req);
  /// Records `req` completing at `done` in every gate.
  void update_gates(const ftl::IoRequest& req, SimTime done);
  [[nodiscard]] std::vector<std::uint64_t> pre_stamps(
      const ftl::IoRequest& req) const;

  const std::uint32_t queue_depth_;
  const bool open_loop_;
  const std::uint64_t sectors_per_page_;

  Ssd device_;
  std::vector<CompletionRecord> records_;
  std::uint64_t lost_requests_ = 0;
  bool crashed_ = false;
  std::uint64_t crash_op_ = 0;
  SectorRange crash_inflight_{};
  std::vector<std::uint64_t> crash_pre_stamps_;

  // Simulated closed-loop gates.
  MinHeap slots_;  // completions of the requests holding a QD slot
  std::unordered_map<std::uint64_t, PageGate> page_gates_;
  SimTime barrier_gate_ = 0;
  SimTime all_done_gate_ = 0;
  SimTime last_issue_ = 0;
  SimTime makespan_ = 0;
};

}  // namespace af::sim
