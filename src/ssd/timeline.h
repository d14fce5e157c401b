// Resource-timeline scheduler, the timing core of the simulator.
//
// SSDsim charges every flash command against two contended resources: the
// chip executing the cell operation and the channel moving data between the
// controller and the chip. We keep a busy-until timestamp per chip and per
// channel; scheduling an operation picks the earliest legal start and
// advances both clocks. Requests arriving from a trace are replayed in
// arrival order, so this per-resource model yields the same completion times
// a full discrete-event queue would for this workload shape.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "nand/geometry.h"
#include "nand/timing.h"

namespace af::nand {
struct SuspendSlot;
}  // namespace af::nand

namespace af::ssd {

class ResourceTimeline {
 public:
  ResourceTimeline(const nand::Geometry& geometry, const nand::Timing& timing);

  /// A scheduled op's occupancy window on its chip: [start, done).
  struct Span {
    SimTime start = 0;
    SimTime done = 0;
  };

  /// Read: chip senses the page, then the channel streams it out.
  /// Returns completion time of the data transfer. `slow` (>= 1.0) scales
  /// the cell-sensing time — the fail-slow model's latency multiplier; the
  /// channel transfer is unaffected. 1.0 (the default) reproduces the
  /// pre-fail-slow arithmetic exactly.
  [[nodiscard]] SimTime schedule_read(const nand::PhysAddr& addr,
                                      SimTime ready, double slow = 1.0);

  /// Program: channel streams data in, then the chip programs the cells.
  /// The returned span is the cell-programming window; `done` is the
  /// program's completion. Callers that arm suspend slots hand the span on:
  /// [start, done) is what a preempting read slices into.
  [[nodiscard]] Span schedule_program_span(const nand::PhysAddr& addr,
                                           SimTime ready, double slow = 1.0);
  /// Erase occupies only the chip, over the returned span.
  [[nodiscard]] Span schedule_erase_span(const nand::PhysAddr& addr,
                                         SimTime ready, double slow = 1.0);

  /// Foreground read preempting the suspendable background op recorded in
  /// `slot` (which must still be in flight: ready < slot.end). The read
  /// senses at max(ready, slot.front) instead of waiting for slot.end; the
  /// victim's completion (slot.end) is pushed out by the sensing time plus
  /// `resume_overhead`, and the chip's busy-until follows the victim. The
  /// caller counts the suspension and enforces ceiling/nesting caps.
  /// Returns the read's transfer completion.
  [[nodiscard]] SimTime schedule_preempting_read(const nand::PhysAddr& addr,
                                                 SimTime ready, double slow,
                                                 nand::SuspendSlot& slot,
                                                 SimDuration resume_overhead);

  [[nodiscard]] SimTime chip_free_at(std::uint64_t chip_idx) const {
    return chip_busy_until_[chip_idx];
  }
  [[nodiscard]] SimTime channel_free_at(std::uint32_t channel) const {
    return channel_busy_until_[channel];
  }

  void reset();

 private:
  nand::Geometry geom_;
  nand::Timing timing_;
  std::vector<SimTime> chip_busy_until_;
  std::vector<SimTime> channel_busy_until_;
};

}  // namespace af::ssd
