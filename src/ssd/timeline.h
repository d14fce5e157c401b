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

namespace af::ssd {

class ResourceTimeline {
 public:
  ResourceTimeline(const nand::Geometry& geometry, const nand::Timing& timing);

  /// A scheduled op's occupancy window on its chip: [start, done).
  struct Span {
    SimTime start = 0;
    SimTime done = 0;
  };

  /// Timing-level record of one in-flight suspendable background op (GC/wear
  /// erase, GC relocation or checkpoint program) occupying a chip. The array
  /// state change itself is synchronous — pages flip instantly — so
  /// suspension is purely temporal: a preempting foreground read slots in at
  /// `front` and pushes `end` (the op's completion estimate) out by the
  /// read's cell time plus the resume overhead. All fields are simulated
  /// time on this timeline's clock; no wall clock.
  struct SuspendSlot {
    enum class Kind : std::uint8_t { kNone, kProgram, kErase };
    Kind kind = Kind::kNone;
    SimTime start = 0;  ///< when the op began occupying the chip
    SimTime end = 0;    ///< completion estimate, pushed out per resume
    /// Chip admits the next preempting read no earlier than this (the latest
    /// preempting read's sense end — preempting reads serialize on the chip).
    SimTime front = 0;
    std::uint32_t suspends = 0;  ///< suspensions charged against this op
    std::uint32_t nested = 0;    ///< preempting reads currently stacked

    [[nodiscard]] bool active() const { return kind != Kind::kNone; }
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
                                                 SuspendSlot& slot,
                                                 SimDuration resume_overhead);

  // One suspend slot per chip: only the newest suspendable op on a chip can
  // be preempted (the busy-until clocks serialize chip ops anyway). Arming a
  // slot is free bookkeeping; nothing reads them unless the deadline
  // subsystem preempts.

  /// Registers the suspendable background op now occupying `chip` over the
  /// simulated window [start, end). Overwrites any previous (completed) slot.
  void arm_suspendable(std::uint64_t chip, SuspendSlot::Kind kind,
                       SimTime start, SimTime end);
  /// Clears the chip's slot (op completed or ceiling forced completion).
  void disarm_suspendable(std::uint64_t chip);
  /// The chip's suspendable op, or nullptr when none is armed. The caller
  /// (the engine) decides whether the slot is still in flight at its read's
  /// ready time and mutates it through this pointer.
  [[nodiscard]] SuspendSlot* suspend_slot(std::uint64_t chip);

  [[nodiscard]] SimTime chip_free_at(std::uint64_t chip_idx) const {
    return chip_busy_until_[chip_idx];
  }
  [[nodiscard]] SimTime channel_free_at(std::uint32_t channel) const {
    return channel_busy_until_[channel];
  }

  /// Frees every chip and channel at time 0 and clears every suspend slot:
  /// an op armed on the old clock is not in flight on the new one.
  void reset();

 private:
  nand::Geometry geom_;
  nand::Timing timing_;
  std::vector<SimTime> chip_busy_until_;
  std::vector<SimTime> channel_busy_until_;
  std::vector<SuspendSlot> suspend_slots_;
};

}  // namespace af::ssd
