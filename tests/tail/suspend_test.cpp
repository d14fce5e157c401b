// Program/erase suspend-resume state machine (tail subsystem, DESIGN.md §11):
// the timeline's preemption algebra — a foreground read slicing into an
// in-flight background op's window — and the per-chip suspend-slot
// bookkeeping that lives beside it on the timeline.
#include <gtest/gtest.h>

#include "../helpers.h"
#include "ssd/timeline.h"

namespace af::ssd {
namespace {

nand::Geometry two_channel() {
  nand::Geometry g;
  g.channels = 2;
  g.chips_per_channel = 2;
  g.dies_per_chip = 1;
  g.planes_per_die = 1;
  g.blocks_per_plane = 4;
  g.pages_per_block = 4;
  g.page_bytes = 8192;
  return g;
}

nand::Timing fixed_timing() {
  nand::Timing t;
  t.read_ns = 100;
  t.program_ns = 1000;
  t.erase_ns = 5000;
  t.transfer_ns_per_page = 10;
  t.suspend_resume_ns = 40;
  return t;
}

using Slot = ResourceTimeline::SuspendSlot;

Slot slot_over(Slot::Kind kind, ResourceTimeline::Span span) {
  Slot slot;
  slot.kind = kind;
  slot.start = span.start;
  slot.end = span.done;
  slot.front = span.start;
  return slot;
}

TEST(Suspend, PreemptingReadSlicesIntoEraseWindow) {
  ResourceTimeline tl(two_channel(), fixed_timing());
  const auto span = tl.schedule_erase_span({0, 0, 0, 0, 0, 0}, 0);
  EXPECT_EQ(span.start, 0u);
  EXPECT_EQ(span.done, 5000u);
  auto slot = slot_over(Slot::Kind::kErase, span);

  const SimTime done =
      tl.schedule_preempting_read({0, 0, 0, 0, 0, 1}, 200, 1.0, slot, 40);
  // The read senses immediately at its ready time — not at the erase's
  // completion — then pays the channel transfer.
  EXPECT_EQ(done, 200u + 100 + 10);
  // The victim loses the chip for the sensing window and pays the resume
  // re-ramp on top.
  EXPECT_EQ(slot.end, 5000u + 100 + 40);
  // The suspension front advances to the sense end: the chip admits no
  // second preempting read earlier than that.
  EXPECT_EQ(slot.front, 300u);
  // Ordinary ops queue behind the pushed-out victim, not the original end.
  EXPECT_EQ(tl.chip_free_at(0), slot.end);
}

TEST(Suspend, StackedPreemptionsSerializeOnTheSuspendFront) {
  ResourceTimeline tl(two_channel(), fixed_timing());
  const auto span = tl.schedule_erase_span({0, 0, 0, 0, 0, 0}, 0);
  auto slot = slot_over(Slot::Kind::kErase, span);

  const SimTime first =
      tl.schedule_preempting_read({0, 0, 0, 0, 0, 1}, 100, 1.0, slot, 40);
  EXPECT_EQ(first, 100u + 100 + 10);
  EXPECT_EQ(slot.front, 200u);

  // A second read ready at the same instant cannot sense concurrently: it
  // waits for the first suspension's sense window to drain (slot.front).
  const SimTime second =
      tl.schedule_preempting_read({0, 0, 0, 0, 0, 2}, 100, 1.0, slot, 40);
  EXPECT_EQ(second, 200u + 100 + 10);
  EXPECT_EQ(slot.front, 300u);
  // Each suspension charges the victim its sensing time plus one resume
  // overhead — the push-outs accumulate.
  EXPECT_EQ(slot.end, 5000u + 2 * (100 + 40));
  EXPECT_EQ(tl.chip_free_at(0), slot.end);
}

TEST(Suspend, SlowFactorScalesOnlyTheSense) {
  ResourceTimeline tl(two_channel(), fixed_timing());
  const auto span = tl.schedule_program_span({0, 0, 0, 0, 0, 0}, 0);
  auto slot = slot_over(Slot::Kind::kProgram, span);
  const SimTime done =
      tl.schedule_preempting_read({0, 0, 0, 0, 0, 1}, span.start, 3.0, slot, 40);
  // Sense is 3x slower (fail-slow die); the channel transfer is unaffected.
  EXPECT_EQ(done, span.start + 300 + 10);
  EXPECT_EQ(slot.end, span.done + 300 + 40);
}

TEST(Suspend, SlotLifecycleArmsOverwritesAndDisarms) {
  ResourceTimeline tl(two_channel(), fixed_timing());
  // Nothing armed: every chip reports no suspendable op.
  for (std::uint64_t chip = 0; chip < 4; ++chip) {
    EXPECT_EQ(tl.suspend_slot(chip), nullptr);
  }

  tl.arm_suspendable(1, Slot::Kind::kErase, 100, 5100);
  Slot* slot = tl.suspend_slot(1);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->kind, Slot::Kind::kErase);
  EXPECT_EQ(slot->start, 100u);
  EXPECT_EQ(slot->end, 5100u);
  EXPECT_EQ(slot->front, 100u);
  EXPECT_EQ(slot->suspends, 0u);
  EXPECT_EQ(tl.suspend_slot(0), nullptr);  // per-chip isolation

  // The engine mutates the slot through the pointer; the timeline keeps it.
  slot->suspends = 3;
  EXPECT_EQ(tl.suspend_slot(1)->suspends, 3u);

  // Re-arming (a newer background op on the same chip) resets everything.
  tl.arm_suspendable(1, Slot::Kind::kProgram, 6000, 8000);
  slot = tl.suspend_slot(1);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->kind, Slot::Kind::kProgram);
  EXPECT_EQ(slot->suspends, 0u);
  EXPECT_EQ(slot->front, 6000u);

  tl.disarm_suspendable(1);
  EXPECT_EQ(tl.suspend_slot(1), nullptr);

  // A reset restarts the clock, so no op armed on the old one is in flight.
  tl.arm_suspendable(2, Slot::Kind::kErase, 100, 5100);
  tl.reset();
  EXPECT_EQ(tl.suspend_slot(2), nullptr);
}

TEST(Suspend, ResetMeasurementDropsSlotsFromTheOldClock) {
  // GC during set-up arms suspend slots late on the set-up clock. After
  // reset_measurement() restarts simulated time at 0, none of those ops is
  // in flight: a read must queue only behind what the new clock booked,
  // never "preempt" a slot whose window lies far in the new clock's future.
  for (const auto kind : {ftl::SchemeKind::kPageFtl, ftl::SchemeKind::kMrsm,
                          ftl::SchemeKind::kAcrossFtl}) {
    auto config = test::tiny_config();
    config.deadline.read_deadline_us = 500;
    config.deadline.preempt = true;
    config.deadline.max_retries = 0;
    sim::Ssd ssd(config, kind);
    ssd.age(0.9, 0.5, 7);
    const std::uint32_t spp = config.geometry.sectors_per_page();
    Rng rng(3);
    SimTime t = 0;
    for (int i = 0; i < 3'000; ++i, t += 1'000) {
      (void)test::submit_ok(
          ssd, {t, /*write=*/true, SectorRange::of(rng.below(400) * spp, spp)});
    }
    ssd.reset_measurement();

    const auto write =
        test::submit_ok(ssd, {0, /*write=*/true, SectorRange::of(0, spp)});
    const auto read =
        test::submit_ok(ssd, {1'000, /*write=*/false, SectorRange::of(0, spp)});
    const auto& tail = ssd.stats().tail();
    EXPECT_EQ(tail.erase_suspends + tail.program_suspends, 0u);
    // The read senses once the write it follows frees the chip: nothing
    // else on the new clock stands in its way.
    EXPECT_EQ(read.done, write.done + config.timing.read_ns +
                             config.timing.transfer_ns_per_page);
  }
}

}  // namespace
}  // namespace af::ssd
