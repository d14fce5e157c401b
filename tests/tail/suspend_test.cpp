// Program/erase suspend-resume state machine (tail subsystem, DESIGN.md §11):
// the timeline's preemption algebra — a foreground read slicing into an
// in-flight background op's window — and the per-chip suspend-slot
// bookkeeping on the flash array.
#include <gtest/gtest.h>

#include "nand/flash_array.h"
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

nand::SuspendSlot slot_over(nand::SuspendSlot::Kind kind,
                            ResourceTimeline::Span span) {
  nand::SuspendSlot slot;
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
  auto slot = slot_over(nand::SuspendSlot::Kind::kErase, span);

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
  auto slot = slot_over(nand::SuspendSlot::Kind::kErase, span);

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
  auto slot = slot_over(nand::SuspendSlot::Kind::kProgram, span);
  const SimTime done =
      tl.schedule_preempting_read({0, 0, 0, 0, 0, 1}, span.start, 3.0, slot, 40);
  // Sense is 3x slower (fail-slow die); the channel transfer is unaffected.
  EXPECT_EQ(done, span.start + 300 + 10);
  EXPECT_EQ(slot.end, span.done + 300 + 40);
}

TEST(Suspend, SlotLifecycleArmsOverwritesAndDisarms) {
  nand::FlashArray array(two_channel());
  // Nothing armed: every chip reports no suspendable op.
  for (std::uint64_t chip = 0; chip < 4; ++chip) {
    EXPECT_EQ(array.suspend_slot(chip), nullptr);
  }

  array.arm_suspendable(1, nand::SuspendSlot::Kind::kErase, 100, 5100);
  nand::SuspendSlot* slot = array.suspend_slot(1);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->kind, nand::SuspendSlot::Kind::kErase);
  EXPECT_EQ(slot->start, 100u);
  EXPECT_EQ(slot->end, 5100u);
  EXPECT_EQ(slot->front, 100u);
  EXPECT_EQ(slot->suspends, 0u);
  EXPECT_EQ(array.suspend_slot(0), nullptr);  // per-chip isolation

  // The engine mutates the slot through the pointer; the array keeps it.
  slot->suspends = 3;
  EXPECT_EQ(array.suspend_slot(1)->suspends, 3u);

  // Re-arming (a newer background op on the same chip) resets everything.
  array.arm_suspendable(1, nand::SuspendSlot::Kind::kProgram, 6000, 8000);
  slot = array.suspend_slot(1);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->kind, nand::SuspendSlot::Kind::kProgram);
  EXPECT_EQ(slot->suspends, 0u);
  EXPECT_EQ(slot->front, 6000u);

  array.disarm_suspendable(1);
  EXPECT_EQ(array.suspend_slot(1), nullptr);
}

}  // namespace
}  // namespace af::ssd
