#include "ssd/timeline.h"

#include <gtest/gtest.h>

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
  return t;
}

TEST(Timeline, ReadLatencyOnIdleResources) {
  ResourceTimeline tl(two_channel(), fixed_timing());
  const SimTime done = tl.schedule_read({0, 0, 0, 0, 0, 0}, 50);
  EXPECT_EQ(done, 50 + 100 + 10);  // sense then transfer
}

TEST(Timeline, ProgramLatencyOnIdleResources) {
  ResourceTimeline tl(two_channel(), fixed_timing());
  const auto span = tl.schedule_program_span({0, 0, 0, 0, 0, 0}, 0);
  EXPECT_EQ(span.done, 10 + 1000);  // transfer then program
  EXPECT_EQ(span.start, 10u);       // the cell window follows the transfer
}

TEST(Timeline, EraseOccupiesOnlyChip) {
  ResourceTimeline tl(two_channel(), fixed_timing());
  const auto span = tl.schedule_erase_span({0, 0, 0, 0, 0, 0}, 0);
  EXPECT_EQ(span.start, 0u);
  EXPECT_EQ(span.done, 5000u);
  EXPECT_EQ(tl.channel_free_at(0), 0u);  // channel untouched
  EXPECT_EQ(tl.chip_free_at(0), 5000u);
}

TEST(Timeline, SameChipSerialises) {
  ResourceTimeline tl(two_channel(), fixed_timing());
  const SimTime first = tl.schedule_program_span({0, 0, 0, 0, 0, 0}, 0).done;
  const SimTime second =
      tl.schedule_program_span({0, 0, 0, 0, 0, 1}, 0).done;
  EXPECT_EQ(first, 1010u);
  EXPECT_EQ(second, first + 10 + 1000);
}

TEST(Timeline, DifferentChipsShareOnlyChannel) {
  ResourceTimeline tl(two_channel(), fixed_timing());
  const SimTime a = tl.schedule_program_span({0, 0, 0, 0, 0, 0}, 0).done;
  const SimTime b = tl.schedule_program_span({0, 1, 0, 0, 0, 0}, 0).done;
  EXPECT_EQ(a, 1010u);
  // Second chip waits only for the 10ns channel transfer, then programs in
  // parallel with the first chip.
  EXPECT_EQ(b, 10 + 10 + 1000u);
}

TEST(Timeline, DifferentChannelsFullyParallel) {
  ResourceTimeline tl(two_channel(), fixed_timing());
  const SimTime a = tl.schedule_program_span({0, 0, 0, 0, 0, 0}, 0).done;
  const SimTime b = tl.schedule_program_span({1, 0, 0, 0, 0, 0}, 0).done;
  EXPECT_EQ(a, b);
}

TEST(Timeline, ProgramFreesChannelBeforeCellWork) {
  ResourceTimeline tl(two_channel(), fixed_timing());
  (void)tl.schedule_program_span({0, 0, 0, 0, 0, 0}, 0);
  EXPECT_EQ(tl.channel_free_at(0), 10u);
  EXPECT_EQ(tl.chip_free_at(0), 1010u);
}

TEST(Timeline, ReadHoldsChipThroughTransfer) {
  ResourceTimeline tl(two_channel(), fixed_timing());
  (void)tl.schedule_read({0, 0, 0, 0, 0, 0}, 0);
  EXPECT_EQ(tl.chip_free_at(0), 110u);
  EXPECT_EQ(tl.channel_free_at(0), 110u);
}

TEST(Timeline, CompletionNeverBeforeReady) {
  ResourceTimeline tl(two_channel(), fixed_timing());
  EXPECT_GE(tl.schedule_read({0, 0, 0, 0, 0, 0}, 1'000'000), 1'000'000u);
}

TEST(Timeline, ResetClearsBacklog) {
  ResourceTimeline tl(two_channel(), fixed_timing());
  (void)tl.schedule_program_span({0, 0, 0, 0, 0, 0}, 0);
  tl.reset();
  EXPECT_EQ(tl.chip_free_at(0), 0u);
  EXPECT_EQ(tl.channel_free_at(0), 0u);
}

}  // namespace
}  // namespace af::ssd
