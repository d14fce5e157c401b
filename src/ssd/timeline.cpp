#include "ssd/timeline.h"

#include <algorithm>

#include "nand/flash_array.h"

namespace af::ssd {

namespace {
/// Cell-time scaling for the fail-slow model. `slow <= 1.0` returns the
/// duration untouched (not a float round-trip), so default-config runs are
/// bit-identical to the pre-fail-slow arithmetic.
SimDuration scaled(SimDuration ns, double slow) {
  if (slow <= 1.0) return ns;
  return static_cast<SimDuration>(static_cast<double>(ns) * slow);
}
}  // namespace

ResourceTimeline::ResourceTimeline(const nand::Geometry& geometry,
                                   const nand::Timing& timing)
    : geom_(geometry), timing_(timing) {
  chip_busy_until_.assign(geom_.total_chips(), 0);
  channel_busy_until_.assign(geom_.channels, 0);
}

SimTime ResourceTimeline::schedule_read(const nand::PhysAddr& addr,
                                        SimTime ready, double slow) {
  SimTime& chip = chip_busy_until_[addr.channel * geom_.chips_per_channel +
                                   addr.chip];
  SimTime& chan = channel_busy_until_[addr.channel];

  const SimTime sense_start = std::max(ready, chip);
  const SimTime sense_end = sense_start + scaled(timing_.read_ns, slow);
  const SimTime xfer_start = std::max(sense_end, chan);
  const SimTime done = xfer_start + timing_.transfer_ns_per_page;
  // The chip's page register holds the data until the transfer drains it.
  chip = done;
  chan = done;
  return done;
}

ResourceTimeline::Span ResourceTimeline::schedule_program_span(
    const nand::PhysAddr& addr, SimTime ready, double slow) {
  SimTime& chip = chip_busy_until_[addr.channel * geom_.chips_per_channel +
                                   addr.chip];
  SimTime& chan = channel_busy_until_[addr.channel];

  const SimTime xfer_start = std::max({ready, chip, chan});
  const SimTime xfer_end = xfer_start + timing_.transfer_ns_per_page;
  const SimTime done = xfer_end + scaled(timing_.program_ns, slow);
  chan = xfer_end;  // channel freed once data is latched in the chip
  chip = done;
  // The suspendable window is the cell-programming phase only: preempting
  // the bus transfer buys nothing (it is short and holds the channel).
  return Span{xfer_end, done};
}

ResourceTimeline::Span ResourceTimeline::schedule_erase_span(
    const nand::PhysAddr& addr, SimTime ready, double slow) {
  SimTime& chip = chip_busy_until_[addr.channel * geom_.chips_per_channel +
                                   addr.chip];
  const SimTime start = std::max(ready, chip);
  const SimTime done = start + scaled(timing_.erase_ns, slow);
  chip = done;
  return Span{start, done};
}

SimTime ResourceTimeline::schedule_preempting_read(
    const nand::PhysAddr& addr, SimTime ready, double slow,
    nand::SuspendSlot& slot, SimDuration resume_overhead) {
  SimTime& chip = chip_busy_until_[addr.channel * geom_.chips_per_channel +
                                   addr.chip];
  SimTime& chan = channel_busy_until_[addr.channel];

  // The chip pauses the background op: the read senses as soon as both the
  // request and the suspension front allow, not at slot.end. Preempting
  // reads serialize against each other through slot.front.
  const SimTime sense_start = std::max(ready, slot.front);
  const SimDuration cell = scaled(timing_.read_ns, slow);
  const SimTime sense_end = sense_start + cell;
  const SimTime xfer_start = std::max(sense_end, chan);
  const SimTime done = xfer_start + timing_.transfer_ns_per_page;
  chan = done;

  // The victim op loses the chip for the sensing window and pays the resume
  // re-ramp on top; its completion — and the chip's busy-until, which
  // ordinary (non-preempting) ops queue behind — moves out by that much.
  slot.front = sense_end;
  slot.end += cell + resume_overhead;
  chip = std::max(chip, slot.end);
  return done;
}

void ResourceTimeline::reset() {
  std::fill(chip_busy_until_.begin(), chip_busy_until_.end(), SimTime{0});
  std::fill(channel_busy_until_.begin(), channel_busy_until_.end(), SimTime{0});
}

}  // namespace af::ssd
