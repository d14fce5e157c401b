#include "nand/flash_array.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace af::nand {

FlashArray::FlashArray(const Geometry& geometry, bool track_payload,
                       const FaultConfig& faults)
    : geom_(geometry), faults_(faults) {
  AF_CHECK_MSG(geom_.valid(), "invalid flash geometry");
  const auto total = static_cast<std::size_t>(geom_.total_pages());
  pages_.assign(total, PageState::kFree);
  owners_.assign(total, PageOwner{});
  oob_.assign(total, OobRecord{});
  programmed_at_.assign(total, 0);
  blocks_.assign(static_cast<std::size_t>(geom_.total_blocks()), BlockInfo{});
  if (track_payload) {
    stamps_.assign(total * geom_.sectors_per_page(), 0);
  }
  counters_.free_pages = total;
  // Arm the fail-slow schedules only when configured: the call lays out
  // per-die RNG state, and skipping it keeps a zero-config array identical
  // to a pre-fail-slow build.
  if (faults_.config().slow_enabled()) {
    faults_.init_slow(geom_.total_chips() * geom_.dies_per_chip);
  }
}

void FlashArray::arm_power_cut(const PowerCutPlan& plan) {
  power_cut_ = plan;
  ops_since_arm_ = 0;
}

bool FlashArray::cut_now() {
  ++ops_since_arm_;
  ++op_clock_;
  return power_cut_.armed() && ops_since_arm_ == power_cut_.at_op;
}

void FlashArray::count_read() {
  if (cut_now()) throw PowerLoss{ops_since_arm_};
}

void FlashArray::note_read(Ppn ppn) {
  ++blocks_[geom_.block_of(ppn)].reads;
  count_read();
}

std::uint64_t FlashArray::retention_ops(Ppn ppn) const {
  const std::size_t i = index(ppn);
  AF_CHECK_MSG(programmed_at_[i] != 0, "retention query on unprogrammed page");
  return op_clock_ - programmed_at_[i];
}

double FlashArray::page_ber(Ppn ppn) const {
  const BlockInfo& blk = blocks_[geom_.block_of(ppn)];
  return faults_.page_ber(retention_ops(ppn), blk.reads, blk.erase_count);
}

std::uint32_t FlashArray::draw_read_errors(Ppn ppn) {
  return faults_.raw_bit_errors(page_ber(ppn));
}

bool FlashArray::program(Ppn ppn, PageOwner owner, const OobExtra* extra,
                         std::uint64_t stripe, std::uint8_t stream,
                         std::uint16_t tenant) {
  const std::size_t i = index(ppn);
  AF_CHECK_MSG(pages_[i] == PageState::kFree, "program of non-free page");
  const std::uint64_t b = geom_.block_of(ppn);
  BlockInfo& blk = blocks_[b];
  AF_CHECK_MSG(!blk.retired, "program into retired block");
  const auto page_in_block =
      static_cast<std::uint32_t>(ppn.get() % geom_.pages_per_block);
  AF_CHECK_MSG(page_in_block == blk.written,
               "NAND pages must be programmed in order within a block");
  ++blk.written;
  ++counters_.programs;
  --counters_.free_pages;
  const std::uint64_t seq = ++next_seq_;
  blk.max_seq = seq;
  if (cut_now()) {
    // Power died mid-program: the page is torn exactly like a program fault,
    // and the spare area records that so mount-time recovery can tell "never
    // written" from "interrupted". No fault-model draw is consumed.
    pages_[i] = PageState::kInvalid;
    owners_[i] = PageOwner{};
    oob_[i] = OobRecord{};
    oob_[i].torn = true;
    oob_[i].seq = seq;
    ++counters_.invalid_pages;
    throw PowerLoss{ops_since_arm_};
  }
  if (faults_.program_fails(blk.erase_count)) {
    // Torn page: the program cycle was spent but the data is unreadable.
    // It stays kInvalid (no owner) until the block is erased.
    pages_[i] = PageState::kInvalid;
    owners_[i] = PageOwner{};
    oob_[i] = OobRecord{};
    oob_[i].torn = true;
    oob_[i].seq = seq;
    ++counters_.invalid_pages;
    ++counters_.program_faults;
    return false;
  }
  pages_[i] = PageState::kValid;
  owners_[i] = owner;
  programmed_at_[i] = op_clock_;  // retention clock starts at this op
  OobRecord& rec = oob_[i];
  rec = OobRecord{};
  rec.owner = owner;
  rec.seq = seq;
  rec.stripe = stripe;
  rec.stream = stream;
  rec.tenant = tenant;
  if (extra != nullptr) {
    rec.range_begin = extra->range_begin;
    rec.range_end = extra->range_end;
    rec.slot_base = extra->slot_base;
    rec.slots = extra->slots;
  }
  ++blk.valid_pages;
  ++counters_.valid_pages;
  return true;
}

void FlashArray::invalidate(Ppn ppn) {
  const std::size_t i = index(ppn);
  AF_CHECK_MSG(pages_[i] == PageState::kValid, "invalidate of non-valid page");
  pages_[i] = PageState::kInvalid;
  owners_[i] = PageOwner{};
  BlockInfo& blk = blocks_[geom_.block_of(ppn)];
  AF_CHECK(blk.valid_pages > 0);
  --blk.valid_pages;
  --counters_.valid_pages;
  ++counters_.invalid_pages;
}

void FlashArray::recover_revive(Ppn ppn, PageOwner owner) {
  const std::size_t i = index(ppn);
  AF_CHECK_MSG(pages_[i] == PageState::kInvalid, "revive of non-invalid page");
  AF_CHECK_MSG(!oob_[i].torn && oob_[i].written(),
               "revive of a page with no durable program");
  pages_[i] = PageState::kValid;
  owners_[i] = owner;
  BlockInfo& blk = blocks_[geom_.block_of(ppn)];
  ++blk.valid_pages;
  ++counters_.valid_pages;
  --counters_.invalid_pages;
}

void FlashArray::scrub_page(std::size_t i) {
  oob_[i] = OobRecord{};
  programmed_at_[i] = 0;
  blobs_.erase(static_cast<std::uint64_t>(i));
  if (!stamps_.empty()) {
    const std::size_t base = i * geom_.sectors_per_page();
    std::fill_n(stamps_.begin() + static_cast<std::ptrdiff_t>(base),
                geom_.sectors_per_page(), 0);
  }
}

bool FlashArray::erase_block(std::uint64_t flat_block) {
  AF_CHECK(flat_block < blocks_.size());
  BlockInfo& blk = blocks_[flat_block];
  AF_CHECK_MSG(!blk.retired, "erase of retired block");
  AF_CHECK_MSG(blk.valid_pages == 0, "erase of block holding valid pages");
  // Erase is atomic under power loss: either it completed or the block is
  // untouched. The cut check precedes the fault draw so a cut-on-erase run
  // consumes no extra RNG state.
  if (cut_now()) throw PowerLoss{ops_since_arm_};
  if (faults_.erase_fails(blk.erase_count)) {
    ++counters_.erase_faults;
    do_retire(flat_block);
    return false;
  }
  const std::uint64_t first = flat_block * geom_.pages_per_block;
  for (std::uint32_t p = 0; p < geom_.pages_per_block; ++p) {
    const std::size_t i = static_cast<std::size_t>(first + p);
    if (pages_[i] == PageState::kInvalid) {
      --counters_.invalid_pages;
      ++counters_.free_pages;
    }
    pages_[i] = PageState::kFree;
    owners_[i] = PageOwner{};
    scrub_page(i);
  }
  blk.written = 0;
  blk.max_seq = 0;
  blk.reads = 0;  // read-disturb exposure resets with the cells
  ++blk.erase_count;
  ++counters_.erases;
  return true;
}

void FlashArray::retire_block(std::uint64_t flat_block) {
  AF_CHECK(flat_block < blocks_.size());
  AF_CHECK_MSG(!blocks_[flat_block].retired, "double retirement");
  do_retire(flat_block);
}

void FlashArray::do_retire(std::uint64_t flat_block) {
  BlockInfo& blk = blocks_[flat_block];
  AF_CHECK_MSG(blk.valid_pages == 0, "retirement of block holding valid pages");
  const std::uint64_t first = flat_block * geom_.pages_per_block;
  for (std::uint32_t p = 0; p < geom_.pages_per_block; ++p) {
    const std::size_t i = static_cast<std::size_t>(first + p);
    if (pages_[i] == PageState::kInvalid) {
      --counters_.invalid_pages;
    } else {
      AF_CHECK(pages_[i] == PageState::kFree);
      --counters_.free_pages;
    }
    pages_[i] = PageState::kRetired;
    owners_[i] = PageOwner{};
    scrub_page(i);
  }
  counters_.retired_pages += geom_.pages_per_block;
  ++counters_.retired_blocks;
  blk.retired = true;
  blk.max_seq = 0;
  blk.reads = 0;
  // Full frontier keeps the retired block out of every "has space" path.
  blk.written = geom_.pages_per_block;
}

Ppn FlashArray::write_frontier(std::uint64_t flat_block) const {
  AF_CHECK(flat_block < blocks_.size());
  const BlockInfo& blk = blocks_[flat_block];
  if (blk.retired || blk.fully_written(geom_.pages_per_block)) return Ppn{};
  return Ppn{flat_block * geom_.pages_per_block + blk.written};
}

std::vector<Ppn> FlashArray::valid_pages_in(std::uint64_t flat_block) const {
  std::vector<Ppn> out;
  out.reserve(block(flat_block).valid_pages);
  for_each_valid_page(flat_block, [&out](Ppn ppn) {
    out.push_back(ppn);
    return true;
  });
  return out;
}

double FlashArray::used_fraction() const {
  const auto total = static_cast<double>(geom_.total_pages());
  return 1.0 - static_cast<double>(counters_.free_pages) / total;
}

double FlashArray::valid_fraction() const {
  const auto total = static_cast<double>(geom_.total_pages());
  return static_cast<double>(counters_.valid_pages) / total;
}

std::uint64_t FlashArray::max_erase_count() const {
  std::uint64_t m = 0;
  for (const auto& b : blocks_) m = std::max(m, b.erase_count);
  return m;
}

FlashArray::WearSummary FlashArray::wear() const {
  WearSummary summary;
  summary.min = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t total = 0;
  std::uint64_t counted = 0;
  // Retired blocks are permanently out of the erase rotation: counting them
  // would pin the spread at whatever count they died with and make the
  // leveling target unreachable.
  for (const auto& b : blocks_) {
    if (b.retired) continue;
    summary.min = std::min(summary.min, b.erase_count);
    summary.max = std::max(summary.max, b.erase_count);
    total += b.erase_count;
    ++counted;
  }
  if (counted == 0) summary.min = 0;
  summary.mean = counted == 0 ? 0.0
                              : static_cast<double>(total) /
                                    static_cast<double>(counted);
  return summary;
}

std::uint64_t FlashArray::note_trim(SectorRange range) {
  AF_CHECK_MSG(!range.empty(), "trim tombstone for an empty range");
  const std::uint64_t seq = ++next_seq_;
  trim_log_.push_back({seq, range.begin, range.end});
  return seq;
}

void FlashArray::prune_trim_log(std::uint64_t upto) {
  // The log is seq-ascending, so subsumed tombstones form a prefix.
  auto it = trim_log_.begin();
  while (it != trim_log_.end() && it->seq <= upto) ++it;
  trim_log_.erase(trim_log_.begin(), it);
}

void FlashArray::set_ckpt_blob(Ppn ppn, std::vector<std::uint8_t> bytes) {
  blobs_[static_cast<std::uint64_t>(index(ppn))] = std::move(bytes);
}

const std::vector<std::uint8_t>* FlashArray::ckpt_blob(Ppn ppn) const {
  const auto it = blobs_.find(static_cast<std::uint64_t>(index(ppn)));
  return it == blobs_.end() ? nullptr : &it->second;
}

void FlashArray::move_ckpt_blob(Ppn from, Ppn to) {
  const auto it = blobs_.find(static_cast<std::uint64_t>(index(from)));
  AF_CHECK_MSG(it != blobs_.end(), "move of missing checkpoint blob");
  std::vector<std::uint8_t> bytes = std::move(it->second);
  blobs_.erase(it);
  blobs_[static_cast<std::uint64_t>(index(to))] = std::move(bytes);
}

void FlashArray::set_stamp(Ppn ppn, std::uint32_t sector_in_page,
                           std::uint64_t stamp) {
  AF_CHECK_MSG(!stamps_.empty(), "payload tracking disabled");
  stamps_[stamp_index(ppn, sector_in_page)] = stamp;
}

std::uint64_t FlashArray::stamp(Ppn ppn, std::uint32_t sector_in_page) const {
  AF_CHECK_MSG(!stamps_.empty(), "payload tracking disabled");
  return stamps_[stamp_index(ppn, sector_in_page)];
}

}  // namespace af::nand
