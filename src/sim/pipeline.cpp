#include "sim/pipeline.h"

#include <algorithm>
#include <utility>

namespace af::sim {

SsdPipeline::SsdPipeline(const ssd::SsdConfig& config, ftl::SchemeKind kind)
    : queue_depth_(std::max<std::uint32_t>(1, config.pipeline.queue_depth)),
      open_loop_(config.pipeline.open_loop),
      sectors_per_page_(config.geometry.sectors_per_page()),
      device_(config, kind) {}

void SsdPipeline::age(double used_fraction, double live_fraction,
                      std::uint64_t seed) {
  device_.age(used_fraction, live_fraction, seed);
}

void SsdPipeline::reset_measurement() {
  device_.reset_measurement();
  records_.clear();
  lost_requests_ = 0;
  slots_ = {};
  page_gates_.clear();
  barrier_gate_ = 0;
  all_done_gate_ = 0;
  last_issue_ = 0;
  makespan_ = 0;
}

void SsdPipeline::flush() {
  if (crashed_) throw nand::PowerLoss{crash_op_};
}

void SsdPipeline::drain() {
  flush();
  device_.drain_admission();
}

std::pair<std::uint64_t, std::uint64_t> SsdPipeline::pages_of(
    const ftl::IoRequest& req) const {
  return {req.range.begin / sectors_per_page_,
          (req.range.end - 1) / sectors_per_page_ + 1};
}

SimTime SsdPipeline::dependency_gate(const ftl::IoRequest& req) const {
  // Barriers wait for every issued request; everything waits for barriers.
  SimTime gate = barrier_gate_;
  if (req.trim) return std::max(gate, all_done_gate_);
  const auto [first, last] = pages_of(req);
  for (std::uint64_t page = first; page < last; ++page) {
    const auto it = page_gates_.find(page);
    if (it == page_gates_.end()) continue;
    // Reads order after the last overlapping write; writes after every
    // overlapping access (a write must not complete before an older read of
    // the data it replaces has been served).
    gate = std::max(gate, req.write ? it->second.last_any
                                    : it->second.last_excl);
  }
  return gate;
}

SimTime SsdPipeline::issue_time(const ftl::IoRequest& req) {
  // Open-loop arrivals: the trace timestamp is the submission instant; only
  // dependency ordering can push the issue later. No slot gate, no issue
  // chaining — the simulated schedule is queue_depth-independent.
  if (open_loop_) return std::max(req.arrival, dependency_gate(req));
  // Slot gate: with queue_depth simulated requests outstanding, the next one
  // issues when the earliest of them completes.
  SimTime slot_gate = 0;
  if (slots_.size() >= queue_depth_) {
    slot_gate = slots_.top();
    slots_.pop();
  }
  return std::max({last_issue_, slot_gate, dependency_gate(req)});
}

void SsdPipeline::update_gates(const ftl::IoRequest& req, SimTime done) {
  last_issue_ = req.arrival;
  all_done_gate_ = std::max(all_done_gate_, done);
  makespan_ = std::max(makespan_, done);
  if (req.trim) {
    barrier_gate_ = std::max(barrier_gate_, done);
    page_gates_.clear();  // the barrier supersedes every per-page gate
    slots_ = {};          // everything older has logically completed
  } else {
    const auto [first, last] = pages_of(req);
    for (std::uint64_t page = first; page < last; ++page) {
      PageGate& gate = page_gates_[page];
      gate.last_any = std::max(gate.last_any, done);
      if (req.write) gate.last_excl = std::max(gate.last_excl, done);
    }
  }
  if (!open_loop_) slots_.push(done);
}

std::vector<std::uint64_t> SsdPipeline::pre_stamps(
    const ftl::IoRequest& req) const {
  // Only the crash harness pays for this: with an armed power cut, the
  // interrupted write's sectors may legitimately read back as either
  // version after the mount, so their pre-submission stamps are kept.
  std::vector<std::uint64_t> stamps;
  if (!req.write || req.trim || device_.oracle() == nullptr ||
      !device_.engine().array().power_cut_armed()) {
    return stamps;
  }
  stamps.reserve(req.range.size());
  for (SectorAddr s = req.range.begin; s < req.range.end; ++s) {
    stamps.push_back(device_.oracle()->expected(s));
  }
  return stamps;
}

void SsdPipeline::submit(const ftl::IoRequest& req) {
  flush();
  CompletionRecord& rec = records_.emplace_back();
  ftl::IoRequest issued = req;
  issued.arrival = issue_time(req);
  std::vector<std::uint64_t> stamps = pre_stamps(issued);
  Ssd::Completion c;
  try {
    c = device_.submit(issued);
  } catch (const nand::PowerLoss& loss) {
    crashed_ = true;
    crash_op_ = loss.op_index;
    if (req.write && !req.trim) {
      crash_inflight_ = req.range;
      crash_pre_stamps_ = std::move(stamps);
    }
    throw;
  }
  update_gates(issued, c.done);
  rec.submitted = issued.arrival;
  rec.done = c.done;
  rec.queue_delay = open_loop_ ? issued.arrival - req.arrival : 0;
  rec.cls = c.cls;
  rec.accepted = c.accepted;
  rec.data_lost = c.data_lost;
  rec.executed = true;
  if (c.data_lost) ++lost_requests_;
}

}  // namespace af::sim
