#include "nand/faults.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace af::nand {

FaultModel::FaultModel(const FaultConfig& config)
    : cfg_(config),
      rng_(config.seed),
      // Fixed-constant derivation, not a second config knob: one seed keeps
      // the "same seed, same outcome" contract a single value.
      ber_rng_(config.seed ^ 0xB17E770Au) {}

double FaultModel::wear_ramped(double base, std::uint64_t erase_count) const {
  double p = base;
  if (cfg_.wear_slope > 0.0 && erase_count > cfg_.wear_onset) {
    p += cfg_.wear_slope * static_cast<double>(erase_count - cfg_.wear_onset);
  }
  return p < 1.0 ? p : 1.0;
}

bool FaultModel::draw(double p) {
  // Zero-probability classes never touch the RNG: a disabled fault class
  // cannot perturb the schedule of an enabled one, and an all-zero config
  // makes the model completely inert.
  if (p <= 0.0) return false;
  return rng_.chance(p);
}

bool FaultModel::program_fails(std::uint64_t erase_count) {
  return draw(wear_ramped(cfg_.program_fail, erase_count));
}

bool FaultModel::erase_fails(std::uint64_t erase_count) {
  return draw(wear_ramped(cfg_.erase_fail, erase_count));
}

std::uint32_t FaultModel::read_retries() {
  if (cfg_.read_fail <= 0.0) return 0;
  std::uint32_t n = 0;
  while (n < cfg_.max_read_retries && rng_.chance(cfg_.read_fail)) ++n;
  return n;
}

double FaultModel::page_ber(std::uint64_t retention_ops,
                            std::uint64_t block_reads,
                            std::uint64_t erase_count) const {
  double lambda = cfg_.ber_base;
  lambda += cfg_.ber_retention * (static_cast<double>(retention_ops) / 1000.0);
  lambda += cfg_.ber_read_disturb * (static_cast<double>(block_reads) / 100.0);
  if (cfg_.ber_wear > 0.0 && erase_count > cfg_.wear_onset) {
    lambda += cfg_.ber_wear * static_cast<double>(erase_count - cfg_.wear_onset);
  }
  return lambda;
}

std::uint32_t FaultModel::raw_bit_errors(double lambda) {
  // Same inertness rule as draw(): a zero-intensity sensing consumes no RNG
  // state, so pages with no error exposure cannot shift later draws.
  if (lambda <= 0.0) return 0;
  // Poisson by CDF inversion — one uniform per sensing keeps the stream's
  // consumption independent of lambda, which is what makes seeded runs with
  // different scrub/parity policies comparable draw-for-draw.
  const double u = ber_rng_.uniform();
  double p = std::exp(-lambda);
  // A lambda big enough to underflow exp(-lambda) saturates every sensing.
  if (p <= 0.0) return cfg_.ber_cap;
  double cdf = p;
  std::uint32_t k = 0;
  while (u > cdf && k < cfg_.ber_cap) {
    ++k;
    p *= lambda / static_cast<double>(k);
    cdf += p;
  }
  return k;
}

void FaultModel::init_slow(std::uint64_t total_dies) {
  if (!cfg_.slow_enabled() || total_dies == 0) return;
  slow_.assign(static_cast<std::size_t>(total_dies), DieSlowState{});
  // The afflicted set is a contiguous window of `slow_dies` dies at a seeded
  // rotation of the die index space: exact count, deterministic in the seed,
  // and independent of query order.
  std::uint64_t h = cfg_.seed ^ 0x51C4D1E5u;
  slow_rotation_ = splitmix64(h) % total_dies;
}

bool FaultModel::slow_die(std::uint64_t die) const {
  if (slow_.empty()) return false;
  const std::uint64_t total = slow_.size();
  const std::uint64_t pos = (die + total - slow_rotation_ % total) % total;
  return pos < std::min<std::uint64_t>(cfg_.slow_dies, total);
}

void FaultModel::advance_slow(DieSlowState& die, std::uint64_t die_index,
                              std::uint64_t clock) {
  if (!die.init) {
    // Die-keyed stream: two models with the same config agree on every die's
    // schedule no matter which dies are queried first, and the op/BER
    // streams are never touched.
    std::uint64_t h = cfg_.seed ^ 0xFA11510Bu ^ die_index;
    die.rng = Rng(splitmix64(h));
    die.sick = false;
    die.next_edge = 0;
    die.init = true;
  }
  while (clock >= die.next_edge) {
    die.sick = !die.sick;
    const std::uint64_t mean =
        die.sick ? cfg_.slow_episode_ops
                 : std::max<std::uint64_t>(1, cfg_.slow_gap_ops);
    // Exponential interval lengths, minimum one op so the schedule advances.
    const double u = std::max(1e-12, die.rng.uniform());
    const auto len = static_cast<std::uint64_t>(
        std::max(1.0, -std::log(u) * static_cast<double>(mean)));
    die.next_edge += len;
  }
}

bool FaultModel::die_sick(std::uint64_t die, std::uint64_t clock) {
  if (!slow_die(die)) return false;
  AF_CHECK(die < slow_.size());
  DieSlowState& state = slow_[static_cast<std::size_t>(die)];
  advance_slow(state, die, clock);
  return state.sick;
}

double FaultModel::slow_factor(std::uint64_t die, std::uint64_t clock) {
  return die_sick(die, clock) ? cfg_.slow_multiplier : 1.0;
}

}  // namespace af::nand
