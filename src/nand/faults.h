// Deterministic NAND fault injection.
//
// Real flash fails: programs tear pages, erases brick blocks, reads need
// retry as cells age. The FaultModel decides — reproducibly, from a seed —
// whether each physical operation succeeds, so the recovery machinery above
// it (retry-with-reallocation, bad-block retirement, read-retry, read-only
// degradation) can be exercised and measured. With all rates at zero the
// model never draws from its RNG and the simulator is bit-for-bit identical
// to a fault-free build.
//
// Two independent failure families live here:
//  - transient op failures (program/erase/read_fail + wear ramp), drawn from
//    the primary RNG stream — bounded retries always recover these;
//  - latent raw bit errors (ber_* rates), drawn from a second, independent
//    RNG stream so enabling one family never perturbs the other's schedule.
//    Bit errors grow with retention (op-count clock since program),
//    read disturb (block reads since erase) and wear (block erase count);
//    whether they are correctable is the ECC layer's decision (ssd::Engine),
//    not this one's — past the ECC ladder a read is *uncorrectable* and the
//    data is gone unless parity can rebuild it.
//
// This layer is policy-free: it only answers "does this op fail?" and "how
// many raw bit errors does this sensing see?". The FlashArray applies the
// state consequences (torn page, retired block, per-page error history); the
// engine owns recovery and timing.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace af::nand {

/// Per-operation fault probabilities plus an optional wear-dependent ramp.
/// All rates default to zero (faults disabled).
struct FaultConfig {
  /// Probability a page program fails, leaving a torn (unreadable) page.
  double program_fail = 0.0;
  /// Probability a block erase fails; a failed erase retires the block.
  double erase_fail = 0.0;
  /// Probability a single read attempt needs a retry (transient; bounded
  /// retries always recover the data). Persistent cell damage is the bit
  /// error model's job (`ber_*` below), which *can* lose data once the ECC
  /// ladder above it is exhausted.
  double read_fail = 0.0;

  /// Wear ramp: once a block's erase count exceeds `wear_onset`, program and
  /// erase fault probabilities grow by `wear_slope` per additional erase
  /// (clamped to 1.0). Models grown bad blocks on aged devices.
  double wear_slope = 0.0;
  std::uint64_t wear_onset = 0;

  /// Cap on read retries drawn for one page read.
  std::uint32_t max_read_retries = 4;
  /// Cap on program-with-reallocation attempts for one logical program.
  static constexpr std::uint32_t kMaxProgramRetries = 8;

  // --- Latent bit-error model (data-integrity subsystem, DESIGN.md §8) ----
  // Expected raw bit errors per sensing of a page, as a Poisson intensity
  // composed from the page's history. All-zero (the default) keeps the model
  // inert: no per-page draws, counters bit-identical to a BER-free build.

  /// Baseline expected raw bit errors of a fresh, unread, unworn page.
  double ber_base = 0.0;
  /// Added expected bit errors per 1000 physical ops of retention — the
  /// op-count clock since the page was programmed (the simulator's proxy
  /// for elapsed time).
  double ber_retention = 0.0;
  /// Added expected bit errors per 100 reads of the page's block since its
  /// last erase (read disturb).
  double ber_read_disturb = 0.0;
  /// Added expected bit errors per block erase beyond `wear_onset` (wear
  /// shares the transient ramp's onset so "aged" means one thing).
  double ber_wear = 0.0;
  /// Cap on raw bit errors drawn for a single sensing attempt.
  std::uint32_t ber_cap = 64;

  // --- Fail-slow model (tail-latency subsystem, DESIGN.md §11) -------------
  // Dies that are not broken, merely slow: transient "sick die" episodes
  // multiply cell-op latencies for a bounded op-count window. The schedule
  // is drawn from a third, independent RNG stream keyed per die, so
  // zero-config runs stay bit-identical and enabling fail-slow never
  // perturbs the op- or bit-error-fault schedules.

  /// Latency multiplier applied to cell time (sense/program/erase, not the
  /// channel transfer) while a die is inside a sick episode. Values > 1.0
  /// together with `slow_episode_ops` > 0 arm the transient model.
  double slow_multiplier = 1.0;
  /// Mean sick-episode length, in flash ops of the global op clock.
  std::uint64_t slow_episode_ops = 0;
  /// Mean healthy gap between episodes of one afflicted die, in flash ops.
  std::uint64_t slow_gap_ops = 0;
  /// Number of afflicted dies (chosen deterministically from the seed).
  std::uint32_t slow_dies = 1;

  std::uint64_t seed = 0x5EEDFA17u;

  [[nodiscard]] bool ber_enabled() const {
    return ber_base > 0.0 || ber_retention > 0.0 || ber_read_disturb > 0.0 ||
           ber_wear > 0.0;
  }

  [[nodiscard]] bool slow_enabled() const {
    return slow_multiplier > 1.0 && slow_episode_ops > 0 && slow_dies > 0;
  }

  [[nodiscard]] bool enabled() const {
    return program_fail > 0.0 || erase_fail > 0.0 || read_fail > 0.0 ||
           wear_slope > 0.0 || ber_enabled() || slow_enabled();
  }
};

/// Seeded fault schedule. Two models built from the same config answer an
/// identical query sequence identically (the determinism contract benches
/// and tests rely on). Draws happen only when the effective probability is
/// nonzero, so disabled fault classes cost nothing and perturb nothing.
class FaultModel {
 public:
  explicit FaultModel(const FaultConfig& config);

  [[nodiscard]] const FaultConfig& config() const { return cfg_; }
  [[nodiscard]] bool enabled() const { return cfg_.enabled(); }

  /// Does programming a page of a block with this erase count fail?
  [[nodiscard]] bool program_fails(std::uint64_t erase_count);

  /// Does erasing a block with this erase count fail (retiring it)?
  [[nodiscard]] bool erase_fails(std::uint64_t erase_count);

  /// Number of extra read attempts (0 = clean first read). Each attempt
  /// fails independently with `read_fail`; capped at `max_read_retries`,
  /// after which the read is deemed recovered.
  std::uint32_t read_retries();

  /// Effective probability after the wear ramp, clamped to [0, 1]. Exposed
  /// for tests and for benches that want to report the ramp they configured.
  [[nodiscard]] double wear_ramped(double base, std::uint64_t erase_count) const;

  // --- Latent bit errors ----------------------------------------------------

  /// Expected raw bit errors (Poisson intensity) for one sensing of a page
  /// with this history. Pure — no RNG state is consumed.
  [[nodiscard]] double page_ber(std::uint64_t retention_ops,
                                std::uint64_t block_reads,
                                std::uint64_t erase_count) const;

  /// Draws the raw bit-error count of one sensing at intensity `lambda`
  /// (Poisson by inversion, capped at `ber_cap`). Zero intensity draws
  /// nothing, so a BER-free run never touches this stream either.
  [[nodiscard]] std::uint32_t raw_bit_errors(double lambda);

  // --- Fail-slow ------------------------------------------------------------

  /// Lays out the per-die episode schedules. Called once by the FlashArray
  /// when the slow model is armed; a no-op (and never called) otherwise.
  void init_slow(std::uint64_t total_dies);

  /// Is this die one of the `slow_dies` afflicted dies? Pure in (config,
  /// die) — the afflicted set is a seeded rotation of the die index space.
  [[nodiscard]] bool slow_die(std::uint64_t die) const;

  /// Is the die inside a sick episode at this op-clock instant? Queries must
  /// be per-die monotonic in `clock` (the global op clock is), because the
  /// episode schedule advances lazily. Pure in (config, die, clock).
  [[nodiscard]] bool die_sick(std::uint64_t die, std::uint64_t clock);

  /// Latency multiplier (>= 1.0) for a cell op on `die` at `clock`: the
  /// episode multiplier inside a sick episode, 1.0 when the model is off or
  /// the die is healthy; consumes no RNG from the op/BER streams.
  [[nodiscard]] double slow_factor(std::uint64_t die, std::uint64_t clock);

 private:
  [[nodiscard]] bool draw(double p);

  /// Alternating healthy-gap / sick-episode schedule of one afflicted die,
  /// generated lazily along the op-clock axis from a die-keyed stream.
  struct DieSlowState {
    Rng rng{0};
    std::uint64_t next_edge = 0;  // clock at which `sick` flips
    bool sick = false;
    bool init = false;
  };

  void advance_slow(DieSlowState& die, std::uint64_t die_index,
                    std::uint64_t clock);

  FaultConfig cfg_;
  Rng rng_;
  /// Dedicated stream for bit-error draws: the op-failure schedule above is
  /// bit-identical whether or not the BER model is on, and vice versa.
  Rng ber_rng_;
  /// Per-die fail-slow schedules; empty unless init_slow() armed the model.
  std::vector<DieSlowState> slow_;
  std::uint64_t slow_rotation_ = 0;  // seeded offset of the afflicted window
};

}  // namespace af::nand
