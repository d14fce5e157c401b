// FaultModel contract tests: seeded determinism (the property every
// reproducible fault bench rests on), zero-rate inertness, the wear ramp,
// and read-retry bounding.
#include "nand/faults.h"

#include <gtest/gtest.h>

#include <vector>

namespace af::nand {
namespace {

FaultConfig lossy(std::uint64_t seed) {
  FaultConfig cfg;
  cfg.program_fail = 0.3;
  cfg.erase_fail = 0.2;
  cfg.read_fail = 0.4;
  cfg.seed = seed;
  return cfg;
}

/// Drives a fixed interleaved query sequence and records every answer.
std::vector<std::uint64_t> schedule_of(FaultModel& model) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 500; ++i) {
    out.push_back(model.program_fails(i % 7) ? 1 : 0);
    out.push_back(model.erase_fails(i % 5) ? 1 : 0);
    out.push_back(model.read_retries());
  }
  return out;
}

TEST(FaultModel, SameSeedSameSchedule) {
  FaultModel a(lossy(123));
  FaultModel b(lossy(123));
  EXPECT_EQ(schedule_of(a), schedule_of(b));
}

TEST(FaultModel, DifferentSeedDifferentSchedule) {
  FaultModel a(lossy(123));
  FaultModel b(lossy(124));
  EXPECT_NE(schedule_of(a), schedule_of(b));
}

TEST(FaultModel, ZeroRatesNeverFail) {
  FaultModel model{FaultConfig{}};
  EXPECT_FALSE(model.enabled());
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_FALSE(model.program_fails(i));
    EXPECT_FALSE(model.erase_fails(i));
    EXPECT_EQ(model.read_retries(), 0u);
  }
}

TEST(FaultModel, DisabledClassDoesNotPerturbEnabledOne) {
  // Querying a zero-rate class must not consume RNG state: the program-fault
  // schedule is identical whether or not erase checks are interleaved.
  FaultConfig cfg;
  cfg.program_fail = 0.5;
  cfg.seed = 9;
  FaultModel plain(cfg);
  FaultModel interleaved(cfg);
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(interleaved.erase_fails(3));   // erase_fail == 0: no draw
    EXPECT_EQ(interleaved.read_retries(), 0u);  // read_fail == 0: no draw
    EXPECT_EQ(plain.program_fails(0), interleaved.program_fails(0));
  }
}

TEST(FaultModel, WearRampRaisesProbability) {
  FaultConfig cfg;
  cfg.program_fail = 0.001;
  cfg.wear_slope = 0.01;
  cfg.wear_onset = 100;
  FaultModel model(cfg);
  EXPECT_DOUBLE_EQ(model.wear_ramped(cfg.program_fail, 0), 0.001);
  EXPECT_DOUBLE_EQ(model.wear_ramped(cfg.program_fail, 100), 0.001);
  EXPECT_DOUBLE_EQ(model.wear_ramped(cfg.program_fail, 150), 0.001 + 0.5);
  // Clamped at certainty for very old blocks.
  EXPECT_DOUBLE_EQ(model.wear_ramped(cfg.program_fail, 1000000), 1.0);
}

TEST(FaultModel, WornBlocksFailMoreOften) {
  FaultConfig cfg;
  cfg.program_fail = 0.01;
  cfg.wear_slope = 0.002;
  cfg.wear_onset = 50;
  cfg.seed = 77;
  FaultModel model(cfg);
  int young_fails = 0, old_fails = 0;
  for (int i = 0; i < 4000; ++i) {
    if (model.program_fails(0)) ++young_fails;
    if (model.program_fails(400)) ++old_fails;
  }
  EXPECT_GT(old_fails, young_fails * 10);
}

TEST(FaultModel, PageBerComposesHistoryTerms) {
  FaultConfig cfg;
  cfg.ber_base = 0.5;
  cfg.ber_retention = 0.2;      // per 1000 retention ops
  cfg.ber_read_disturb = 0.1;   // per 100 block reads
  cfg.ber_wear = 0.01;          // per erase beyond wear_onset
  cfg.wear_onset = 10;
  FaultModel model(cfg);
  EXPECT_DOUBLE_EQ(model.page_ber(0, 0, 0), 0.5);
  EXPECT_DOUBLE_EQ(model.page_ber(5000, 0, 0), 0.5 + 1.0);
  EXPECT_DOUBLE_EQ(model.page_ber(0, 300, 0), 0.5 + 0.3);
  EXPECT_DOUBLE_EQ(model.page_ber(0, 0, 10), 0.5);   // at onset: no wear term
  EXPECT_DOUBLE_EQ(model.page_ber(0, 0, 60), 0.5 + 0.5);
  // Terms add independently.
  EXPECT_DOUBLE_EQ(model.page_ber(5000, 300, 60), 0.5 + 1.0 + 0.3 + 0.5);
}

TEST(FaultModel, BerDrawsAreSeededAndCapped) {
  FaultConfig cfg;
  cfg.ber_base = 3.0;
  cfg.ber_cap = 5;
  cfg.seed = 42;
  FaultModel a(cfg);
  FaultModel b(cfg);
  bool nonzero = false;
  for (int i = 0; i < 500; ++i) {
    const std::uint32_t ea = a.raw_bit_errors(3.0);
    EXPECT_EQ(ea, b.raw_bit_errors(3.0));
    EXPECT_LE(ea, 5u);
    nonzero |= ea > 0;
  }
  EXPECT_TRUE(nonzero);
  // A saturated intensity (exp(-lambda) underflows) pins at the cap rather
  // than spinning the inversion loop.
  EXPECT_EQ(a.raw_bit_errors(1e9), 5u);
}

TEST(FaultModel, ZeroIntensityDrawsNothing) {
  // lambda == 0 must not consume BER-stream state: interleaving zero draws
  // leaves the nonzero schedule bit-identical.
  FaultConfig cfg;
  cfg.ber_base = 2.0;
  cfg.seed = 7;
  FaultModel plain(cfg);
  FaultModel interleaved(cfg);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(interleaved.raw_bit_errors(0.0), 0u);
    EXPECT_EQ(plain.raw_bit_errors(2.0), interleaved.raw_bit_errors(2.0));
  }
}

TEST(FaultModel, BerStreamIndependentOfTransientStream) {
  // Enabling bit errors must not shift the transient op-failure schedule:
  // the two families draw from independent RNG streams.
  FaultConfig transient_only = lossy(31);
  FaultConfig both = lossy(31);
  both.ber_base = 4.0;
  FaultModel a(transient_only);
  FaultModel b(both);
  for (std::uint64_t i = 0; i < 200; ++i) {
    (void)b.raw_bit_errors(4.0);  // consume the BER stream between queries
    EXPECT_EQ(a.program_fails(i % 7), b.program_fails(i % 7));
    EXPECT_EQ(a.erase_fails(i % 5), b.erase_fails(i % 5));
    EXPECT_EQ(a.read_retries(), b.read_retries());
  }
}

TEST(FaultModel, HigherIntensityMeansMoreErrors) {
  FaultConfig cfg;
  cfg.ber_base = 1.0;
  cfg.seed = 11;
  FaultModel model(cfg);
  std::uint64_t low = 0, high = 0;
  for (int i = 0; i < 2000; ++i) {
    low += model.raw_bit_errors(0.5);
    high += model.raw_bit_errors(8.0);
  }
  EXPECT_GT(high, low * 4);
}

TEST(FaultModel, ReadRetriesBounded) {
  FaultConfig cfg;
  cfg.read_fail = 0.99;
  cfg.max_read_retries = 3;
  cfg.seed = 5;
  FaultModel model(cfg);
  bool saw_cap = false;
  for (int i = 0; i < 300; ++i) {
    const std::uint32_t r = model.read_retries();
    EXPECT_LE(r, 3u);
    saw_cap |= (r == 3u);
  }
  EXPECT_TRUE(saw_cap);
}

}  // namespace
}  // namespace af::nand
