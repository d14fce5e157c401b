#include "workloads.h"

#include <cstdio>
#include <cstdlib>

#include "trace/mixer.h"
#include "trace/profiles.h"
#include "trace/synth.h"

namespace af::benchmark {

namespace {

// Table-2 rows used below (trace::table2_targets() order).
constexpr std::size_t kLun1 = 0;
constexpr std::size_t kLun2 = 1;
constexpr std::size_t kLun6 = 5;

// 32 blocks/plane = 512 MiB; 256 = 4 GiB (paper() geometry, 8 KiB pages).
constexpr std::uint32_t kSmallBlocks = 32;
constexpr std::uint32_t kBigBlocks = 256;

ssd::SsdConfig device(std::uint32_t blocks_per_plane) {
  auto config = ssd::SsdConfig::paper(8, blocks_per_plane);
  config.track_payload = true;
  return config;
}

/// Sector span of the aged live region; the span bench/ uses too.
std::uint64_t addressable_sectors(const ssd::SsdConfig& config) {
  return static_cast<std::uint64_t>(
             kLiveFraction *
             static_cast<double>(config.geometry.total_pages())) *
         config.geometry.sectors_per_page();
}

std::uint64_t scaled(std::uint64_t requests, double scale) {
  return static_cast<std::uint64_t>(static_cast<double>(requests) * scale);
}

/// Each seeded input of a part draws from its own stream of the part seed.
std::uint64_t sub_seed(std::uint64_t part_seed, std::uint64_t stream) {
  return part_seed * 10 + stream;
}

trace::Trace synth(trace::SynthProfile profile, std::uint64_t seed,
                   std::uint64_t span) {
  profile.seed = sub_seed(seed, 1);
  return trace::generate(profile, span);
}

/// Read-mostly, moderately loaded lun1 variant: the regime deadline
/// scheduling and the QoS victim both target (perf_replay's tail trace).
trace::SynthProfile read_mostly(std::uint64_t n) {
  auto profile = trace::lun_profile(kLun1, n);
  profile.write_ratio = 0.20;
  profile.mean_iat_ns = 3'000'000;
  return profile;
}

/// Victim: 40% of the requests at a 3 ms mean gap over half the live span.
/// Noisy neighbor: the other 60%, write-flooding a hot 8% at the gap that
/// makes both tenants span the same simulated interval.
trace::Trace noisy(std::uint64_t n, std::uint64_t seed, std::uint64_t span) {
  const std::uint64_t victim_n = n * 2 / 5;
  auto victim = read_mostly(victim_n);
  victim.footprint_fraction = 0.5;
  victim.seed = sub_seed(seed, 1);
  auto flood = trace::lun_profile(kLun2, n - victim_n);
  flood.write_ratio = 0.90;
  flood.mean_iat_ns = victim.mean_iat_ns * victim_n / (n - victim_n);
  flood.footprint_fraction = 0.08;
  flood.zipf_theta = 1.1;
  flood.seed = sub_seed(seed, 2);
  trace::MixerOptions mix;
  mix.seed = sub_seed(seed, 3);
  return trace::mix(
      {trace::generate(victim, span), trace::generate(flood, span)}, mix);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"vdi", "bigmap", "qd16",
                                                  "failslow", "noisy"};
  return kNames;
}

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "vdi") {
    w.config = device(kSmallBlocks);
    w.requests = 2'500'000;
    w.generate = [](std::uint64_t n, std::uint64_t s, std::uint64_t span) {
      return synth(trace::lun_profile(kLun1, n), s, span);
    };
  } else if (name == "bigmap") {
    w.config = device(kBigBlocks);
    // A 1/16 CMT makes translation the bottleneck: most lookups miss and
    // cost a flash map read before the data read (the "double read").
    w.config.map_cache_bytes /= 16;
    // A 4 GiB device takes about one device-write of traffic for GC to
    // settle; without the warm-up, WAF climbs 28% between measured halves.
    w.warmup_requests = 1'000'000;
    w.requests = 2'000'000;
    w.generate = [](std::uint64_t n, std::uint64_t s, std::uint64_t span) {
      return synth(trace::lun_profile(kLun6, n), s, span);
    };
  } else if (name == "qd16") {
    w.config = device(kSmallBlocks);
    w.config.pipeline.queue_depth = 16;
    w.config.pipeline.workers = 2;  // + the submitting thread = 3 threads
    w.pipelined = true;
    // Without it, read p50 rises up to 27% between the measured halves.
    w.warmup_requests = 500'000;
    w.requests = 350'000;
    // Read-heavy lun6: under lun1's 61.5% writes the QD16 write median
    // falls in the gap between GC-free and GC-delayed writes and jumps
    // 10.6 <-> 14.9 ms from seed to seed.
    w.generate = [](std::uint64_t n, std::uint64_t s, std::uint64_t span) {
      return synth(trace::lun_profile(kLun6, n), s, span);
    };
  } else if (name == "failslow") {
    w.config = device(kSmallBlocks);
    w.config.integrity.parity_stripe_width = 8;
    // Chip-rotating placement (the serial path reads the pipeline config
    // for placement only): hedge peers must live on other chips.
    w.config.pipeline.queue_depth = 2;
    // Which dies are sick is a property of the device under test, so the
    // fault seed stays fixed while --seed varies the requests. At x20 half
    // the reads queue behind sick dies and the read median flips between
    // 0.12 and 0.21 ms from seed to seed; x10 keeps it at the healthy
    // service time and leaves the tail to the deadline machinery.
    w.config.faults.slow_multiplier = 10.0;
    w.config.faults.slow_episode_ops = 600;
    w.config.faults.slow_gap_ops = 1200;
    w.config.faults.slow_dies = 2;
    w.config.deadline.read_deadline_us = 5000;
    w.config.deadline.preempt = true;
    w.config.deadline.hedge_after_us = 5000;
    w.config.deadline.max_retries = 2;
    w.config.deadline.quarantine_misses = 40;
    w.requests = 3'000'000;
    w.generate = [](std::uint64_t n, std::uint64_t s, std::uint64_t span) {
      return synth(read_mostly(n), s, span);
    };
  } else if (name == "noisy") {
    w.config = device(kSmallBlocks);
    w.config.qos.tenants = 2;
    w.config.qos.per_tenant_streams = true;
    w.config.qos.rate_sectors_per_s = 3000;
    // Deep enough to absorb the GC-debt surcharge of a relocation burst:
    // at 2000 the victim's write p999 is a handful of surcharge stalls and
    // varies 235-620 ms from seed to seed.
    w.config.qos.burst_sectors = 8000;
    w.config.qos.gc_debt_sectors_per_page = 16;
    w.config.qos.capacity_share_millis = 600;
    w.config.capacity.throttle_window_blocks = 2;
    w.config.capacity.throttle_ns_per_block = 200'000;
    w.age_used = 0.85;
    w.measured_tenant = 0;
    // Without it, the first 50 simulated seconds of GC ramp-up hold most
    // of the victim's read tail.
    w.warmup_requests = 500'000;
    w.requests = 2'000'000;
    w.generate = noisy;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    std::exit(2);
  }
  return w;
}

PartInput make_input(const Workload& w, std::uint64_t seed, std::uint32_t part,
                     double scale) {
  const std::uint64_t measured = scaled(w.requests, scale);
  if (measured < 1000) {
    std::fprintf(stderr, "--scale %g leaves too few measured requests\n",
                 scale);
    std::exit(2);
  }
  const std::uint64_t part_seed = seed * 100 + part;
  PartInput in;
  in.warmup = scaled(w.warmup_requests, scale);
  in.records = w.generate(in.warmup + measured, part_seed,
                          addressable_sectors(w.config));
  in.age_seed = sub_seed(part_seed, 9);
  return in;
}

}  // namespace af::benchmark
