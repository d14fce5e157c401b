#include "trace/replayer.h"

#include <memory>

#include "common/rng.h"
#include "ftl/request.h"
#include "nand/power.h"
#include "sim/pipeline.h"
#include "sim/ssd.h"

namespace af::trace {

namespace {

ReplayResult snapshot_result(sim::Ssd& ssd) {
  ReplayResult result;
  result.scheme = ssd.scheme().name();
  result.stats = ssd.stats();
  result.gc_runs = ssd.engine().gc_runs();
  result.map_bytes = ssd.scheme().map_bytes();
  if (const auto* dir = ssd.engine().map_directory()) {
    result.map_cache_hits = dir->hits();
    result.map_cache_misses = dir->misses();
  }
  result.used_fraction = ssd.engine().array().used_fraction();
  result.io_time_s = result.stats.total_io_time_ns() / 1e9;
  result.wear = ssd.engine().array().wear();
  result.gc_perf = ssd.engine().gc_perf();
  return result;
}

}  // namespace

ReplayResult replay(const ssd::SsdConfig& config, ftl::SchemeKind kind,
                    const Trace& trace, const ReplayOptions& options) {
  sim::Ssd ssd(config, kind);
  if (options.age) {
    ssd.age(options.age_used, options.age_live, options.age_seed);
    ssd.reset_measurement();
  }

  std::uint64_t lost_requests = 0;
  for (const auto& rec : trace) {
    ftl::IoRequest req{rec.timestamp, rec.write, rec.range(), rec.trim, rec.tenant};
    // Rejected writes (read-only degradation under fault injection) are
    // accounted in stats().faults().rejected_writes, which the benches
    // report; the replay itself carries on serving reads.
    if (ssd.submit(req).data_lost) ++lost_requests;
  }
  // Writes still parked by a dry token bucket enter the device now — the
  // trace ended, so no later arrival will advance simulated time for them.
  ssd.drain_admission();
  ssd.snapshot_map_footprint();
  ReplayResult result = snapshot_result(ssd);
  result.lost_requests = lost_requests;
  return result;
}

PipelineReplayResult replay_pipeline(const ssd::SsdConfig& config,
                                     ftl::SchemeKind kind, const Trace& trace,
                                     const ReplayOptions& options) {
  sim::SsdPipeline pipeline(config, kind);
  if (options.age) {
    pipeline.age(options.age_used, options.age_live, options.age_seed);
    pipeline.reset_measurement();
  }
  for (const auto& rec : trace) {
    pipeline.submit({rec.timestamp, rec.write, rec.range(), rec.trim, rec.tenant});
  }
  pipeline.drain();
  pipeline.device().snapshot_map_footprint();

  PipelineReplayResult out;
  out.result = snapshot_result(pipeline.device());
  out.result.lost_requests = pipeline.lost_requests();
  out.queue_depth = pipeline.queue_depth();
  out.verified_sectors = pipeline.verified_sectors();
  out.makespan_ns = pipeline.makespan_ns();
  out.requests = pipeline.submitted();
  out.open_loop = config.pipeline.open_loop;
  for (const auto& rec : pipeline.records()) {
    if (!rec.executed) continue;
    out.queue_delay.record(rec.queue_delay, 1);
    out.service.record(rec.done - rec.submitted, 1);
  }
  return out;
}

CrashReplayResult replay_with_power_cut(const ssd::SsdConfig& config,
                                        ftl::SchemeKind kind,
                                        const Trace& trace,
                                        const PowerCutSpec& spec,
                                        const ReplayOptions& options) {
  AF_CHECK_MSG(config.track_payload,
               "crash replay needs payload tracking for the oracle sweep");

  PowerCutSpec resolved = spec;
  if (resolved.at_op == 0) {
    // Dry run with a disarmed plan to measure the op horizon, then sample
    // the cut point from the seed — same seed, same killed op, always.
    sim::Ssd probe(config, kind);
    if (options.age) {
      probe.age(options.age_used, options.age_live, options.age_seed);
      probe.reset_measurement();
    }
    probe.engine().array().arm_power_cut(nand::PowerCutPlan{});
    for (const auto& rec : trace) {
      (void)probe.submit({rec.timestamp, rec.write, rec.range(), rec.trim, rec.tenant});
    }
    const std::uint64_t horizon = probe.engine().array().ops_since_arm();
    AF_CHECK_MSG(horizon > 0, "trace issued no flash ops to cut");
    resolved.at_op = 1 + Rng(resolved.seed).below(horizon);
  }

  auto device = std::make_unique<sim::Ssd>(config, kind);
  if (options.age) {
    device->age(options.age_used, options.age_live, options.age_seed);
    device->reset_measurement();
  }
  device->engine().array().arm_power_cut(
      nand::PowerCutPlan{resolved.at_op, resolved.seed});

  CrashReplayResult out;
  out.cut_at_op = resolved.at_op;

  std::size_t resume_from = trace.size();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceRecord& rec = trace[i];
    try {
      // Trims need no in-flight tolerance: the tombstone is durable before
      // the first flash op a trim can issue, so a cut mid-trim always
      // recovers with the unmap in force — matching the already-zeroed
      // shadow.
      (void)device->submit({rec.timestamp, rec.write, rec.range(), rec.trim, rec.tenant});
    } catch (const nand::PowerLoss& loss) {
      AF_CHECK(loss.op_index == resolved.at_op);
      out.crashed = true;
      out.crash_event = i;
      resume_from = i;  // host-style retry of the unacknowledged request
      break;
    }
  }
  out.total_ops = device->engine().array().ops_since_arm();

  if (!out.crashed) {
    // Cut point beyond the horizon: an ordinary complete replay.
    device->snapshot_map_footprint();
    out.result = snapshot_result(*device);
    out.verified_sectors = device->verified_sectors();
    return out;
  }

  // Power is gone: only the flash image survives into the next incarnation,
  // which must read back every acknowledged write.
  sim::Ssd::Remount remounted = sim::Ssd::remount(*device);
  device.reset();
  out.recovery = remounted.report;
  out.verified_sectors = remounted.verified_sectors;
  sim::Ssd& mounted = *remounted.device;

  // Finish the trace on the recovered device, re-submitting the interrupted
  // request first; stats measure the continuation only.
  mounted.reset_measurement();
  for (std::size_t i = resume_from; i < trace.size(); ++i) {
    const TraceRecord& rec = trace[i];
    (void)mounted.submit({rec.timestamp, rec.write, rec.range(), rec.trim, rec.tenant});
  }
  mounted.snapshot_map_footprint();
  out.result = snapshot_result(mounted);
  return out;
}

}  // namespace af::trace
