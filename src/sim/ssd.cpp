#include "sim/ssd.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/log.h"
#include "common/rng.h"

namespace af::sim {

class Ssd::OracleStamps final : public ftl::StampProvider {
 public:
  explicit OracleStamps(const ssd::Oracle& oracle) : oracle_(oracle) {}
  [[nodiscard]] std::uint64_t stamp_of(SectorAddr sector) const override {
    return oracle_.expected(sector);
  }

 private:
  const ssd::Oracle& oracle_;
};

Ssd::Ssd(std::unique_ptr<ssd::Engine> engine, ftl::SchemeKind kind,
         const ssd::Oracle* oracle_seed)
    : engine_(std::move(engine)), kind_(kind) {
  scheme_ = ftl::make_scheme(kind, *engine_);
  const ssd::SsdConfig::QosPolicy& qos = engine_->config().qos;
  if (qos.bucket_enabled()) {
    buckets_.assign(qos.tenants,
                    TenantBucket{static_cast<double>(qos.burst_sectors), 0});
  }
  if (engine_->config().track_payload) {
    // A mount continues the pre-crash stamp sequence (the adopted flash
    // image still carries the old stamps); a fresh device starts at 1.
    oracle_ = oracle_seed ? std::make_unique<ssd::Oracle>(*oracle_seed)
                          : std::make_unique<ssd::Oracle>(
                                engine_->config().logical_sectors());
    stamp_provider_ = std::make_unique<OracleStamps>(*oracle_);
    scheme_->set_stamp_provider(stamp_provider_.get());
  }
}

Ssd::Ssd(const ssd::SsdConfig& config, ftl::SchemeKind kind)
    : Ssd(std::make_unique<ssd::Engine>(config), kind, nullptr) {
  attach_checkpointer();
  attach_scrubber();
}

void Ssd::attach_checkpointer() {
  if (engine_->config().checkpoint.enabled()) {
    checkpointer_ = std::make_unique<ssd::Checkpointer>(
        *engine_, *scheme_, engine_->config().checkpoint);
  }
}

void Ssd::attach_scrubber() {
  if (engine_->config().integrity.scrub_enabled()) {
    scrubber_ = std::make_unique<ssd::ScrubScheduler>(
        *engine_, engine_->config().integrity);
  }
}

std::unique_ptr<Ssd> Ssd::mount(const ssd::SsdConfig& config,
                                ftl::SchemeKind kind, nand::FlashArray image,
                                const ssd::Oracle* oracle_seed,
                                ssd::RecoveryReport* report) {
  image.disarm_power_cut();  // the new incarnation starts with clean power
  auto device = std::unique_ptr<Ssd>(new Ssd(
      std::make_unique<ssd::Engine>(config, std::move(image)), kind,
      oracle_seed));
  const ssd::RecoveryReport rep =
      ssd::Recovery::mount(*device->engine_, *device->scheme_);
  if (report != nullptr) *report = rep;
  // Journaling re-attaches only now: claim replay must not dirty the tables.
  device->attach_checkpointer();
  device->attach_scrubber();
  return device;
}

Ssd::Remount Ssd::remount(Ssd& crashed) {
  AF_CHECK_MSG(crashed.oracle_ != nullptr,
               "remount needs payload tracking for the oracle sweep");
  const std::uint64_t cut_op = crashed.engine_->array().ops_since_arm();
  Remount out;
  out.device = mount(crashed.config(), crashed.kind_, crashed.release_flash(),
                     crashed.oracle_.get(), &out.report);
  Ssd& mounted = *out.device;

  const SectorRange inflight = crashed.inflight_;
  const std::vector<std::uint64_t>& pre_stamps = crashed.inflight_pre_stamps_;
  const std::uint32_t spp = mounted.scheme_->page_geometry().sectors_per_page;
  const std::uint64_t logical_sectors = mounted.config().logical_sectors();
  for (SectorAddr base = 0; base < logical_sectors; base += spp) {
    const SectorRange r = SectorRange::of(
        base, std::min<std::uint64_t>(spp, logical_sectors - base));
    ftl::ReadPlan plan;
    (void)mounted.scheme_->read({0, /*write=*/false, r}, 0, &plan);
    AF_CHECK_MSG(plan.observed.size() == r.size(),
                 "recovery sweep read did not cover its range");
    for (const auto& obs : plan.observed) {
      ++out.verified_sectors;
      const std::uint64_t expected = mounted.oracle_->expected(obs.sector);
      if (obs.stamp == expected) continue;
      const bool tolerated =
          inflight.contains(obs.sector) &&
          obs.stamp == pre_stamps[obs.sector - inflight.begin];
      if (!tolerated) {
        std::fprintf(stderr,
                     "recovery sweep: sector %llu stamp %llu expected %llu "
                     "(inflight [%llu,%llu) cut_at_op %llu)\n",
                     static_cast<unsigned long long>(obs.sector),
                     static_cast<unsigned long long>(obs.stamp),
                     static_cast<unsigned long long>(expected),
                     static_cast<unsigned long long>(inflight.begin),
                     static_cast<unsigned long long>(inflight.end),
                     static_cast<unsigned long long>(cut_op));
      }
      AF_CHECK_MSG(tolerated,
                   "post-recovery state diverges from acknowledged writes");
      mounted.oracle_->force(obs.sector, obs.stamp);
      ++out.tolerated_sectors;
    }
  }
  return out;
}

nand::FlashArray Ssd::release_flash() {
  checkpointer_.reset();  // unregisters the engine's ckpt-moved callback
  return engine_->release_array();
}

Ssd::~Ssd() = default;

bool Ssd::admits_later(const Deferred& a, const Deferred& b) {
  return a.admit_at != b.admit_at ? a.admit_at > b.admit_at : a.seq > b.seq;
}

Ssd::Completion Ssd::submit(const ftl::IoRequest& host_req) {
  AF_CHECK_MSG(!host_req.range.empty(), "empty request");
  AF_CHECK_MSG(host_req.range.end <= engine_->config().logical_sectors(),
               "request beyond logical capacity");

  const ssd::SsdConfig::QosPolicy& qos = engine_->config().qos;
  // Token-bucket admission shaping. A write finding its tenant's bucket dry
  // is not executed now with a fudged timestamp: it is parked and enters the
  // device when simulated time reaches its admit point, because the resource
  // timeline books ops in submission order and an eagerly-booked far-future
  // program would serialize every later-submitted request (other tenants
  // included) behind it.
  if (!buckets_.empty()) {
    flush_deferred(host_req.arrival);
    if (host_req.write && !host_req.trim && !aging_) {
      const auto tenant = static_cast<std::uint16_t>(
          std::min<std::uint32_t>(host_req.tenant, qos.tenants - 1));
      TenantBucket& bucket = buckets_[tenant];
      if (host_req.arrival > bucket.last) {
        const double refill =
            static_cast<double>(host_req.arrival - bucket.last) *
            static_cast<double>(qos.rate_sectors_per_s) / 1e9;
        bucket.tokens = std::min(static_cast<double>(qos.burst_sectors),
                                 bucket.tokens + refill);
        bucket.last = host_req.arrival;
      }
      // The write charges its transfer size plus a surcharge for the GC
      // debt its tenant has accrued (relocations of the tenant's pages
      // since its last charge), so a noisy neighbor pays for the collection
      // churn it causes. Reads are not metered: they consume no program
      // bandwidth and create no debt.
      double cost = static_cast<double>(host_req.range.size());
      if (qos.gc_debt_sectors_per_page > 0) {
        cost += static_cast<double>(engine_->drain_gc_debt_pages(tenant) *
                                    qos.gc_debt_sectors_per_page);
      }
      if (bucket.tokens >= cost) {
        bucket.tokens -= cost;
      } else {
        // Dry: the refill is anchored at bucket.last — which may already
        // sit in the future, so earlier stalls accumulate and a flooding
        // tenant is paced at the configured rate rather than each request
        // paying one isolated delay.
        const double deficit = cost - bucket.tokens;
        const SimTime admit_at =
            bucket.last +
            static_cast<SimDuration>(
                deficit * 1e9 / static_cast<double>(qos.rate_sectors_per_s) +
                1.0);
        bucket.tokens = 0;
        bucket.last = admit_at;
        ssd::TenantStats& ts = engine_->stats().tenant(tenant);
        ++ts.throttle_stalls;
        ts.throttle_stall_ns +=
            static_cast<std::uint64_t>(admit_at - host_req.arrival);
        deferred_.push_back(Deferred{host_req, admit_at, deferred_seq_++});
        std::push_heap(deferred_.begin(), deferred_.end(), admits_later);
        // The held write is acknowledged optimistically: capacity checks
        // run when it actually enters the device, and its full accounting
        // (latency anchored at the original arrival) lands at flush time.
        Completion held;
        held.cls = ftl::classify(host_req, scheme_->page_geometry());
        held.done = admit_at;
        held.latency = admit_at - host_req.arrival;
        return held;
      }
    }
  }
  return service(host_req, host_req.arrival);
}

void Ssd::flush_deferred(SimTime now) {
  while (!deferred_.empty() && deferred_.front().admit_at <= now) {
    std::pop_heap(deferred_.begin(), deferred_.end(), admits_later);
    Deferred held = std::move(deferred_.back());
    deferred_.pop_back();
    const SimTime anchor = held.req.arrival;
    held.req.arrival = held.admit_at;
    (void)service(held.req, anchor);
  }
}

void Ssd::drain_admission() {
  flush_deferred(std::numeric_limits<SimTime>::max());
}

Ssd::Completion Ssd::service(const ftl::IoRequest& req, SimTime anchor) {
  const ssd::SsdConfig::QosPolicy& qos = engine_->config().qos;
  std::uint16_t tenant = ssd::kNoTenant;
  if (qos.enabled() && !aging_) {
    // Unknown tenant ids clamp into the configured table rather than assert:
    // a trace mixing more tenants than the device was configured for is a
    // host-side mistake, not a device invariant violation.
    tenant = static_cast<std::uint16_t>(
        std::min<std::uint32_t>(req.tenant, qos.tenants - 1));
  }
  if (qos.enabled()) engine_->set_tenant(tenant);

  const ssd::ReqClass cls = ftl::classify(req, scheme_->page_geometry());
  const bool mutates = req.write || req.trim;
  // A refused request changes no state and costs no simulated time; it only
  // bumps the counter that names why.
  auto refuse = [&](ssd::Status status, std::uint64_t& counter) {
    ++counter;
    Completion rejected;
    rejected.cls = cls;
    rejected.done = req.arrival;
    rejected.accepted = false;
    rejected.status = status;
    return rejected;
  };

  if (mutates && engine_->read_only()) {
    // Graceful degradation: spare blocks are exhausted, so the device
    // refuses new writes (and trims — they dirty mapping tables that must
    // eventually be programmed) rather than wedging GC. The shadow space is
    // not advanced — the refusal is surfaced, not silently dropped.
    return refuse(ssd::Status::kReadOnly,
                  engine_->stats().faults().rejected_writes);
  }
  if (req.write && !req.trim) {
    // Capacity admission: a write the device cannot absorb without eating
    // the GC reserve fails cleanly with kNoSpace — the host can trim or
    // back off, instead of the old behaviour of asserting out of planes.
    // Only the net-new logical pages count: overwrites of mapped pages add
    // no valid-page population, so a device at the ceiling still accepts
    // them (and stays overwritable until a trim or retirement moves the
    // ceiling).
    const ssd::Status admit =
        engine_->admit_write(scheme_->unmapped_pages(req.range));
    if (admit != ssd::Status::kOk) {
      return refuse(admit, engine_->stats().faults().no_space_rejections);
    }
    // Per-tenant capacity share (DESIGN.md §12): a tenant over its quota is
    // refused with kNoSpace while the others keep writing — per-tenant
    // graceful degradation instead of device-wide backpressure. Checked
    // after the device-wide admission so a globally-full device reports the
    // same status it always did.
    if (tenant != ssd::kNoTenant) {
      const ssd::Status quota = engine_->admit_tenant_write(
          tenant, scheme_->unmapped_pages(req.range));
      if (quota != ssd::Status::kOk) {
        return refuse(quota, engine_->stats().tenant(tenant).rejected_writes);
      }
    }
  }
  engine_->set_request_class(cls);

  // Deadline (DESIGN.md §11): every attempt gets a fresh in-simulated-time
  // budget measured from its issue point — never from a wall clock.
  // Zero-default: with config.deadline unarmed, budget_ns stays 0, no
  // deadline is ever set, and the engine's scheduling paths are
  // byte-identical to the pre-deadline behaviour.
  const ssd::SsdConfig::DeadlineConfig& dl = engine_->config().deadline;
  const bool is_read = !req.write && !req.trim;
  const SimDuration budget_ns =
      req.trim ? 0
               : (is_read ? dl.read_deadline_us : dl.write_deadline_us) * 1000;
  if (budget_ns > 0) engine_->set_deadline(req.arrival + budget_ns);

  Completion completion;
  completion.cls = cls;
  const std::uint64_t lost_before = engine_->stats().faults().lost_pages;
  if (req.trim) {
    // Order matters for crash consistency: zero the shadow, then make the
    // tombstone durable (RAM-only — no power cut can land between the two),
    // and only then let the scheme touch mapping tables. Any flash op the
    // trim provokes (map evictions, GC) happens with the tombstone already
    // in force, so a cut mid-trim still replays the unmap — a GC move of a
    // covered page carries a newer seq than its tombstone otherwise, and
    // the page would resurrect.
    const std::uint32_t spp = scheme_->page_geometry().sectors_per_page;
    if (oracle_) oracle_->on_trim(req.range, spp);
    (void)engine_->array().note_trim(req.range);
    completion.done = scheme_->trim(req.range, req.arrival);
    auto& faults = engine_->stats().faults();
    ++faults.trims;
    const std::uint64_t first = (req.range.begin + spp - 1) / spp;
    const std::uint64_t last = req.range.end / spp;
    faults.trimmed_pages += last > first ? last - first : 0;
  } else if (req.write) {
    if (oracle_) {
      // The in-flight window for remount(): a cut inside this write may
      // legitimately lose it, so its sectors may read back either version.
      if (engine_->array().power_cut_armed()) {
        inflight_ = req.range;
        inflight_pre_stamps_.clear();
        for (SectorAddr s = req.range.begin; s < req.range.end; ++s) {
          inflight_pre_stamps_.push_back(oracle_->expected(s));
        }
      }
      oracle_->on_write(req.range);
    }
    completion.done = scheme_->write(req, req.arrival);
    // Writes are never re-issued (the mutation landed); a busted budget is
    // surfaced as an SLO escalation, data fully intact.
    if (budget_ns > 0 && completion.done > req.arrival + budget_ns) {
      completion.status = ssd::Status::kDeadlineExceeded;
      ++engine_->stats().tail().deadline_exceeded;
    }
  } else {
    ftl::ReadPlan plan;
    ftl::ReadPlan* plan_sink = oracle_ ? &plan : nullptr;
    SimTime issue = req.arrival;
    completion.done = scheme_->read(req, issue, plan_sink);
    if (budget_ns > 0) {
      // Retry-with-backoff ladder: a read busting its budget is re-issued —
      // each re-issue re-walks the mapping and the flash, charging real
      // device time — after an exponentially growing backoff, with a fresh
      // budget, betting that the stall (a sick-die episode, a background
      // burst) has drained. A read still late after max_retries attempts
      // escalates to kDeadlineExceeded; its data is correct regardless.
      for (std::uint32_t k = 0;
           completion.done > issue + budget_ns && k < dl.max_retries; ++k) {
        ++engine_->stats().tail().deadline_retries;
        issue = completion.done + dl.retry_backoff_us * 1000 * (1ull << k);
        engine_->set_deadline(issue + budget_ns);
        plan.observed.clear();
        completion.done = scheme_->read(req, issue, plan_sink);
      }
      if (completion.done > issue + budget_ns) {
        completion.status = ssd::Status::kDeadlineExceeded;
        ++engine_->stats().tail().deadline_exceeded;
      }
    }
    if (oracle_) {
      for (const auto& obs : plan.observed) {
        const std::uint64_t expected = oracle_->expected(obs.sector);
        AF_CHECK_MSG(obs.stamp == expected,
                     "oracle mismatch: FTL returned stale or wrong data");
        ++verified_sectors_;
      }
      AF_CHECK_MSG(plan.observed.size() == req.range.size(),
                   "read plan did not cover the whole request");
    }
  }
  if (budget_ns > 0) engine_->set_deadline(std::nullopt);
  engine_->set_request_class(std::nullopt);

  AF_CHECK(completion.done >= req.arrival);
  // Latency is measured from the host's original arrival, so an admission
  // stall shows up in the tenant's tail instead of silently vanishing.
  completion.latency = completion.done - anchor;
  completion.data_lost =
      engine_->stats().faults().lost_pages > lost_before;
  engine_->stats().record_request(cls, completion.latency, req.range.size());
  if (tenant != ssd::kNoTenant && !req.trim) {
    ssd::TenantStats& ts = engine_->stats().tenant(tenant);
    if (req.write) {
      ++ts.writes;
      ts.write_sectors += req.range.size();
      ts.write_latency.record(completion.latency, req.range.size());
    } else {
      ++ts.reads;
      ts.read_sectors += req.range.size();
      ts.read_latency.record(completion.latency, req.range.size());
    }
  }
  if (mutates && checkpointer_) checkpointer_->note_write(completion.done);
  // Background refresh rides the request stream like the checkpointer does;
  // its reads/programs count as physical ops, so an armed power cut can
  // fire inside a scrub tick (PowerLoss propagates to the harness).
  if (scrubber_) scrubber_->note_request(completion.done);
  inflight_ = SectorRange{};
  return completion;
}

void Ssd::age(double used_fraction, double live_fraction, std::uint64_t seed) {
  const auto& geom = engine_->geometry();
  const std::uint64_t spp = geom.sectors_per_page();
  // GC keeps gc_trigger_blocks() (plus up to 2 blocks of per-plane stagger)
  // free per plane, so "used" cannot exceed that floor; clamp the target to
  // what the device can actually reach.
  const double achievable =
      1.0 - (static_cast<double>(engine_->gc_trigger_blocks()) + 3.0) /
                static_cast<double>(geom.blocks_per_plane);
  used_fraction = std::min(used_fraction, achievable);
  const std::uint64_t logical_pages = engine_->config().logical_pages();
  const auto footprint = std::min<std::uint64_t>(
      logical_pages,
      static_cast<std::uint64_t>(live_fraction *
                                 static_cast<double>(geom.total_pages())));
  AF_CHECK(footprint > 0);

  Rng rng(seed);
  // Aging traffic is device prehistory, not any tenant's I/O: it bypasses
  // QoS shaping and lands untenanted, so no tenant starts measurement with
  // the aged footprint counted against its capacity share or its bucket
  // pre-drained by fill writes all stamped arrival 0.
  aging_ = true;
  // Page-aligned fill: sequential first pass establishes the live set, then
  // random overwrites age the device (invalidations + GC) until the used
  // target is reached.
  for (std::uint64_t p = 0; p < footprint; ++p) {
    ftl::IoRequest req{0, /*write=*/true,
                       SectorRange::of(p * spp, spp)};
    if (!submit(req).accepted) break;  // device degraded mid-aging
  }
  const std::uint64_t max_overwrites = 4 * geom.total_pages();
  std::uint64_t overwrites = 0;
  while (engine_->array().used_fraction() < used_fraction &&
         overwrites < max_overwrites) {
    const std::uint64_t p = rng.below(footprint);
    ftl::IoRequest req{0, /*write=*/true, SectorRange::of(p * spp, spp)};
    if (!submit(req).accepted) break;  // device degraded mid-aging
    ++overwrites;
  }
  aging_ = false;
  AF_LOG_INFO("aged device: used=%.3f live=%.3f overwrites=%llu",
              engine_->array().used_fraction(),
              engine_->array().valid_fraction(),
              static_cast<unsigned long long>(overwrites));
}

void Ssd::reset_measurement() {
  engine_->stats().reset();
  engine_->timeline().reset();
  verified_sectors_ = 0;
  // Buckets restart full on the reset clock: aging traffic must not leave a
  // tenant pre-throttled (or pre-refilled into the future) when measurement
  // starts at simulated time 0 again.
  const ssd::SsdConfig::QosPolicy& qos = engine_->config().qos;
  for (TenantBucket& bucket : buckets_) {
    bucket = TenantBucket{static_cast<double>(qos.burst_sectors), 0};
  }
  deferred_.clear();
  deferred_seq_ = 0;
}

void Ssd::snapshot_map_footprint() {
  engine_->stats().note_map_bytes(scheme_->map_bytes());
}

}  // namespace af::sim
