#include "ssd/engine.h"

#include <algorithm>

#include "common/log.h"
#include "ssd/integrity.h"

namespace af::ssd {

Engine::Engine(const SsdConfig& config)
    : Engine(config,
             nand::FlashArray(config.geometry, config.track_payload,
                              config.faults),
             /*adopted=*/false) {}

Engine::Engine(const SsdConfig& config, nand::FlashArray image)
    : Engine(config, std::move(image), /*adopted=*/true) {}

Engine::Engine(const SsdConfig& config, nand::FlashArray image, bool adopted)
    : config_(config),
      array_(std::move(image)),
      timeline_(config.geometry, config.timing) {
  AF_CHECK_MSG(array_.geometry().total_pages() ==
                       config_.geometry.total_pages() &&
                   array_.geometry().page_bytes == config_.geometry.page_bytes,
               "mounted flash image does not match the configured geometry");
  const auto planes = config_.geometry.total_planes();
  if (config_.qos.streams_enabled()) {
    stream_slots_ += config_.qos.tenants * 2;  // data + GC slot each
    // The OOB stream stamp is a byte; plenty for any sane tenant count.
    AF_CHECK_MSG(stream_slots_ <= 0xff, "too many tenant stream slots");
  }
  planes_.resize(planes);
  for (std::uint64_t p = 0; p < planes; ++p) {
    PlaneState& plane = planes_[p];
    plane.free_blocks.reserve(config_.geometry.blocks_per_plane);
    // Pop from the back; seed in reverse so the lowest free block is used
    // first. On a fresh array every block qualifies; on a mounted image only
    // untouched, unretired blocks do — partially-written ones have lost
    // their stream identity and re-enter service through GC.
    for (std::uint32_t b = config_.geometry.blocks_per_plane; b-- > 0;) {
      const std::uint64_t flat = p * config_.geometry.blocks_per_plane + b;
      const nand::BlockInfo& info = array_.block(flat);
      if (info.retired) {
        ++plane.retired;
      } else if (info.written == 0) {
        plane.free_blocks.push_back(b);
      }
    }
    plane.active.assign(stream_slots_, kNoBlock);
    plane.gc_victim = kNoBlock;
  }
  if (config_.qos.enabled()) {
    page_tenant_.assign(config_.geometry.total_pages(), kNoTenant);
    tenant_live_pages_.assign(config_.qos.tenants, 0);
    tenant_gc_debt_.assign(config_.qos.tenants, 0);
    stats_.init_tenants(config_.qos.tenants);
  }
  page_weight_.assign(config_.geometry.total_pages(), 0);
  cached_weight_.assign(planes * config_.geometry.blocks_per_plane, 0);
  // victim_key() packs the block weight into bits [33, 63]; a block's weight
  // tops out at pages_per_block * kFullPageWeight.
  AF_CHECK_MSG(std::uint64_t{config_.geometry.pages_per_block} *
                       kFullPageWeight <
                   (std::uint64_t{1} << 31),
               "block weight range overflows the victim-index key");
  AF_CHECK_MSG(gc_trigger_blocks() + 2 + config_.gc_reserve_blocks <
                   config_.geometry.blocks_per_plane,
               "GC threshold leaves no usable capacity");
  if (config_.integrity.parity_enabled()) {
    stripes_ = std::make_unique<StripeTracker>(
        config_.integrity.parity_stripe_width);
  }
  if (config_.deadline.quarantine_misses > 0) {
    const std::uint64_t dies =
        config_.geometry.total_chips() * config_.geometry.dies_per_chip;
    die_misses_.assign(dies, 0);
    die_quarantined_.assign(dies, 0);
  }
  if (adopted) {
    // Re-derive the degradation verdict the crashed device had reached.
    const std::uint32_t floor = gc_trigger_blocks() + config_.gc_reserve_blocks +
                                config_.degrade_margin_blocks;
    for (std::uint64_t p = 0; p < planes; ++p) {
      if (config_.geometry.blocks_per_plane - planes_[p].retired < floor) {
        read_only_ = true;
      }
    }
  }
}

Engine::~Engine() = default;

// --- Flash operations --------------------------------------------------------

ReadResult Engine::flash_read(Ppn ppn, OpKind kind, SimTime ready) {
  if (array_.state(ppn) != nand::PageState::kValid) {
    const nand::PageOwner owner = array_.owner(ppn);
    AF_LOG_WARN("flash read of non-valid ppn %llu (state %d, owner kind %d id %llu)",
                static_cast<unsigned long long>(ppn.get()),
                static_cast<int>(array_.state(ppn)),
                static_cast<int>(owner.kind),
                static_cast<unsigned long long>(owner.id));
  }
  AF_CHECK_MSG(array_.state(ppn) == nand::PageState::kValid,
               "flash read of non-valid page");
  SimTime done = sense(ppn, kind, ready);
  // Transient read failures recover through read-retry: re-sense the same
  // page (tuned reference voltages); each retry costs a full read on the
  // page's chip and channel.
  for (std::uint32_t r = array_.faults().read_retries(); r > 0; --r) {
    done = sense(ppn, kind, done);
    ++stats_.faults().read_retries;
  }
  if (!config_.faults.ber_enabled()) return {done, ReadStatus::kOk};

  // Latent bit errors: one Poisson draw per sensing at the page's current
  // intensity. Within the ECC engine's strength the read just succeeds.
  const SsdConfig::IntegrityConfig& icfg = config_.integrity;
  std::uint32_t errors = array_.draw_read_errors(ppn);
  stats_.faults().raw_bit_errors += errors;
  if (errors <= icfg.ecc_correctable_bits) {
    return {done, ReadStatus::kOk};
  }

  // ECC read-retry ladder: each step re-senses with tuned reference
  // voltages — a full extra read — and sees the page's error intensity
  // scaled down by read_retry_ber_scale per step.
  double scale = 1.0;
  for (std::uint32_t step = 0; step < icfg.read_retry_steps; ++step) {
    scale *= icfg.read_retry_ber_scale;
    done = sense(ppn, kind, done);
    ++stats_.faults().ecc_retry_steps;
    errors = array_.faults().raw_bit_errors(array_.page_ber(ppn) * scale);
    stats_.faults().raw_bit_errors += errors;
    if (errors <= icfg.ecc_correctable_bits) {
      ++stats_.faults().ecc_retry_recoveries;
      return {done, ReadStatus::kEccRetried};
    }
  }
  ++stats_.faults().uncorrectable_reads;

  // Uncorrectable: rebuild from the page's parity stripe if one is intact.
  // A member rebuilds from its peers + parity; the parity page itself
  // rebuilds from all members. Peer sensings are charged but draw no errors
  // of their own (no recursion — the rebuild is an XOR over raw cells, not
  // an ECC decode of each peer in isolation).
  if (stripes_ != nullptr) {
    bool is_parity = false;
    const StripeTracker::Stripe* stripe = stripes_->stripe_of(ppn);
    if (stripe == nullptr) {
      stripe = stripes_->stripe_by_parity(ppn);
      is_parity = stripe != nullptr;
    }
    if (stripe != nullptr) {
      auto rebuild_sense = [&](Ppn peer) {
        done = sense(peer, OpKind::kRebuildRead, done, /*account=*/false);
        ++stats_.faults().parity_rebuild_reads;
      };
      for (const Ppn peer : stripe->members) {
        if (peer.get() == ppn.get()) continue;
        rebuild_sense(peer);
      }
      if (!is_parity) rebuild_sense(stripe->parity);
      ++stats_.faults().parity_rebuilds;
      return {done, ReadStatus::kRebuilt};
    }
  }

  // A lost parity page costs only its stripe's protection (the caller drops
  // the stripe); lost anything-else is host or mapping data gone — degrade
  // to read-only like spare exhaustion does, and keep serving what remains.
  if (array_.owner(ppn).kind == nand::PageOwner::Kind::kParity) {
    return {done, ReadStatus::kLost};
  }
  ++stats_.faults().lost_pages;
  if (!read_only_) {
    read_only_ = true;
    ++stats_.faults().read_only_entries;
    AF_LOG_WARN(
        "uncorrectable read of ppn %llu with no intact parity stripe: "
        "device enters read-only mode",
        static_cast<unsigned long long>(ppn.get()));
  }
  return {done, ReadStatus::kLost};
}

SimTime Engine::mount_read(Ppn ppn, SimTime ready) {
  stats_.count_flash_op(OpKind::kMountRead);
  return sched_read(ppn, OpKind::kMountRead, ready, /*account=*/false);
}

SimTime Engine::sense(Ppn ppn, OpKind kind, SimTime ready, bool account) {
  // note_read: power-cut op accounting (may throw PowerLoss) plus the
  // block's read-disturb exposure.
  array_.note_read(ppn);
  if (config_.faults.ber_enabled()) ++stats_.faults().read_disturb_reads;
  stats_.count_flash_op(kind);
  return sched_read(ppn, kind, ready, account);
}

// --- Tail-latency subsystem (DESIGN.md §11) ----------------------------------

double Engine::slow_of(const nand::PhysAddr& a) {
  if (!config_.faults.slow_enabled()) return 1.0;
  return array_.faults().slow_factor(die_of(a), array_.op_clock());
}

SimTime Engine::sched_read(Ppn ppn, OpKind kind, SimTime ready, bool account) {
  const nand::PhysAddr addr = config_.geometry.decode(ppn);
  const double slow = slow_of(addr);
  const std::uint64_t chip = config_.geometry.chip_index(addr);
  SimTime done = 0;
  bool scheduled = false;
  if (deadline_ && config_.deadline.preempt) {
    nand::SuspendSlot* slot = array_.suspend_slot(chip);
    if (slot != nullptr && slot->end <= ready) {
      array_.disarm_suspendable(chip);  // the victim already completed
      slot = nullptr;
    }
    if (slot != nullptr) {
      // Queueing estimate behind the in-flight background op (unscaled cell
      // time — the policy question is "would the wait bust the deadline",
      // and the wait is dominated by the victim's remaining window).
      const SimTime est = std::max(ready, timeline_.chip_free_at(chip)) +
                          config_.timing.read_ns +
                          config_.timing.transfer_ns_per_page;
      if (est > *deadline_) {
        TailStats& tail = stats_.tail();
        // Stacked suspension: this read lands before the previous
        // preemption's resume point, deepening the suspend stack.
        const std::uint32_t nested =
            ready < slot->front ? slot->nested + 1 : 1;
        if (slot->suspends >= config_.deadline.suspend_ceiling) {
          // Starvation guard: the victim has been pushed back enough times;
          // it now runs to completion and this read queues like any other.
          ++tail.suspend_ceiling_hits;
        } else if (nested > config_.deadline.suspend_nesting_cap) {
          ++tail.suspend_nesting_hits;
        } else {
          slot->nested = nested;
          ++slot->suspends;
          if (slot->kind == nand::SuspendSlot::Kind::kErase) {
            ++tail.erase_suspends;
          } else {
            ++tail.program_suspends;
          }
          tail.resume_overhead_ns += config_.timing.suspend_resume_ns;
          done = timeline_.schedule_preempting_read(
              addr, ready, slow, *slot, config_.timing.suspend_resume_ns);
          scheduled = true;
        }
      }
    }
  }
  if (!scheduled) done = timeline_.schedule_read(addr, ready, slow);
  stats_.note_op_latency(kind, done - ready);
  if (account && deadline_ && done > *deadline_) {
    note_deadline_miss(die_of(addr));
  }
  return done;
}

void Engine::note_deadline_miss(std::uint64_t die) {
  ++stats_.tail().deadline_misses;
  if (die_misses_.empty()) return;
  ++die_misses_[die];
  update_quarantine(die);
}

void Engine::update_quarantine(std::uint64_t die) {
  if (die_quarantined_.empty()) return;
  // Quarantine keys off the episode state, not the miss count alone: a miss
  // burst caused by queueing (not sickness) must not banish a healthy die,
  // and a die whose episode ended is readmitted on the next look.
  const bool sick = config_.faults.slow_episodes_enabled() &&
                    array_.faults().die_sick(die, array_.op_clock());
  if (die_quarantined_[die] == 0) {
    if (sick && die_misses_[die] >= config_.deadline.quarantine_misses) {
      die_quarantined_[die] = 1;
      ++quarantined_count_;
      ++stats_.tail().quarantines;
    }
  } else if (!sick) {
    die_quarantined_[die] = 0;
    --quarantined_count_;
    ++stats_.tail().unquarantines;
    die_misses_[die] = 0;
  }
}

Engine::Programmed Engine::program_on(std::uint64_t plane, std::uint32_t slot,
                                      nand::PageOwner owner, OpKind kind,
                                      SimTime ready,
                                      const nand::OobExtra* oob,
                                      std::uint16_t tenant) {
  const std::uint32_t attempts =
      1 + std::max(1u, config_.faults.max_program_retries);
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (!plane_has_space(plane, slot)) plane = pick_plane(slot);
    const Ppn ppn = take_frontier(plane, slot);
    // Durable stripe stamp: members carry the open stripe's id, the parity
    // page the id of the stripe it is sealing.
    const std::uint64_t stripe_id =
        stripes_ ? (in_parity_ ? sealing_stripe_ : stripes_->open_id()) : 0;
    // Tenant stamped 1-based so recovery can tell tenant 0 from an
    // engine-owned (untenanted) page.
    const bool ok = array_.program(
        ppn, owner, oob, stripe_id, static_cast<std::uint8_t>(slot),
        tenant == kNoTenant ? 0 : static_cast<std::uint16_t>(tenant + 1));
    stats_.count_flash_op(kind);
    if (kind == OpKind::kDataWrite && current_class_) {
      stats_.count_class_flush(*current_class_);
    }
    const nand::PhysAddr addr = config_.geometry.decode(ppn);
    const ResourceTimeline::Span span =
        timeline_.schedule_program_span(addr, ready, slow_of(addr));
    // Background programs (GC/wear migrations, checkpoint-journal appends)
    // are fair game for foreground preemption; host-visible data/map/parity
    // programs are themselves latency-bearing and never suspend.
    if (in_gc_ || owner.kind == nand::PageOwner::Kind::kCkpt) {
      arm_background(addr, nand::SuspendSlot::Kind::kProgram, span);
    }
    const SimTime done = span.done;
    stats_.note_op_latency(kind, done - ready);
    if (ok) {
      // Fresh programs carry full weight until the owning scheme pushes a
      // sub-page liveness via note_page_weight(). No victim-index push: the
      // page's block is active, and re-indexes when it stops being so.
      page_weight_[ppn.get()] = static_cast<std::uint16_t>(kFullPageWeight);
      cached_weight_[config_.geometry.block_of(ppn)] += kFullPageWeight;
      if (!page_tenant_.empty() && tenant != kNoTenant) {
        page_tenant_[ppn.get()] = tenant;
        ++tenant_live_pages_[tenant];
      }
      // Torn programs never join a stripe; only a completed page is worth
      // protecting (its stamp is unreadable anyway).
      if (stripes_ && !in_parity_) {
        stripes_->note_member(ppn);
        if (stripes_->open_full()) seal_stripe(done);
      }
      return {ppn, done};
    }
    // Program failure: the array left the page torn (invalid, unowned).
    // Abandon the rest of the active block — its later pages are suspect
    // and NAND forbids re-programming earlier ones — and reallocate on a
    // fresh block, charging the wasted program time.
    ++stats_.faults().program_faults;
    ++stats_.faults().program_retries;
    const std::uint32_t torn = planes_[plane].active[slot];
    planes_[plane].active[slot] = kNoBlock;
    push_victim_key(plane, torn);  // the abandoned block is a candidate now
    ready = done;
    AF_LOG_DEBUG("program fault on ppn %llu (attempt %u); reallocating",
                 static_cast<unsigned long long>(ppn.get()), attempt + 1);
  }
  AF_CHECK_MSG(false,
               "program retry budget exhausted (faults.max_program_retries)");
  return {};
}

Engine::Programmed Engine::flash_program(Stream stream, nand::PageOwner owner,
                                         OpKind kind, SimTime ready,
                                         const nand::OobExtra* oob,
                                         const std::vector<std::uint64_t>* stamps) {
  // Tenant routing (DESIGN.md §12): host data programs carry the facade's
  // current tenant into the tenant's own stream slot; during relocation the
  // moved page keeps the tenant it already had. Engine-owned streams
  // (GC/map/parity) stay untenanted.
  std::uint32_t slot = slot_of(stream);
  std::uint16_t tenant = kNoTenant;
  if (config_.qos.enabled() && stream == Stream::kData) {
    tenant = in_gc_ ? gc_relocating_tenant_ : current_tenant_;
    slot = data_slot(tenant);
  }
  const Programmed programmed =
      program_on(pick_plane(slot), slot, owner, kind, ready, oob, tenant);
  if (tenant != kNoTenant && !in_gc_) {
    ++stats_.tenant(tenant).host_pages;
  }
  // Payload lands with the program: the GC pass below can be interrupted by
  // power-cut injection, and a completed program must never be recovered
  // without its data.
  if (stamps != nullptr) {
    for (std::uint32_t s = 0; s < stamps->size(); ++s) {
      array_.set_stamp(programmed.ppn, s, (*stamps)[s]);
    }
  }
  // Reallocation can spill planes, so trigger GC where the data landed.
  const std::uint64_t plane = config_.geometry.plane_of(programmed.ppn);

  // Threshold GC is *background* work: the free-block reserve exists so the
  // triggering request never has to wait for reclamation. The pass's flash
  // operations are charged to the plane's chip behind this program, so later
  // requests feel GC only as chip contention (the SSDsim model). State-wise
  // the reclaim is immediate, so the free-block accounting never lags.
  if (!in_gc_ && free_blocks(plane) < plane_trigger_blocks(plane)) {
    (void)run_gc(plane, programmed.done);
  }
  return programmed;
}

void Engine::invalidate(Ppn ppn) {
  const std::uint64_t flat = config_.geometry.block_of(ppn);
  const std::uint32_t weight = page_weight_[ppn.get()];
  page_weight_[ppn.get()] = 0;
  AF_CHECK_MSG(cached_weight_[flat] >= weight, "block weight underflow");
  cached_weight_[flat] -= weight;
  if (!page_tenant_.empty()) {
    const std::uint16_t tenant = page_tenant_[ppn.get()];
    if (tenant != kNoTenant) {
      AF_CHECK_MSG(tenant_live_pages_[tenant] > 0,
                   "tenant live-page count underflow");
      --tenant_live_pages_[tenant];
      page_tenant_[ppn.get()] = kNoTenant;
    }
  }
  array_.invalidate(ppn);
  push_victim_key(config_.geometry.plane_of(ppn),
                  static_cast<std::uint32_t>(
                      flat % config_.geometry.blocks_per_plane));
}

Status Engine::admit_write(std::uint64_t pages) const {
  if (read_only_) return Status::kReadOnly;
  const auto& geom = config_.geometry;
  const auto& ctr = array_.counters();
  // Device-wide arithmetic off the O(1) array counters: the valid-page
  // population after this write must leave every plane's GC reserve plus
  // the admission margin worth of pages unclaimed, or block turnover stops.
  const std::uint64_t reserve_pages =
      geom.total_planes() *
      std::uint64_t{config_.gc_reserve_blocks +
                    config_.capacity.no_space_margin_blocks} *
      geom.pages_per_block;
  const std::uint64_t usable = geom.total_pages() - ctr.retired_pages;
  if (ctr.valid_pages + pages + reserve_pages > usable) {
    return Status::kNoSpace;
  }
  return Status::kOk;
}

Status Engine::admit_tenant_write(std::uint16_t tenant,
                                  std::uint64_t pages) const {
  const SsdConfig::QosPolicy& qos = config_.qos;
  if (!qos.enabled() || qos.capacity_share_millis == 0 ||
      tenant >= tenant_live_pages_.size()) {
    return Status::kOk;
  }
  const std::uint64_t limit =
      config_.logical_pages() * qos.capacity_share_millis / 1000;
  if (tenant_live_pages_[tenant] + pages > limit) return Status::kNoSpace;
  return Status::kOk;
}

std::uint64_t Engine::drain_gc_debt_pages(std::uint16_t tenant) {
  if (tenant >= tenant_gc_debt_.size()) return 0;
  const std::uint64_t debt = tenant_gc_debt_[tenant];
  tenant_gc_debt_[tenant] = 0;
  return debt;
}

std::uint32_t Engine::data_slot(std::uint16_t tenant) const {
  if (!config_.qos.streams_enabled() || tenant == kNoTenant) {
    return slot_of(Stream::kData);
  }
  AF_CHECK_MSG(tenant < config_.qos.tenants, "tenant id out of range");
  return static_cast<std::uint32_t>(kStreamCount) + tenant * 2u;
}

std::uint32_t Engine::gc_slot(std::uint16_t tenant) const {
  if (!config_.qos.streams_enabled() || tenant == kNoTenant) {
    return slot_of(Stream::kGc);
  }
  return data_slot(tenant) + 1;
}

SimTime Engine::map_touch(std::uint64_t map_page, bool dirty, SimTime ready) {
  AF_CHECK_MSG(map_ != nullptr, "init_map_space() not called");
  return map_->touch(map_page, dirty, ready);
}

void Engine::dram_access(std::uint64_t n) { stats_.count_dram_access(n); }

void Engine::init_map_space(std::uint64_t num_map_pages) {
  const std::uint64_t cache_pages =
      std::max<std::uint64_t>(1, config_.map_cache_bytes /
                                     config_.geometry.page_bytes);
  // Direct `new`: make_unique cannot convert to the private MapIo base.
  map_.reset(new MapDirectory(*this, num_map_pages, cache_pages));
}

// --- MapIo ---------------------------------------------------------------------

SimTime Engine::map_flash_read(Ppn ppn, SimTime ready) {
  // The integrity grade is absorbed here: a lost translation page already
  // dropped the device to read-only and bumped the loss counters inside
  // flash_read; the directory itself only needs the completion time.
  return flash_read(ppn, OpKind::kMapRead, ready).done;
}

std::pair<Ppn, SimTime> Engine::map_flash_program(std::uint64_t map_page,
                                                  SimTime ready) {
  auto programmed = flash_program(Stream::kMap, nand::PageOwner::map(map_page),
                                  OpKind::kMapWrite, ready);
  return {programmed.ppn, programmed.done};
}

void Engine::map_flash_invalidate(Ppn ppn) { invalidate(ppn); }

void Engine::map_dram_access(std::uint64_t n) { stats_.count_dram_access(n); }

// --- Allocation ------------------------------------------------------------------

bool Engine::plane_has_space(std::uint64_t plane, std::uint32_t slot) const {
  const PlaneState& st = planes_[plane];
  const std::uint32_t active = st.active[slot];
  if (active != kNoBlock) {
    const std::uint64_t flat =
        plane * config_.geometry.blocks_per_plane + active;
    if (!array_.block(flat).fully_written(config_.geometry.pages_per_block)) {
      return true;
    }
  }
  return !st.free_blocks.empty();
}

std::uint64_t Engine::pick_plane(std::uint32_t slot) {
  const std::uint64_t planes = config_.geometry.total_planes();
  // Flat plane indices are chip-major (geometry.h): planes p..p+3 share one
  // chip, so a naive round-robin lands consecutive programs on the same chip
  // and they serialize in the timeline. With a concurrent host queue the
  // allocator instead walks planes chip-rotating (channel-first allocation),
  // so simultaneous in-flight programs spread across chips. The serial path
  // keeps the legacy walk: at QD<=1 the order never changes timing, and the
  // committed tables depend on the legacy placement.
  const bool stripe = config_.pipeline.enabled();
  const std::uint64_t chips = config_.geometry.total_chips();
  const std::uint64_t planes_per_chip = planes / chips;
  auto plane_at = [&](std::uint64_t v) {
    return stripe ? (v % chips) * planes_per_chip + v / chips : v;
  };
  // Steering fallback: when every plane with space sits on a quarantined
  // die, capacity beats latency — take the first of them in walk order.
  std::uint64_t fallback = planes;  // walk position; `planes` = none seen
  for (std::uint64_t i = 0; i < planes; ++i) {
    const std::uint64_t v = (rr_plane_ + i) % planes;
    const std::uint64_t plane = plane_at(v);
    if (!plane_has_space(plane, slot)) continue;
    if (quarantined_count_ > 0) {
      // Quarantine steering: re-check the die's episode first (it may have
      // ended — readmit), then skip planes on dies still under quarantine.
      const std::uint64_t die = plane / config_.geometry.planes_per_die;
      update_quarantine(die);
      if (die_quarantined_[die] != 0) {
        if (fallback == planes) fallback = v;
        continue;
      }
    }
    rr_plane_ = (v + 1) % planes;
    return plane;
  }
  if (fallback != planes) {
    rr_plane_ = (fallback + 1) % planes;
    return plane_at(fallback);
  }
  for (std::uint64_t p = 0; p < planes; ++p) {
    AF_LOG_WARN("plane %llu: free=%llu retired=%u active[%d]=%u",
                static_cast<unsigned long long>(p),
                static_cast<unsigned long long>(free_blocks(p)),
                planes_[p].retired, static_cast<int>(slot),
                planes_[p].active[slot]);
  }
  AF_CHECK_MSG(false, "no plane has free space — device over-filled");
  return 0;
}

Ppn Engine::take_frontier(std::uint64_t plane, std::uint32_t slot) {
  PlaneState& st = planes_[plane];
  std::uint32_t& active = st.active[slot];

  if (active != kNoBlock) {
    const std::uint64_t flat =
        plane * config_.geometry.blocks_per_plane + active;
    const Ppn frontier = array_.write_frontier(flat);
    if (frontier.valid()) return frontier;
    const std::uint32_t filled = active;
    active = kNoBlock;  // block filled up
    push_victim_key(plane, filled);  // it just became a GC candidate
  }
  AF_CHECK_MSG(!st.free_blocks.empty(), "plane out of free blocks");
  if (config_.capacity.wear_enabled()) {
    // Dynamic wear leveling: take the least-erased free block, so the hot
    // rotation spreads across the whole pool instead of the LIFO stack
    // recycling the same few blocks while untouched ones pin the spread's
    // minimum at zero. (Gated on the policy knob: the default LIFO order is
    // part of the baseline's bit-identical behaviour.)
    std::size_t pick = 0;
    for (std::size_t i = 1; i < st.free_blocks.size(); ++i) {
      const std::uint64_t base = plane * config_.geometry.blocks_per_plane;
      if (array_.block(base + st.free_blocks[i]).erase_count <
          array_.block(base + st.free_blocks[pick]).erase_count) {
        pick = i;
      }
    }
    active = st.free_blocks[pick];
    st.free_blocks.erase(st.free_blocks.begin() +
                         static_cast<std::ptrdiff_t>(pick));
  } else {
    active = st.free_blocks.back();
    st.free_blocks.pop_back();
  }
  const std::uint64_t flat = plane * config_.geometry.blocks_per_plane + active;
  const Ppn frontier = array_.write_frontier(flat);
  AF_CHECK(frontier.valid());
  return frontier;
}

std::uint64_t Engine::free_blocks(std::uint64_t plane) const {
  return planes_[plane].free_blocks.size();
}

std::uint64_t Engine::free_headroom_pages() const {
  std::uint64_t blocks = 0;
  for (const PlaneState& st : planes_) blocks += st.free_blocks.size();
  return blocks * config_.geometry.pages_per_block;
}

std::uint32_t Engine::gc_trigger_blocks() const {
  const auto threshold = static_cast<std::uint32_t>(
      config_.gc_threshold *
      static_cast<double>(config_.geometry.blocks_per_plane));
  return std::max(threshold, config_.gc_reserve_blocks + 1);
}

std::uint32_t Engine::plane_trigger_blocks(std::uint64_t plane) const {
  // Round-robin striping fills every plane at the same rate, so identical
  // triggers make all planes start GC in the same instant — a periodic
  // device-wide stall storm. A deterministic per-plane offset staggers the
  // waves; the offset is capacity-safe (a couple of blocks).
  return gc_trigger_blocks() + static_cast<std::uint32_t>((plane * 2654435761u) % 3);
}

// --- Garbage collection -------------------------------------------------------

bool Engine::is_active_block(std::uint64_t plane, std::uint32_t block) const {
  const auto& active = planes_[plane].active;
  return std::find(active.begin(), active.end(), block) != active.end();
}

std::uint64_t Engine::block_weight(std::uint64_t flat_block) const {
  const nand::BlockInfo& info = array_.block(flat_block);
  if (!victim_weight_) {
    return std::uint64_t{info.valid_pages} * kFullPageWeight;
  }
  std::uint64_t weight = 0;
  array_.for_each_valid_page(flat_block, [&](Ppn ppn) {
    weight += victim_weight_(ppn);
    return true;
  });
  return weight;
}

void Engine::note_page_weight(Ppn ppn, std::uint32_t live_weight) {
  AF_CHECK_MSG(live_weight <= kFullPageWeight, "page weight above full");
  AF_CHECK_MSG(array_.state(ppn) == nand::PageState::kValid,
               "weight push for a non-valid page");
  const std::uint32_t old = page_weight_[ppn.get()];
  if (old == live_weight) return;  // key unchanged; heap entry still current
  const std::uint64_t flat = config_.geometry.block_of(ppn);
  page_weight_[ppn.get()] = static_cast<std::uint16_t>(live_weight);
  cached_weight_[flat] = cached_weight_[flat] - old + live_weight;
  push_victim_key(config_.geometry.plane_of(ppn),
                  static_cast<std::uint32_t>(
                      flat % config_.geometry.blocks_per_plane));
}

void Engine::push_victim_key(std::uint64_t plane, std::uint32_t block) {
  // Active, retired and untouched blocks cannot be victims; each of those
  // states re-pushes on exit (take_frontier / program_on fault abandonment;
  // retirement and erasure are terminal or re-enter via programming).
  if (is_active_block(plane, block)) return;
  const std::uint64_t flat = plane * config_.geometry.blocks_per_plane + block;
  const nand::BlockInfo& info = array_.block(flat);
  if (info.retired || info.written == 0) return;
  auto& heap = planes_[plane].victim_heap;
  heap.push_back(victim_key(cached_weight_[flat],
                            info.fully_written(config_.geometry.pages_per_block),
                            block));
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  ++gc_perf_.heap_pushes;
  // Stale snapshots accumulate between picks; sweep them when the heap far
  // outgrows one entry per block.
  const std::size_t cap = std::max<std::size_t>(
      64, std::size_t{8} * config_.geometry.blocks_per_plane);
  if (heap.size() > cap) rebuild_victim_heap(plane);
}

void Engine::rebuild_victim_heap(std::uint64_t plane) {
  auto& heap = planes_[plane].victim_heap;
  heap.clear();
  for (std::uint32_t b = 0; b < config_.geometry.blocks_per_plane; ++b) {
    if (is_active_block(plane, b)) continue;
    const std::uint64_t flat = plane * config_.geometry.blocks_per_plane + b;
    const nand::BlockInfo& info = array_.block(flat);
    if (info.retired || info.written == 0) continue;
    heap.push_back(victim_key(
        cached_weight_[flat],
        info.fully_written(config_.geometry.pages_per_block), b));
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>{});
  ++gc_perf_.heap_rebuilds;
}

std::uint32_t Engine::pick_victim(std::uint64_t plane) {
  ++gc_perf_.victim_picks;
  const std::uint32_t pages_per_block = config_.geometry.pages_per_block;
  // A block whose live weight matches a full block yields nothing: migrating
  // its content consumes exactly what erasing reclaims (the livelock shape).
  const std::uint64_t full_weight =
      std::uint64_t{pages_per_block} * kFullPageWeight;
  auto& heap = planes_[plane].victim_heap;
  std::uint32_t best = kNoBlock;

  // Lazy deletion: pop entries whose snapshot no longer matches the block's
  // current key (or whose block stopped being a candidate). A non-active
  // block's weight only decreases and its written count is frozen, so its
  // *current* key is never above a stale snapshot — the first fresh entry is
  // the true plane-wide minimum, reproducing the full scan's greedy choice.
  while (!heap.empty()) {
    const std::uint64_t top = heap.front();
    const auto block = static_cast<std::uint32_t>(top & 0xffffffffu);
    const std::uint64_t flat =
        plane * config_.geometry.blocks_per_plane + block;
    const nand::BlockInfo& info = array_.block(flat);
    const bool candidate = !info.retired && info.written > 0 &&
                           !is_active_block(plane, block);
    if (!candidate ||
        top != victim_key(cached_weight_[flat],
                          info.fully_written(pages_per_block), block)) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      heap.pop_back();
      ++gc_perf_.heap_pops;
      continue;
    }
    // Fresh minimum. Left in the heap: until the block's state changes, the
    // next pick answers from the same entry in O(1).
    if ((top >> 33) < full_weight) best = block;
    break;
  }
#if !defined(NDEBUG)
  AF_CHECK_MSG(best == pick_victim_scan(plane),
               "victim index diverged from the reference scan");
  if (best != kNoBlock) {
    const std::uint64_t flat = plane * config_.geometry.blocks_per_plane + best;
    AF_CHECK_MSG(cached_weight_[flat] == block_weight(flat),
                 "victim's cached weight diverged from brute-force recompute");
  }
#endif
  return best;
}

std::uint32_t Engine::pick_victim_scan(std::uint64_t plane) const {
  ++gc_perf_.scan_picks;
  const std::uint32_t pages_per_block = config_.geometry.pages_per_block;
  const std::uint64_t full_weight =
      std::uint64_t{pages_per_block} * kFullPageWeight;
  std::uint32_t best = kNoBlock;
  std::uint64_t best_weight = 0;
  bool best_full = false;

  for (std::uint32_t b = 0; b < config_.geometry.blocks_per_plane; ++b) {
    ++gc_perf_.scan_blocks;
    if (is_active_block(plane, b)) continue;
    const std::uint64_t flat = plane * config_.geometry.blocks_per_plane + b;
    const nand::BlockInfo& info = array_.block(flat);
    if (info.retired) continue;       // grown bad block, out of service
    if (info.written == 0) continue;  // already free
    const std::uint64_t weight = block_weight(flat);
    if (weight >= full_weight) continue;
    const bool full = info.fully_written(pages_per_block);
    // Greedy: least live weight wins; among equals, fully-written blocks
    // win (they waste no unwritten frontier when erased).
    if (best == kNoBlock || weight < best_weight ||
        (weight == best_weight && full && !best_full)) {
      best = b;
      best_weight = weight;
      best_full = full;
    }
  }
  return best;
}

void Engine::rebuild_victim_state() {
  std::fill(page_weight_.begin(), page_weight_.end(), std::uint16_t{0});
  std::fill(cached_weight_.begin(), cached_weight_.end(), std::uint32_t{0});
  for (std::uint64_t p = 0; p < config_.geometry.total_pages(); ++p) {
    const Ppn ppn{p};
    if (array_.state(ppn) != nand::PageState::kValid) continue;
    const std::uint32_t w =
        victim_weight_ ? victim_weight_(ppn) : kFullPageWeight;
    page_weight_[p] = static_cast<std::uint16_t>(w);
    cached_weight_[config_.geometry.block_of(ppn)] += w;
  }
  for (std::uint64_t plane = 0; plane < planes_.size(); ++plane) {
    rebuild_victim_heap(plane);
  }
}

void Engine::rebuild_qos_state() {
  if (!config_.qos.enabled()) return;
  // Pass 1: per-page tenant ownership and live-page counts, re-derived from
  // the durable OOB stamps (1-based; 0 marks engine-owned pages). Quota
  // accounting therefore survives power loss with no extra journaling.
  std::fill(page_tenant_.begin(), page_tenant_.end(), kNoTenant);
  std::fill(tenant_live_pages_.begin(), tenant_live_pages_.end(),
            std::uint64_t{0});
  for (std::uint64_t p = 0; p < config_.geometry.total_pages(); ++p) {
    const Ppn ppn{p};
    if (array_.state(ppn) != nand::PageState::kValid) continue;
    const nand::OobRecord& oob = array_.oob(ppn);
    if (oob.tenant == 0) continue;
    const auto tenant = static_cast<std::uint16_t>(oob.tenant - 1);
    AF_CHECK_MSG(tenant < config_.qos.tenants, "OOB tenant out of range");
    page_tenant_[p] = tenant;
    ++tenant_live_pages_[tenant];
  }
  if (!config_.qos.streams_enabled()) return;
  // Pass 2: re-adopt partially written blocks as per-slot frontiers, so a
  // remount keeps filling tenant-homogeneous blocks instead of abandoning
  // every partial block to GC and mixing tenants into whatever opens next.
  // The slot comes from the durable stream stamp of the block's newest
  // page; a torn tail leaves the block unadopted (its frontier is suspect
  // and GC reclaims it). Per (plane, slot) the newest stamp wins — that
  // block was the slot's active frontier at the cut.
  const std::uint32_t per_block = config_.geometry.pages_per_block;
  for (std::uint64_t plane = 0; plane < planes_.size(); ++plane) {
    std::vector<std::uint64_t> best_seq(stream_slots_, 0);
    for (std::uint32_t b = 0; b < config_.geometry.blocks_per_plane; ++b) {
      const std::uint64_t flat = plane * config_.geometry.blocks_per_plane + b;
      const nand::BlockInfo& info = array_.block(flat);
      if (info.retired || info.written == 0 || info.written >= per_block) {
        continue;
      }
      const Ppn tail{flat * per_block + info.written - 1};
      const nand::OobRecord& oob = array_.oob(tail);
      if (oob.torn) continue;
      const std::uint32_t slot = oob.stream;
      if (slot >= stream_slots_) continue;
      if (info.max_seq <= best_seq[slot]) continue;
      best_seq[slot] = info.max_seq;
      planes_[plane].active[slot] = b;
    }
  }
}

void Engine::verify_victim_accounting() const {
  const auto& geom = config_.geometry;
  const std::uint64_t blocks = geom.total_planes() * geom.blocks_per_plane;
  for (std::uint64_t flat = 0; flat < blocks; ++flat) {
    AF_CHECK_MSG(cached_weight_[flat] == block_weight(flat),
                 "cached block weight drifted from brute-force recompute");
  }
  for (std::uint64_t p = 0; p < geom.total_pages(); ++p) {
    const Ppn ppn{p};
    if (array_.state(ppn) == nand::PageState::kValid) {
      const std::uint32_t expect =
          victim_weight_ ? victim_weight_(ppn) : kFullPageWeight;
      AF_CHECK_MSG(page_weight_[p] == expect,
                   "page weight drifted from the victim-weight oracle");
    } else {
      AF_CHECK_MSG(page_weight_[p] == 0, "non-valid page carries live weight");
    }
  }
}

SimTime Engine::run_gc(std::uint64_t plane, SimTime ready) {
  AF_CHECK_MSG(relocator_, "GC requires a relocator (set_relocator)");
  AF_CHECK_MSG(!in_gc_, "nested GC");
  in_gc_ = true;
  ++gc_runs_;
  SimTime clock = ready;

  // Partial, resumable GC (cf. Sha et al., TACO'21): migrate at most
  // gc_pages_per_pass live pages per invocation, carrying a half-drained
  // victim over to the next invocation, so one pass never injects a long
  // chip-time burst.
  std::uint32_t budget = std::max(1u, config_.gc_pages_per_pass);
  std::uint32_t& victim = planes_[plane].gc_victim;

  while (budget > 0 &&
         free_blocks(plane) < plane_trigger_blocks(plane)) {
    if (victim == kNoBlock) {
      victim = pick_victim(plane);
      if (victim == kNoBlock) break;  // nothing reclaimable in this plane
    }
    const std::uint64_t flat =
        plane * config_.geometry.blocks_per_plane + victim;

    // Allocation-free walk: liveness is checked as each page is visited,
    // which matches the old snapshot iteration because relocation never
    // invalidates a *sibling* page of the victim (streams keep blocks
    // homogeneous, and every relocator touches only the page it was handed).
    array_.for_each_valid_page(flat, [&](Ppn live) {
      if (budget == 0) return false;
      --budget;
      relocate_page(live, plane, clock);
      return true;
    });
    if (array_.block(flat).valid_pages > 0) break;  // budget ran out mid-victim
    clock = recycle_block(plane, victim, clock);
    victim = kNoBlock;
  }
  if (config_.capacity.wear_enabled()) clock = wear_level(plane, clock);
  if (gc_flush_) gc_flush_(plane, clock);

  in_gc_ = false;

  // Free-space floor, distinct from the spare-count floor in
  // note_retirement: at deep wear a GC pass can *lose* ground — relocation
  // burns frontier pages and the faulted erase then retires the victim
  // instead of reclaiming it — so physical free space can run out while
  // every plane still counts enough usable blocks. If reclamation could not
  // hold one free block per plane device-wide, stop taking writes before
  // allocation has nothing left to hand out.
  if (!read_only_ &&
      free_headroom_pages() < config_.geometry.total_planes() *
                                  std::uint64_t{config_.geometry.pages_per_block}) {
    read_only_ = true;
    ++stats_.faults().read_only_entries;
    AF_LOG_WARN(
        "GC cannot hold the free-space floor (%llu pages left device-wide): "
        "device enters read-only mode",
        static_cast<unsigned long long>(free_headroom_pages()));
  }
  return clock;
}

SimTime Engine::wear_level(std::uint64_t plane, SimTime clock) {
  const SsdConfig::CapacityPolicy& cap = config_.capacity;
  const nand::FlashArray::WearSummary wear = array_.wear();
  stats_.faults().wear_spread =
      std::max(stats_.faults().wear_spread, wear.spread());
  if (wear.spread() < cap.wear_spread_threshold) return clock;

  for (std::uint32_t n = 0; n < std::max(1u, cap.wear_migrate_per_pass); ++n) {
    // Leveling is strictly optional work: each migration burns up to a
    // block's worth of frontier pages before its erase pays any back — and
    // at deep wear the erase may retire the block instead. Without this
    // yield a single pass can drop the free pool from comfortable to empty,
    // sailing straight through the free-space floor run_gc checks only at
    // the end. (Migrating cold data on a dying device buys nothing anyway.)
    if (free_headroom_pages() <
        2 * config_.geometry.total_planes() *
            std::uint64_t{config_.geometry.pages_per_block}) {
      break;
    }
    // Steer the migrated data toward the least-worn plane that can absorb a
    // whole block without draining its pool: within-plane leveling alone
    // cannot narrow the device spread when the imbalance is the per-plane
    // GC rate itself — a plane pinning more cold data erases more, and
    // re-homing that data in place preserves the skew. Re-evaluated per
    // block because each migration shifts a block of slack between planes.
    std::uint64_t target = plane;
    std::uint64_t target_erases = std::numeric_limits<std::uint64_t>::max();
    for (std::uint64_t q = 0; q < config_.geometry.total_planes(); ++q) {
      if (free_blocks(q) < 2) continue;
      std::uint64_t erases = 0;
      const std::uint64_t base = q * config_.geometry.blocks_per_plane;
      for (std::uint32_t b = 0; b < config_.geometry.blocks_per_plane; ++b) {
        erases += array_.block(base + b).erase_count;
      }
      if (erases < target_erases) {
        target_erases = erases;
        target = q;
      }
    }
    // Opportunistic, never mandatory: with no slack anywhere, skip the pass
    // rather than eat the last reserve a GC spill might need.
    if (target == plane && free_blocks(plane) == 0) break;
    wear_target_ = target;

    const std::uint32_t cold = pick_cold_block(plane);
    if (cold == kNoBlock) break;
    const std::uint64_t flat =
        plane * config_.geometry.blocks_per_plane + cold;
    array_.for_each_valid_page(flat, [&](Ppn live) {
      relocate_page(live, target, clock);
      return true;
    });
    clock = recycle_block(plane, cold, clock);
    ++stats_.faults().wear_level_migrations;
    if (array_.wear().spread() < cap.wear_spread_threshold) break;
  }
  wear_target_ = kNoPlane;
  return clock;
}

SimTime Engine::recycle_block(std::uint64_t plane, std::uint32_t block,
                              SimTime clock) {
  const std::uint64_t flat = plane * config_.geometry.blocks_per_plane + block;
  AF_CHECK_MSG(cached_weight_[flat] == 0,
               "recycled block still carries cached live weight");
  // Crash-safe erase: with a power cut armed, chunks staged off this block
  // must be durable before its erase destroys their OOB records (real
  // controllers hold the erase for the same reason). Without a cut armed
  // the end-of-pass flush keeps the cheaper cross-victim packing.
  if (gc_flush_ && array_.power_cut_armed()) gc_flush_(plane, clock);

  // The erase (or the retirement a failed erase turns into) destroys every
  // raw page in the block; stripes touching it lose their protection now.
  break_stripes_in(flat);

  const nand::PhysAddr addr =
      config_.geometry.decode(Ppn{flat * config_.geometry.pages_per_block});
  const ResourceTimeline::Span span =
      timeline_.schedule_erase_span(addr, clock, slow_of(addr));
  arm_background(addr, nand::SuspendSlot::Kind::kErase, span);
  if (array_.erase_block(flat)) {
    stats_.count_erase();
    planes_[plane].free_blocks.push_back(block);
  } else {
    // Erase failure: the array retired the block (grown bad block). It
    // never returns to the free list — the plane's spare capacity shrank.
    ++stats_.faults().erase_faults;
    ++stats_.faults().retired_blocks;
    note_retirement(plane);
  }
  return span.done;
}

void Engine::arm_background(const nand::PhysAddr& addr,
                            nand::SuspendSlot::Kind kind,
                            ResourceTimeline::Span span) {
  if (!config_.deadline.preempt) return;
  array_.arm_suspendable(config_.geometry.chip_index(addr), kind, span.start,
                         span.done);
}

std::uint32_t Engine::pick_cold_block(std::uint64_t plane) const {
  std::uint32_t best = kNoBlock;
  std::uint64_t best_erases = UINT64_MAX;
  for (std::uint32_t b = 0; b < config_.geometry.blocks_per_plane; ++b) {
    if (is_active_block(plane, b) || b == planes_[plane].gc_victim) continue;
    const std::uint64_t flat = plane * config_.geometry.blocks_per_plane + b;
    const nand::BlockInfo& info = array_.block(flat);
    // Free blocks re-age the moment they are reused; only a written block
    // pins its (possibly cold) data away from the erase rotation.
    if (info.retired || info.written == 0) continue;
    if (info.erase_count < best_erases) {
      best = b;
      best_erases = info.erase_count;
    }
  }
  return best;
}

Engine::Programmed Engine::gc_program(std::uint64_t plane,
                                      nand::PageOwner owner, SimTime ready,
                                      const nand::OobExtra* oob) {
  AF_CHECK_MSG(in_gc_, "gc_program outside GC");
  // Relocations of a tenant's pages stay tenant-affine: under per-tenant
  // streams they fill the tenant's GC slot (and are re-stamped with the
  // tenant), keeping blocks tenant-homogeneous through GC churn.
  const std::uint16_t tenant = gc_relocating_tenant_;
  const std::uint32_t slot = gc_slot(tenant);
  std::uint64_t target = plane;
  if (wear_target_ != kNoPlane && plane_has_space(wear_target_, slot)) {
    target = wear_target_;  // best-effort: never eat another plane's reserve
  }
  if (!plane_has_space(target, slot)) {
    // Reserve exhausted in this plane (pathological); spill anywhere.
    target = pick_plane(slot);
  }
  return program_on(target, slot, owner, OpKind::kGcWrite, ready, oob, tenant);
}

void Engine::relocate_page(Ppn live, std::uint64_t plane, SimTime& clock) {
  using Kind = nand::PageOwner::Kind;
  const nand::PageOwner owner = array_.owner(live);
  if (owner.kind != Kind::kMap && owner.kind != Kind::kCkpt &&
      owner.kind != Kind::kParity) {
    // Scheme-owned data page: remember whose page is moving so the nested
    // gc_program (reached via the relocator's engine calls) lands it in the
    // owning tenant's slot and charges that tenant's GC debt — not the
    // tenant whose foreground write happened to trigger this GC.
    if (!page_tenant_.empty()) {
      const std::uint16_t tenant = page_tenant_[live.get()];
      gc_relocating_tenant_ = tenant;
      if (tenant != kNoTenant) {
        ++stats_.tenant(tenant).gc_pages;
        ++tenant_gc_debt_[tenant];
      }
    }
    relocator_(live, owner, clock);
    gc_relocating_tenant_ = kNoTenant;
    return;
  }

  // Engine-owned page (translation, checkpoint journal, parity): read it,
  // program the copy into the GC stream, repoint its owner's directory at
  // the copy, and drop the original.
  const ReadResult read = flash_read(live, OpKind::kGcRead, clock);
  clock = read.done;
  const bool parity = owner.kind == Kind::kParity;
  if (parity) {
    AF_CHECK(stripes_ != nullptr);
    if (read.data_lost()) {
      // An unreadable parity page (cannot even be rebuilt) just lapses its
      // stripe's protection.
      stripes_->drop(owner.id);
      ++stats_.faults().stripes_broken;
      invalidate(live);
      return;
    }
    in_parity_ = true;  // the copy keeps stamping the stripe it seals
    sealing_stripe_ = owner.id;
  }
  const Programmed moved = gc_program(plane, owner, clock);
  in_parity_ = false;
  clock = moved.done;
  if (owner.kind == Kind::kMap) {  // the GTD entry
    if (array_.tracks_payload()) copy_stamps(live, moved.ppn);
    AF_CHECK(map_ != nullptr);
    map_->on_relocated(owner.id, moved.ppn);
  } else if (owner.kind == Kind::kCkpt) {  // the journal root
    array_.move_ckpt_blob(live, moved.ppn);
    if (ckpt_moved_) ckpt_moved_(live, moved.ppn);
  } else {  // the stripe directory
    stripes_->on_parity_moved(live, moved.ppn);
  }
  invalidate(live);
}

void Engine::seal_stripe(SimTime ready) {
  AF_CHECK(stripes_ != nullptr);
  StripeTracker::OpenStripe open = stripes_->take_open();
  in_parity_ = true;
  sealing_stripe_ = open.id;
  const Programmed parity =
      program_on(pick_plane(slot_of(Stream::kParity)), slot_of(Stream::kParity),
                 nand::PageOwner::parity(open.id), OpKind::kParityWrite, ready,
                 /*oob=*/nullptr);
  in_parity_ = false;
  ++stats_.faults().parity_writes;
  stripes_->seal(open.id, std::move(open.members), parity.ppn);
}

void Engine::break_stripes_in(std::uint64_t flat_block) {
  if (stripes_ == nullptr) return;
  const std::uint64_t first = flat_block * config_.geometry.pages_per_block;
  const std::uint64_t broken = stripes_->on_block_destroyed(
      first, config_.geometry.pages_per_block, [&](Ppn parity) {
        // The stripe is gone but its parity page survives elsewhere; it
        // protects nothing any more, so free it for GC to reclaim.
        if (array_.state(parity) == nand::PageState::kValid) {
          invalidate(parity);
        }
      });
  stats_.faults().stripes_broken += broken;
}

SimTime Engine::scrub_read(Ppn ppn, SimTime ready) {
  AF_CHECK_MSG(array_.state(ppn) == nand::PageState::kValid,
               "scrub read of non-valid page");
  // Health-check sensing only: no transient-failure draw and no ECC ladder.
  // The scrubber acts on the page's deterministic expected BER, so the
  // sweep never consumes RNG and cannot perturb the fault schedules.
  return sense(ppn, OpKind::kScrubRead, ready, /*account=*/false);
}

SimTime Engine::scrub_relocate(Ppn ppn, SimTime ready) {
  AF_CHECK_MSG(!in_gc_, "scrub relocation during GC");
  AF_CHECK_MSG(relocator_, "scrub requires a relocator (set_relocator)");
  // Borrow the GC allowances: the page moves into the GC stream through
  // gc_program, so mapping updates, OOB stamps and weight caches follow the
  // battle-tested relocation path, and the fresh program restarts the
  // page's retention clock.
  in_gc_ = true;
  SimTime clock = ready;
  const std::uint64_t plane = config_.geometry.plane_of(ppn);
  relocate_page(ppn, plane, clock);
  if (gc_flush_) gc_flush_(plane, clock);
  in_gc_ = false;
  ++stats_.faults().scrub_relocations;
  // The copy (and any parity seal it caused) bypassed the per-program
  // threshold check host writes get, and it may have spilled off this
  // plane — so a refresh burst could outrun reclamation. Restore the
  // free-block invariant before handing the device back.
  for (std::uint64_t p = 0; p < config_.geometry.total_planes(); ++p) {
    std::uint64_t before = free_blocks(p);
    while (free_blocks(p) < plane_trigger_blocks(p)) {
      clock = run_gc(p, clock);
      const std::uint64_t now = free_blocks(p);
      if (now <= before) break;  // nothing reclaimable: don't spin
      before = now;
    }
  }
  return clock;
}

std::uint64_t Engine::rebuild_parity_state() {
  if (stripes_ == nullptr) return 0;
  return stripes_->rebuild(array_);
}

void Engine::note_retirement(std::uint64_t plane) {
  ++planes_[plane].retired;
  const std::uint32_t usable =
      config_.geometry.blocks_per_plane - planes_[plane].retired;
  const std::uint32_t floor = gc_trigger_blocks() + config_.gc_reserve_blocks +
                              config_.degrade_margin_blocks;
  AF_LOG_INFO("retired block in plane %llu (%u retired, %u usable)",
              static_cast<unsigned long long>(plane), planes_[plane].retired,
              usable);
  if (!read_only_ && usable < floor) {
    // Spares exhausted: below this floor the plane cannot sustain GC
    // headroom, so accepting more writes risks wedging the device and
    // losing mapped data. Degrade to read-only instead.
    read_only_ = true;
    ++stats_.faults().read_only_entries;
    AF_LOG_WARN(
        "plane %llu down to %u usable blocks (floor %u): "
        "device enters read-only mode",
        static_cast<unsigned long long>(plane), usable, floor);
  }
}

// --- Stamps ------------------------------------------------------------------

void Engine::write_stamp(Ppn ppn, std::uint32_t sector_in_page,
                         std::uint64_t stamp) {
  array_.set_stamp(ppn, sector_in_page, stamp);
}

std::uint64_t Engine::read_stamp(Ppn ppn, std::uint32_t sector_in_page) const {
  return array_.stamp(ppn, sector_in_page);
}

void Engine::copy_stamps(Ppn from, Ppn to) {
  for (std::uint32_t s = 0; s < config_.geometry.sectors_per_page(); ++s) {
    array_.set_stamp(to, s, array_.stamp(from, s));
  }
}

}  // namespace af::ssd
