#include "tenant/manager.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/check.h"

namespace s4d::tenant {

namespace {
// EWMA smoothing for the sizer's useful-hit ratio and the endurance
// write-rate estimate.
constexpr double kUsefulAlpha = 0.3;
constexpr double kRateAlpha = 0.3;
// Keeps a tenant with no measured reuse from being squeezed to its floor
// outright — every tenant retains a sliver of the adjustable pool.
constexpr double kWeightEpsilon = 0.01;
}  // namespace

TenantManager::TenantManager(sim::Engine& engine, TenantRegistry registry,
                             obs::Observability* obs)
    : engine_(engine), registry_(std::move(registry)), obs_(obs) {
  const auto n = static_cast<std::size_t>(registry_.count());
  S4D_CHECK(n > 0) << "tenant registry with no tenants";
  stats_.resize(n);
  useful_ewma_.assign(n, 0.0);
  window_requests_.assign(n, 0);
  window_useful_.assign(n, 0);
  window_ghost_hits_.assign(n, 0);
  window_outcomes_.assign(n, 0);
  write_rate_bps_.assign(n, 0.0);
  rate_window_bytes_.assign(n, 0);
  const std::size_t ghost_capacity = registry_.config().ghost_capacity;
  for (std::size_t t = 0; t < n; ++t) {
    ghosts_.push_back(ghost_capacity > 0
                          ? std::make_unique<GhostCache>(ghost_capacity)
                          : nullptr);
  }
}

TenantManager::~TenantManager() {
  if (sizer_tick_ != sim::kInvalidEvent) {
    engine_.Cancel(sizer_tick_);
    sizer_tick_ = sim::kInvalidEvent;
  }
}

void TenantManager::Attach(core::S4DCache& cache) {
  S4D_CHECK(cache_ == nullptr) << "TenantManager attached twice";
  cache_ = &cache;
  const TenantsConfig& cfg = registry_.config();

  core::CacheSpaceAllocator& space = cache.cache_space();
  space.EnablePartitionTracking(count());
  TenantRegistry::Partition partition =
      registry_.ResolveQuotas(space.capacity());
  quota_ = std::move(partition.quota);
  floor_ = std::move(partition.floor);

  // Endurance rate windows ride the sizer period; without a sizer, fold at
  // a fixed cadence so write-rate EWMAs still converge.
  rate_window_len_ =
      cfg.sizer_interval > 0 ? cfg.sizer_interval : FromMillis(100);
  rate_window_start_ = engine_.now();

  // Attribution: tag every foreground request's plan with its tenant.
  cache.SetRequestStartHook(
      [this](const mpiio::FileRequest& request, device::IoKind kind) {
        OnRequestStart(request, kind);
      });

  // Outcomes: per-tenant hit/reuse/write accounting (chains any installed
  // policy observer).
  prev_observer_ = cache.request_observer();
  cache.SetRequestObserver([this](const core::RequestOutcome& outcome) {
    OnOutcome(outcome);
  });

  // Removals: populate the owning tenant's ghost list (the owner is
  // resolved before the allocator frees the range). In enforce mode the
  // victim provider becomes partition-aware; in observe mode victim
  // selection stays the paper's clean-LRU.
  core::Redirector& redirector = cache.redirector();
  core::Redirector::VictimProvider provider;
  if (cfg.mode == TenantMode::kEnforce) {
    provider = [this]() { return SelectVictim(); };
    redirector.SetFreeSpaceGate(
        [this](byte_count size) { return AllowFreeAllocation(size); });
    // Keep the over-quota reclaim index current as usage changes, instead
    // of rescanning every partition inside each victim selection.
    enforce_index_ = true;
    over_excess_.assign(static_cast<std::size_t>(count()), 0);
    space.SetUsageListener([this](int owner) { RefreshOverIndex(owner); });
    for (int t = 0; t < count(); ++t) RefreshOverIndex(t);
  }
  redirector.SetEvictionHooks(
      std::move(provider),
      [this](const core::RemovedExtent& extent, bool evicted) {
        OnRemoved(extent, evicted);
      });

  // Endurance-aware admission composes after the installed filter: it can
  // only veto, never admit what the model (or policy) rejected.
  if (cfg.endurance) {
    prev_filter_ = cache.identifier().admission_filter();
    cache.identifier().SetAdmissionFilter(
        [this](const core::AdmissionContext& ctx) {
          const bool inner =
              prev_filter_ ? prev_filter_(ctx) : ctx.model_critical;
          return AdmitEndurance(ctx, inner);
        });
  }

  prev_audit_ = cache.extra_audit();
  cache.SetExtraAudit([this]() {
    if (prev_audit_) prev_audit_();
    AuditInvariants();
  });

  SetupObservability();
  if (cfg.sizer_interval > 0) ScheduleSizer();
}

int TenantManager::CurrentTenant() const {
  const int owner = cache_->redirector().charge_owner();
  return (owner >= 0 && owner < count()) ? owner : 0;
}

byte_count TenantManager::used(int t) const {
  return cache_ != nullptr ? cache_->cache_space().used_by(t) : 0;
}

bool TenantManager::AllowFreeAllocation(byte_count size) {
  const int t = CurrentTenant();
  const core::CacheSpaceAllocator& space = cache_->cache_space();
  if (space.used_by(t) + size <= quota_[static_cast<std::size_t>(t)]) {
    return true;
  }
  // Borrowable slack: free space beyond what other tenants' hard floors
  // still have outstanding may be taken past the quota.
  byte_count reserved = 0;
  for (int o = 0; o < count(); ++o) {
    if (o == t) continue;
    reserved += std::max<byte_count>(
        0, floor_[static_cast<std::size_t>(o)] - space.used_by(o));
  }
  return space.free_bytes() >= size + reserved;
}

void TenantManager::RefreshOverIndex(int owner) {
  if (!enforce_index_) return;
  const auto o = static_cast<std::size_t>(owner);
  const byte_count excess = std::max<byte_count>(
      0, cache_->cache_space().used_by(owner) - quota_[o]);
  if (excess == over_excess_[o]) return;
  if (over_excess_[o] > 0) over_index_.erase({over_excess_[o], owner});
  if (excess > 0) over_index_.insert({excess, owner});
  over_excess_[o] = excess;
}

std::optional<core::RemovedExtent> TenantManager::SelectVictim() {
  core::CacheSpaceAllocator& space = cache_->cache_space();
  core::DataMappingTable& dmt = cache_->dmt();
  const int t = CurrentTenant();
  const auto owner_is = [&space](int target) {
    return [&space, target](const core::RemovedExtent& e) {
      return space.OwnerOf(e.cache_offset, e.length()) == target;
    };
  };
  // 1. Reclaim from over-quota partitions first, most over first (ties to
  //    the lowest tenant index for determinism). The index is maintained
  //    incrementally by the allocator's usage listener; a successful
  //    eviction returns before the ensuing Free mutates the index, and a
  //    failed probe (no clean extent owned by `o`) mutates nothing, so
  //    iterating the live set is safe.
  for (const auto& [excess, o] : over_index_) {
    if (auto victim = dmt.EvictLruCleanIf(owner_is(o))) return victim;
  }
  // 2. The requester's own partition (its floor protects it from others,
  //    not from itself).
  if (auto victim = dmt.EvictLruCleanIf(owner_is(t))) return victim;
  // 3. Anyone still above their hard floor.
  return dmt.EvictLruCleanIf([this, &space, t](const core::RemovedExtent& e) {
    const int o = space.OwnerOf(e.cache_offset, e.length());
    if (o < 0 || o >= count()) return true;  // unattributed slack
    return o == t || space.used_by(o) > floor_[static_cast<std::size_t>(o)];
  });
}

bool TenantManager::AdmitEndurance(const core::AdmissionContext& ctx,
                                   bool inner_verdict) {
  if (!inner_verdict) return false;
  const TenantsConfig& cfg = registry_.config();
  const int t = TenantOfRank(ctx.rank);
  TenantStats& s = stats_[static_cast<std::size_t>(t)];
  // LBICA-style saturation veto: a saturated cache tier serves admissions
  // slower than the model believes; shed them.
  if (cfg.pressure_max_queue > 0.0 &&
      cache_->CacheTierMeanQueueDepth() > cfg.pressure_max_queue) {
    ++s.pressure_vetoes;
    return false;
  }
  // End-of-life veto: stop converting SSD lifetime into hit ratio once the
  // wear budget is spent.
  if (cache_->CacheTierWearFraction() >= cfg.wear_veto_fraction) {
    ++s.wear_vetoes;
    return false;
  }
  const double budget =
      registry_.spec(t).write_budget_bps;
  if (budget > 0.0) {
    const double utilization = write_rate_bps_[static_cast<std::size_t>(t)] /
                               budget;
    if (utilization >= 1.0) {
      ++s.endurance_vetoes;  // over budget: hard veto
      return false;
    }
    // Near the budget, B must also beat a write-cost term that grows with
    // utilization (ECI-Cache's write-constrained admission, expressed in
    // the paper's benefit units).
    const double write_cost = utilization * static_cast<double>(ctx.size) *
                              cfg.write_cost_ns_per_byte;
    if (write_cost > 0.0 && static_cast<double>(ctx.benefit) <= write_cost) {
      ++s.endurance_vetoes;
      return false;
    }
  }
  return true;
}

void TenantManager::OnRequestStart(const mpiio::FileRequest& request,
                                   device::IoKind kind) {
  FoldRateWindow();
  const int t = TenantOfRank(request.rank);
  cache_->redirector().set_charge_owner(t);
  TenantStats& s = stats_[static_cast<std::size_t>(t)];
  ++s.requests;
  if (kind == device::IoKind::kRead) ++s.read_requests;
  ++window_requests_[static_cast<std::size_t>(t)];
  GhostCache* ghost = ghosts_[static_cast<std::size_t>(t)].get();
  if (ghost != nullptr && ghost->Probe(request.file, request.offset,
                                       request.offset + request.size)) {
    ++s.ghost_hits;
    ++window_ghost_hits_[static_cast<std::size_t>(t)];
  }
}

void TenantManager::OnOutcome(const core::RequestOutcome& outcome) {
  if (prev_observer_) prev_observer_(outcome);
  const int t = TenantOfRank(outcome.rank);
  TenantStats& s = stats_[static_cast<std::size_t>(t)];
  ++window_outcomes_[static_cast<std::size_t>(t)];
  if (outcome.cache_bytes > 0) {
    ++s.hits;
    if (!outcome.admitted) {
      // Served by a pre-existing mapping: genuine reuse, the signal the
      // sizer divides capacity by (first-touch admissions are not).
      ++s.useful_hits;
      ++window_useful_[static_cast<std::size_t>(t)];
    }
    if (outcome.kind == device::IoKind::kWrite) {
      s.cache_write_bytes += outcome.cache_bytes;
      rate_window_bytes_[static_cast<std::size_t>(t)] += outcome.cache_bytes;
    }
  }
}

void TenantManager::OnRemoved(const core::RemovedExtent& extent,
                              bool evicted) {
  if (!evicted) return;  // invalidations are not would-have-hit evidence
  int owner = cache_->cache_space().OwnerOf(extent.cache_offset,
                                            extent.length());
  if (owner < 0 || owner >= count()) owner = 0;
  GhostCache* ghost = ghosts_[static_cast<std::size_t>(owner)].get();
  if (ghost != nullptr) {
    ghost->Insert(extent.file, extent.orig_begin, extent.orig_end);
  }
}

void TenantManager::FoldRateWindow() {
  const SimTime now = engine_.now();
  if (rate_window_len_ <= 0 || now - rate_window_start_ < rate_window_len_) {
    return;
  }
  const double seconds =
      static_cast<double>(now - rate_window_start_) * 1e-9;
  for (std::size_t t = 0; t < write_rate_bps_.size(); ++t) {
    const double rate = static_cast<double>(rate_window_bytes_[t]) / seconds;
    write_rate_bps_[t] = write_rate_bps_[t] == 0.0
                             ? rate
                             : kRateAlpha * rate +
                                   (1.0 - kRateAlpha) * write_rate_bps_[t];
    rate_window_bytes_[t] = 0;
  }
  rate_window_start_ = now;
}

void TenantManager::ScheduleSizer() {
  sizer_tick_ = engine_.ScheduleAfter(registry_.config().sizer_interval,
                                      [this]() {
                                        sizer_tick_ = sim::kInvalidEvent;
                                        SizerTick();
                                      });
}

void TenantManager::SizerTick() {
  FoldRateWindow();
  const core::CacheSpaceAllocator& space = cache_->cache_space();
  const auto n = static_cast<std::size_t>(count());

  // EWMA the window's useful-hit ratio (reuse + ghost would-have-hits per
  // request — ECI-Cache's division signal). Idle tenants keep their last
  // estimate.
  for (std::size_t t = 0; t < n; ++t) {
    if (window_requests_[t] > 0) {
      const double ratio =
          static_cast<double>(window_useful_[t] + window_ghost_hits_[t]) /
          static_cast<double>(window_requests_[t]);
      useful_ewma_[t] = kUsefulAlpha * ratio +
                        (1.0 - kUsefulAlpha) * useful_ewma_[t];
    }
  }

  // Re-divide the pool above the floors in proportion to the EWMAs.
  byte_count floors_sum = 0;
  double weight_sum = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    floors_sum += floor_[t];
    weight_sum += useful_ewma_[t] + kWeightEpsilon;
  }
  const byte_count pool = std::max<byte_count>(
      0, space.capacity() - floors_sum);
  byte_count assigned = 0;
  bool changed = false;
  for (std::size_t t = 0; t < n; ++t) {
    byte_count share;
    if (t + 1 == n) {
      share = pool - assigned;  // the last tenant absorbs rounding
    } else {
      share = static_cast<byte_count>(
          static_cast<double>(pool) * (useful_ewma_[t] + kWeightEpsilon) /
          weight_sum);
      assigned += share;
    }
    const byte_count quota = floor_[t] + share;
    if (quota != quota_[t]) changed = true;
    quota_[t] = quota;
    RefreshOverIndex(static_cast<int>(t));  // excess depends on the quota
  }
  if (changed) ++resizes_;

  if (obs_ != nullptr && obs_->tracing()) {
    for (std::size_t t = 0; t < n; ++t) {
      const obs::SpanId i =
          obs_->tracer.Instant(lane_, "tenant.window", "tenant", engine_.now());
      obs_->tracer.AddArg(i, "tenant", registry_.spec(static_cast<int>(t)).name);
      obs_->tracer.AddArg(i, "used_bytes",
                          space.used_by(static_cast<int>(t)));
      obs_->tracer.AddArg(i, "quota_bytes", quota_[t]);
      obs_->tracer.AddArg(i, "requests", window_requests_[t]);
      obs_->tracer.AddArg(i, "useful", window_useful_[t]);
      obs_->tracer.AddArg(i, "ghost_hits", window_ghost_hits_[t]);
      obs_->tracer.AddArg(
          i, "ewma_x1000",
          static_cast<std::int64_t>(useful_ewma_[t] * 1000.0));
      obs_->tracer.AddArg(
          i, "write_mbps_x100",
          static_cast<std::int64_t>(write_rate_bps_[t] / 1e6 * 100.0));
    }
  }

  for (std::size_t t = 0; t < n; ++t) {
    window_requests_[t] = 0;
    window_useful_[t] = 0;
    window_ghost_hits_[t] = 0;
    window_outcomes_[t] = 0;
  }
  ScheduleSizer();
}

void TenantManager::SetupObservability() {
  if (obs_ == nullptr) return;
  lane_ = obs_->tracer.Lane("tenant");
  obs::MetricsRegistry& m = obs_->metrics;
  for (int t = 0; t < count(); ++t) {
    const std::string prefix = "tenant." + registry_.spec(t).name;
    m.SetGaugeFn(prefix + ".used_bytes", [this, t]() {
      return static_cast<double>(used(t));
    });
    m.SetGaugeFn(prefix + ".quota_bytes", [this, t]() {
      return static_cast<double>(quota(t));
    });
    m.SetGaugeFn(prefix + ".hit_ratio",
                 [this, t]() { return stats(t).hit_ratio(); });
    m.SetGaugeFn(prefix + ".cache_write_bytes", [this, t]() {
      return static_cast<double>(stats(t).cache_write_bytes);
    });
    m.SetGaugeFn(prefix + ".ghost_hits", [this, t]() {
      return static_cast<double>(stats(t).ghost_hits);
    });
  }
  m.SetGaugeFn("tenant.cache_wear_fraction", [this]() {
    return cache_ != nullptr ? cache_->CacheTierWearFraction() : 0.0;
  });
}

void TenantManager::AuditInvariants() const {
  const auto n = static_cast<std::size_t>(count());
  S4D_CHECK(quota_.size() == n && floor_.size() == n)
      << "partition vectors not sized to " << n << " tenants";
  byte_count quota_sum = 0;
  for (std::size_t t = 0; t < n; ++t) {
    S4D_CHECK(quota_[t] >= floor_[t])
        << "tenant " << registry_.spec(static_cast<int>(t)).name << " quota "
        << quota_[t] << " below its floor " << floor_[t];
    S4D_CHECK(floor_[t] >= 0) << "negative floor for tenant " << t;
    quota_sum += quota_[t];
  }
  if (cache_ != nullptr) {
    S4D_CHECK(quota_sum <= cache_->cache_space().capacity())
        << "quotas sum to " << quota_sum << " > capacity "
        << cache_->cache_space().capacity();
  }
  if (enforce_index_) {
    // The incremental over-quota index must agree with a fresh scan.
    std::size_t over_count = 0;
    for (std::size_t t = 0; t < n; ++t) {
      const byte_count excess = std::max<byte_count>(
          0, cache_->cache_space().used_by(static_cast<int>(t)) - quota_[t]);
      S4D_CHECK(over_excess_[t] == excess)
          << "over-quota index stale for tenant " << t << ": indexed "
          << over_excess_[t] << ", actual " << excess;
      if (excess > 0) {
        ++over_count;
        S4D_CHECK(over_index_.count({excess, static_cast<int>(t)}) == 1)
            << "tenant " << t << " missing from the over-quota index";
      }
    }
    S4D_CHECK(over_index_.size() == over_count)
        << "over-quota index holds " << over_index_.size() << " entries, "
        << over_count << " tenants are over quota";
  }
  for (std::size_t t = 0; t < n; ++t) {
    const TenantStats& s = stats_[t];
    S4D_CHECK(s.hits <= s.requests)
        << s.hits << " hits of " << s.requests << " requests";
    S4D_CHECK(s.useful_hits <= s.hits)
        << s.useful_hits << " useful of " << s.hits << " hits";
    S4D_CHECK(s.read_requests <= s.requests)
        << s.read_requests << " reads of " << s.requests << " requests";
    // Requests are window-counted at issue, useful hits at completion, so
    // a request spanning a sizer tick can complete into a window with zero
    // recorded starts — compare against completions, not issues.
    S4D_CHECK(window_useful_[t] <= window_outcomes_[t])
        << "window useful " << window_useful_[t] << " > window outcomes "
        << window_outcomes_[t];
    if (ghosts_[t] != nullptr) ghosts_[t]->AuditInvariants();
  }
}

void TenantManager::PrintReport() const {
  std::printf("\n-- tenants (%s%s) --\n",
              TenantModeName(registry_.config().mode),
              registry_.config().endurance ? ", endurance" : "");
  std::printf("%-12s %10s %10s %10s %10s %7s %8s %10s %8s\n", "tenant",
              "used_MB", "quota_MB", "floor_MB", "requests", "hit%",
              "ghost", "write_MB", "vetoes");
  for (int t = 0; t < count(); ++t) {
    const TenantStats& s = stats(t);
    std::printf("%-12s %10.1f %10.1f %10.1f %10lld %7.1f %8lld %10.1f %8lld\n",
                registry_.spec(t).name.c_str(),
                static_cast<double>(used(t)) / 1e6,
                static_cast<double>(quota(t)) / 1e6,
                static_cast<double>(floor(t)) / 1e6,
                static_cast<long long>(s.requests), s.hit_ratio() * 100.0,
                static_cast<long long>(s.ghost_hits),
                static_cast<double>(s.cache_write_bytes) / 1e6,
                static_cast<long long>(s.endurance_vetoes + s.pressure_vetoes +
                                       s.wear_vetoes));
  }
}

}  // namespace s4d::tenant
