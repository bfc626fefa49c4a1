// TenantManager: the multi-tenant partitioning subsystem's front door.
//
// Wires a TenantRegistry into an S4DCache through the core's hook points
// (the core never depends on this library, mirroring src/policy):
//
//   attribution — the request-start hook maps the issuing rank to its
//                 tenant and tags the Redirector (set_charge_owner), so
//                 every byte the plan allocates — including the Rebuilder's
//                 later background fetch of a C_flagged range — is charged
//                 to that tenant's partition.
//   partitions  — CacheSpaceAllocator partition tracking gives per-tenant
//                 used-byte accounting; in enforce mode the free-space gate
//                 caps each tenant at its quota (with borrowable slack
//                 above other tenants' hard floors) and the victim provider
//                 constrains eviction: over-quota partitions are reclaimed
//                 first, then the requester's own, then any partition still
//                 above its floor. Floors are never breached by another
//                 tenant's allocation.
//   sizing      — an online PartitionSizer periodically re-divides the
//                 capacity above the floors in proportion to each tenant's
//                 EWMA *useful* hit ratio (reuse hits plus per-tenant ghost
//                 evidence — ECI-Cache's division rule).
//   endurance   — with `endurance = on`, admission composes a write-cost
//                 stage after the installed filter: saturation (pressure
//                 probe) and SSD end-of-life (wear model) veto globally,
//                 and a tenant near its cache-write budget must clear a
//                 benefit bar that rises with its budget utilization —
//                 over budget, admissions stop outright.
//
// With one catch-all tenant in enforce mode and endurance off, every
// decision reduces to the unpartitioned behaviour (the gate always passes,
// the victim scan degenerates to global clean-LRU) — pinned byte-identical
// by the equivalence test. When a PolicyEngine is also attached, attach the
// TenantManager *after* it: the admission filter and outcome observer
// chain. The TenantManager owns the Redirector's eviction hooks: in enforce
// mode its partition-constrained victim provider is a hard containment
// guarantee (within a partition the order is clean-LRU).
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/s4d_cache.h"
#include "obs/observability.h"
#include "sim/engine.h"
#include "tenant/ghost_cache.h"
#include "tenant/registry.h"

namespace s4d::tenant {

struct TenantStats {
  std::int64_t requests = 0;
  std::int64_t read_requests = 0;
  // Requests served (at least partly) from the cache tier.
  std::int64_t hits = 0;
  // Hits against a pre-existing mapping — reuse, not first-touch admission.
  std::int64_t useful_hits = 0;
  // Would-have-hit evidence from this tenant's ghost list.
  std::int64_t ghost_hits = 0;
  // Foreground bytes written to the cache tier (SSD wear attribution).
  byte_count cache_write_bytes = 0;
  // Endurance/pressure admission vetoes.
  std::int64_t endurance_vetoes = 0;
  std::int64_t pressure_vetoes = 0;
  std::int64_t wear_vetoes = 0;

  double hit_ratio() const {
    return requests > 0
               ? static_cast<double>(hits) / static_cast<double>(requests)
               : 0.0;
  }
};

class TenantManager {
 public:
  TenantManager(sim::Engine& engine, TenantRegistry registry,
                obs::Observability* obs = nullptr);
  ~TenantManager();

  // Installs every hook into `cache`. Call once, before traffic — and after
  // a PolicyEngine::Attach when one is present, so the previously installed
  // hooks chain.
  void Attach(core::S4DCache& cache);

  const TenantRegistry& registry() const { return registry_; }
  int count() const { return registry_.count(); }
  const TenantStats& stats(int t) const {
    return stats_.at(static_cast<std::size_t>(t));
  }
  byte_count quota(int t) const {
    return quota_.at(static_cast<std::size_t>(t));
  }
  byte_count floor(int t) const {
    return floor_.at(static_cast<std::size_t>(t));
  }
  byte_count used(int t) const;
  std::int64_t resizes() const { return resizes_; }
  // EWMA of the useful-hit ratio the sizer divides capacity by.
  double useful_ewma(int t) const {
    return useful_ewma_.at(static_cast<std::size_t>(t));
  }

  // S4D_CHECKs the partition bookkeeping: quotas respect floors and sum to
  // the capacity, per-tenant counters are mutually consistent, and every
  // ghost list's own invariants hold. Registered as (part of) the cache's
  // extra audit, so it also rides the paranoid-build periodic audits.
  void AuditInvariants() const;

  // One formatted per-tenant summary table (used by s4dsim's report).
  void PrintReport() const;

 private:
  int TenantOfRank(int rank) const { return registry_.TenantOf(rank); }
  // The tenant charged for the allocation currently being planned (set by
  // the request-start hook for foreground ops, by the Rebuilder for
  // fetches).
  int CurrentTenant() const;

  bool AllowFreeAllocation(byte_count size);
  std::optional<core::RemovedExtent> SelectVictim();
  // Incremental over-quota index maintenance: recomputes `owner`'s excess
  // (used - quota) and moves its entry in over_index_. Called from the
  // allocator's usage listener and after quota changes, so SelectVictim
  // reads reclaim order off the index instead of rescanning every tenant
  // per eviction.
  void RefreshOverIndex(int owner);
  bool AdmitEndurance(const core::AdmissionContext& ctx, bool inner_verdict);
  void OnRequestStart(const mpiio::FileRequest& request, device::IoKind kind);
  void OnOutcome(const core::RequestOutcome& outcome);
  void OnRemoved(const core::RemovedExtent& extent, bool evicted);
  // Folds the open rate window into the per-tenant write-rate EWMAs.
  void FoldRateWindow();
  void SizerTick();
  void ScheduleSizer();
  void SetupObservability();

  sim::Engine& engine_;
  TenantRegistry registry_;
  core::S4DCache* cache_ = nullptr;

  std::vector<byte_count> quota_;
  std::vector<byte_count> floor_;
  std::vector<TenantStats> stats_;
  std::vector<std::unique_ptr<GhostCache>> ghosts_;

  // Over-quota partitions ordered by reclaim priority — excess descending,
  // ties to the lowest tenant index (the exact order the old per-eviction
  // scan-and-sort produced). over_excess_ caches each tenant's indexed
  // excess (0 = absent) so updates are erase+insert, O(log over-quota
  // tenants). Maintained only in enforce mode.
  struct OverOrder {
    bool operator()(const std::pair<byte_count, int>& a,
                    const std::pair<byte_count, int>& b) const {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    }
  };
  std::set<std::pair<byte_count, int>, OverOrder> over_index_;
  std::vector<byte_count> over_excess_;
  bool enforce_index_ = false;

  // Sizer state: per-tenant EWMA useful-hit ratio and the open window's
  // deltas (reset every tick).
  std::vector<double> useful_ewma_;
  std::vector<std::int64_t> window_requests_;
  std::vector<std::int64_t> window_useful_;
  std::vector<std::int64_t> window_ghost_hits_;
  // Completions this window — the audit bound for window_useful_ (requests
  // are counted at issue, so a request can complete into a later window).
  std::vector<std::int64_t> window_outcomes_;
  std::int64_t resizes_ = 0;

  // Endurance state: per-tenant cache-write rate (bytes/sec EWMA) folded
  // from fixed windows of simulated time.
  std::vector<double> write_rate_bps_;
  std::vector<byte_count> rate_window_bytes_;
  SimTime rate_window_start_ = 0;
  SimTime rate_window_len_ = 0;

  // Previously installed hooks, chained.
  core::DataIdentifier::AdmissionFilter prev_filter_;
  core::S4DCache::RequestObserver prev_observer_;
  std::function<void()> prev_audit_;

  sim::EventId sizer_tick_ = sim::kInvalidEvent;

  obs::Observability* obs_ = nullptr;
  std::uint32_t lane_ = 0;
};

}  // namespace s4d::tenant
