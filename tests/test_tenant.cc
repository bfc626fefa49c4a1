#include "tenant/manager.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/config_parser.h"
#include "common/rng.h"
#include "core/cache_space.h"
#include "harness/driver.h"
#include "harness/testbed.h"
#include "tenant/ghost_cache.h"
#include "tenant/registry.h"

namespace s4d::tenant {
namespace {

// --- GhostCache ------------------------------------------------------------

TEST(GhostCache, ProbeConsumesContainsDoesNot) {
  GhostCache ghost(8);
  ghost.Insert("f", 0, 100);
  EXPECT_TRUE(ghost.Contains("f", 50, 60));
  EXPECT_TRUE(ghost.Contains("f", 50, 60)) << "Contains must not consume";
  EXPECT_FALSE(ghost.Contains("f", 100, 200)) << "end is exclusive";
  EXPECT_FALSE(ghost.Contains("g", 0, 100));
  EXPECT_TRUE(ghost.Probe("f", 50, 60));
  EXPECT_FALSE(ghost.Contains("f", 50, 60)) << "Probe must consume the range";
  EXPECT_FALSE(ghost.Probe("f", 50, 60));
  EXPECT_EQ(ghost.hits(), 1);
  EXPECT_EQ(ghost.size(), 0u);
  ghost.AuditInvariants();
}

TEST(GhostCache, InsertAbsorbsOverlaps) {
  GhostCache ghost(8);
  ghost.Insert("f", 0, 100);
  ghost.Insert("f", 200, 300);
  ghost.Insert("f", 50, 250);  // bridges both -> one range [0, 300)
  EXPECT_EQ(ghost.size(), 1u);
  EXPECT_TRUE(ghost.Contains("f", 0, 1));
  EXPECT_TRUE(ghost.Contains("f", 299, 300));
  ghost.AuditInvariants();
  EXPECT_TRUE(ghost.Probe("f", 150, 160));
  EXPECT_FALSE(ghost.Contains("f", 0, 300)) << "absorbed range is one entry";
}

TEST(GhostCache, FifoEvictsOldestAtCapacity) {
  GhostCache ghost(2);
  ghost.Insert("f", 0, 10);
  ghost.Insert("f", 20, 30);
  ghost.Insert("f", 40, 50);  // evicts [0, 10)
  EXPECT_EQ(ghost.size(), 2u);
  EXPECT_FALSE(ghost.Contains("f", 0, 10));
  EXPECT_TRUE(ghost.Contains("f", 20, 30));
  EXPECT_TRUE(ghost.Contains("f", 40, 50));
  ghost.AuditInvariants();
}

TEST(GhostCache, ZeroCapacityRemembersNothing) {
  GhostCache ghost(0);
  ghost.Insert("f", 0, 100);
  EXPECT_EQ(ghost.size(), 0u);
  EXPECT_FALSE(ghost.Contains("f", 0, 100));
  ghost.AuditInvariants();
}

// --- [tenants] config parsing ----------------------------------------------

Result<TenantsConfig> ParseText(const std::string& text,
                                byte_count capacity = 64 * MiB) {
  ConfigParser config;
  EXPECT_TRUE(config.Parse(text).ok());
  return ParseTenantsConfig(config, capacity);
}

TEST(TenantsConfig, EmptySectionYieldsEnforcedDefaults) {
  auto cfg = ParseText("");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->mode, TenantMode::kEnforce);
  EXPECT_TRUE(cfg->specs.empty());
  EXPECT_FALSE(cfg->endurance);
  EXPECT_EQ(cfg->sizer_interval, 0);
}

TEST(TenantsConfig, ParsesExplicitTenantSpecs) {
  auto cfg = ParseText(
      "[tenants]\n"
      "mode = observe\n"
      "tenant1 = jobA ranks 0-7 quota 40% floor 10% write_budget 50m\n"
      "tenant2 = jobB ranks 8-15 quota 8m\n"
      "sizer_interval = 10ms\n"
      "endurance = on\n"
      "write_cost_ns_per_byte = 2.5\n");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->mode, TenantMode::kObserve);
  ASSERT_EQ(cfg->specs.size(), 2u);
  const TenantSpec& a = cfg->specs[0];
  EXPECT_EQ(a.name, "jobA");
  EXPECT_EQ(a.rank_begin, 0);
  EXPECT_EQ(a.rank_end, 7);
  EXPECT_FALSE(a.all_ranks);
  EXPECT_DOUBLE_EQ(a.quota_fraction, 0.4);
  EXPECT_DOUBLE_EQ(a.floor_fraction, 0.1);
  EXPECT_DOUBLE_EQ(a.write_budget_bps, static_cast<double>(50 * MiB));
  EXPECT_EQ(cfg->specs[1].quota_bytes, 8 * MiB);
  EXPECT_TRUE(cfg->endurance);
  EXPECT_EQ(cfg->sizer_interval, FromMillis(10));
  EXPECT_DOUBLE_EQ(cfg->write_cost_ns_per_byte, 2.5);
}

TEST(TenantsConfig, SingleRankAndWildcardRanks) {
  auto cfg = ParseText(
      "[tenants]\n"
      "tenant1 = solo ranks 5\n");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->specs[0].rank_begin, 5);
  EXPECT_EQ(cfg->specs[0].rank_end, 5);
  auto all = ParseText("[tenants]\ntenant1 = every ranks *\n");
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all->specs[0].all_ranks);
}

TEST(TenantsConfig, RejectsUnknownSpecToken) {
  EXPECT_FALSE(ParseText("[tenants]\ntenant1 = a ranks 0-3 color blue\n").ok());
}

TEST(TenantsConfig, RejectsMissingRanksClause) {
  EXPECT_FALSE(ParseText("[tenants]\ntenant1 = a quota 50%\n").ok());
}

TEST(TenantsConfig, RejectsBadRankRange) {
  EXPECT_FALSE(ParseText("[tenants]\ntenant1 = a ranks 7-3\n").ok());
  EXPECT_FALSE(ParseText("[tenants]\ntenant1 = a ranks x-3\n").ok());
}

TEST(TenantsConfig, RejectsOverlappingRankRanges) {
  EXPECT_FALSE(ParseText("[tenants]\n"
                         "tenant1 = a ranks 0-7\n"
                         "tenant2 = b ranks 4-9\n")
                   .ok());
  // all_ranks overlaps everything.
  EXPECT_FALSE(ParseText("[tenants]\n"
                         "tenant1 = a ranks *\n"
                         "tenant2 = b ranks 8-15\n")
                   .ok());
}

TEST(TenantsConfig, RejectsDuplicateTenantNames) {
  EXPECT_FALSE(ParseText("[tenants]\n"
                         "tenant1 = a ranks 0-3\n"
                         "tenant2 = a ranks 4-7\n")
                   .ok());
}

TEST(TenantsConfig, RejectsQuotaSumOverCapacity) {
  EXPECT_FALSE(ParseText("[tenants]\n"
                         "tenant1 = a ranks 0-3 quota 60%\n"
                         "tenant2 = b ranks 4-7 quota 50%\n")
                   .ok());
  // Absolute + fractional quotas sum past the capacity.
  EXPECT_FALSE(ParseText("[tenants]\n"
                         "tenant1 = a ranks 0-3 quota 48m\n"
                         "tenant2 = b ranks 4-7 quota 50%\n",
                         64 * MiB)
                   .ok());
}

TEST(TenantsConfig, RejectsFloorAboveQuotaOrCapacity) {
  EXPECT_FALSE(
      ParseText("[tenants]\ntenant1 = a ranks 0-3 quota 10% floor 25%\n").ok());
  EXPECT_FALSE(
      ParseText("[tenants]\ntenant1 = a ranks 0-3 floor 128m\n", 64 * MiB)
          .ok());
}

TEST(TenantsConfig, RejectsBadModeAndNegativeKnobs) {
  EXPECT_FALSE(ParseText("[tenants]\nmode = strict\n").ok());
  EXPECT_FALSE(ParseText("[tenants]\nauto_group_ranks = -1\n").ok());
  EXPECT_FALSE(ParseText("[tenants]\nwrite_cost_ns_per_byte = -2\n").ok());
  EXPECT_FALSE(ParseText("[tenants]\nwear_veto_fraction = 0\n").ok());
}

TEST(TenantsConfig, RejectsAutoGroupingWithExplicitSpecs) {
  EXPECT_FALSE(ParseText("[tenants]\n"
                         "auto_group_ranks = 4\n"
                         "tenant1 = a ranks 0-3\n")
                   .ok());
}

// The schema s4dsim validates with: numbered tenant entries pass the
// tenant* wildcard, anything unknown (a typo'd knob) fails loudly.
TEST(TenantsConfig, ValidateKnownKeysGatesTheSection) {
  const std::map<std::string, std::vector<std::string>> schema = {
      {"tenants", TenantsSectionKeys()}};
  ConfigParser good;
  ASSERT_TRUE(good.Parse("[tenants]\n"
                         "mode = enforce\n"
                         "tenant1 = a ranks 0-3\n"
                         "tenant12 = b ranks 4-7\n"
                         "endurance = on\n")
                  .ok());
  EXPECT_TRUE(good.ValidateKnownKeys(schema).ok());
  ConfigParser bad;
  ASSERT_TRUE(bad.Parse("[tenants]\nsizer_intervall = 10ms\n").ok());
  EXPECT_FALSE(bad.ValidateKnownKeys(schema).ok());
}

// --- TenantRegistry ---------------------------------------------------------

TEST(TenantRegistry, DefaultsToOneCatchAllTenant) {
  TenantRegistry registry((TenantsConfig()));
  EXPECT_EQ(registry.count(), 1);
  EXPECT_EQ(registry.spec(0).name, "all");
  EXPECT_EQ(registry.TenantOf(0), 0);
  EXPECT_EQ(registry.TenantOf(123), 0);
  EXPECT_EQ(registry.TenantOf(-1), 0);
}

TEST(TenantRegistry, MapsRanksToExplicitTenants) {
  auto cfg = ParseText("[tenants]\n"
                       "tenant1 = a ranks 0-3\n"
                       "tenant2 = b ranks 4-7\n");
  ASSERT_TRUE(cfg.ok());
  TenantRegistry registry(*cfg);
  EXPECT_EQ(registry.count(), 2);
  EXPECT_EQ(registry.TenantOf(0), 0);
  EXPECT_EQ(registry.TenantOf(3), 0);
  EXPECT_EQ(registry.TenantOf(4), 1);
  EXPECT_EQ(registry.TenantOf(7), 1);
  // Unclaimed ranks fall back to tenant 0.
  EXPECT_EQ(registry.TenantOf(8), 0);
}

TEST(TenantRegistry, AutoGroupingSplitsRanksIntoGroups) {
  TenantsConfig cfg;
  cfg.auto_group_ranks = 4;
  TenantRegistry registry(cfg, /*total_ranks=*/10);
  EXPECT_EQ(registry.count(), 3);  // ranks 0-3, 4-7, 8-11
  EXPECT_EQ(registry.spec(0).name, "group0");
  EXPECT_EQ(registry.TenantOf(0), 0);
  EXPECT_EQ(registry.TenantOf(7), 1);
  EXPECT_EQ(registry.TenantOf(9), 2);
}

TEST(TenantRegistry, ResolveQuotasSharesRemainderAndClampsToFloors) {
  auto cfg = ParseText("[tenants]\n"
                       "tenant1 = a ranks 0-3 quota 25%\n"
                       "tenant2 = b ranks 4-7\n");
  ASSERT_TRUE(cfg.ok());
  TenantRegistry registry(*cfg);
  const auto partition = registry.ResolveQuotas(64 * MiB);
  EXPECT_EQ(partition.quota[0], 16 * MiB);
  EXPECT_EQ(partition.quota[1], 48 * MiB);  // the unset tenant absorbs the rest
  EXPECT_EQ(partition.floor[0], 0);

  // A floor larger than the remainder share pulls the quota up to the floor.
  auto tight = ParseText("[tenants]\n"
                         "tenant1 = a ranks 0-3 quota 90%\n"
                         "tenant2 = b ranks 4-7 floor 20%\n");
  ASSERT_TRUE(tight.ok());
  TenantRegistry tight_registry(*tight);
  const auto clamped = tight_registry.ResolveQuotas(64 * MiB);
  EXPECT_EQ(clamped.quota[1], clamped.floor[1]);
  EXPECT_GE(clamped.quota[1], static_cast<byte_count>(0.2 * 64 * MiB));
}

// --- CacheSpaceAllocator partition accounting -------------------------------

TEST(PartitionTracking, ChargesAllocationsAndCreditsRecordedOwner) {
  core::CacheSpaceAllocator space(1 * MiB);
  const auto pre = space.Allocate(64 * KiB);
  ASSERT_TRUE(pre.has_value());
  space.EnablePartitionTracking(2);
  // Pre-existing allocations land on owner 0.
  EXPECT_EQ(space.used_by(0), 64 * KiB);
  EXPECT_EQ(space.OwnerOf(*pre, 64 * KiB), 0);

  space.set_charge_owner(1);
  const auto a = space.Allocate(128 * KiB);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(space.used_by(1), 128 * KiB);
  EXPECT_EQ(space.OwnerOf(*a, 128 * KiB), 1);

  // Freeing credits the owner recorded at charge time, not the current tag.
  space.set_charge_owner(0);
  space.Free(*a, 32 * KiB);  // partial free inside owner 1's range
  EXPECT_EQ(space.used_by(1), 96 * KiB);
  EXPECT_EQ(space.used_by(0), 64 * KiB);
  EXPECT_EQ(space.used_by(0) + space.used_by(1), space.used_bytes());
  space.AuditInvariants();
}

TEST(PartitionTracking, OwnerOfReportsNoSingleOwnerAcrossBoundaries) {
  core::CacheSpaceAllocator space(1 * MiB);
  space.EnablePartitionTracking(2);
  space.set_charge_owner(0);
  const auto a = space.Allocate(64 * KiB);
  space.set_charge_owner(1);
  const auto b = space.Allocate(64 * KiB);
  ASSERT_TRUE(a.has_value() && b.has_value());
  ASSERT_EQ(*b, *a + 64 * KiB) << "first-fit should pack adjacently";
  EXPECT_EQ(space.OwnerOf(*a, 128 * KiB), core::CacheSpaceAllocator::kNoOwner);
  space.Free(*a, 64 * KiB);
  EXPECT_EQ(space.OwnerOf(*a, 64 * KiB), core::CacheSpaceAllocator::kNoOwner)
      << "freed ranges have no owner";
  space.AuditInvariants();
}

TEST(PartitionTracking, MidRunEnableChargesPreexistingToOwnerZero) {
  // Enabling tracking mid-run (the DMT-recovery path: extents already
  // reserved) must charge every already-allocated byte to owner 0 and keep
  // accounting exact from that point on.
  core::CacheSpaceAllocator space(1 * MiB);
  const auto a = space.Allocate(64 * KiB);
  const auto b = space.Allocate(128 * KiB);
  const auto c = space.Allocate(32 * KiB);
  ASSERT_TRUE(a.has_value() && b.has_value() && c.has_value());
  space.Free(*b, 128 * KiB);  // leave a hole so pre-existing space is
                              // non-contiguous when tracking starts

  space.EnablePartitionTracking(3);
  EXPECT_EQ(space.used_by(0), 96 * KiB);
  EXPECT_EQ(space.used_by(1), 0);
  EXPECT_EQ(space.used_by(2), 0);
  EXPECT_EQ(space.OwnerOf(*a, 64 * KiB), 0);
  EXPECT_EQ(space.OwnerOf(*c, 32 * KiB), 0);
  space.AuditInvariants();

  space.set_charge_owner(2);
  const auto d = space.Allocate(128 * KiB);  // should land in the hole
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(space.OwnerOf(*d, 128 * KiB), 2);
  EXPECT_EQ(space.used_by(0) + space.used_by(1) + space.used_by(2),
            space.used_bytes());
  // Freeing a pre-existing extent credits owner 0, not the current tag.
  space.Free(*a, 64 * KiB);
  EXPECT_EQ(space.used_by(0), 32 * KiB);
  EXPECT_EQ(space.used_by(2), 128 * KiB);
  space.AuditInvariants();
}

TEST(PartitionTracking, FreeSpanningOwnersCreditsEachRecordedOwner) {
  core::CacheSpaceAllocator space(1 * MiB);
  space.EnablePartitionTracking(2);
  space.set_charge_owner(0);
  const auto a = space.Allocate(64 * KiB);
  space.set_charge_owner(1);
  const auto b = space.Allocate(64 * KiB);
  ASSERT_TRUE(a.has_value() && b.has_value());
  ASSERT_EQ(*b, *a + 64 * KiB) << "first-fit should pack adjacently";

  // The usage listener must fire once per affected owner per mutation —
  // that is the contract the incremental over-quota index is built on.
  std::vector<int> notified;
  space.SetUsageListener([&](int owner) { notified.push_back(owner); });

  // One Free spanning both owners' ranges credits each recorded owner,
  // regardless of the current charge tag.
  space.set_charge_owner(0);
  space.Free(*a, 128 * KiB);
  EXPECT_EQ(space.used_by(0), 0);
  EXPECT_EQ(space.used_by(1), 0);
  ASSERT_EQ(notified.size(), 2u);
  EXPECT_NE(notified[0], notified[1]);
  EXPECT_EQ(space.OwnerOf(*a, 128 * KiB), core::CacheSpaceAllocator::kNoOwner);
  space.AuditInvariants();
}

TEST(PartitionTracking, FuzzAuditMatchesShadowModel) {
  // Random allocate / full-free / partial-free sequence under rotating
  // charge owners, with a shadow model of every live extent. After every
  // mutation the per-owner counters must match the shadow sums and the
  // structural audit must pass — the fresh-scan equivalent of the
  // incremental accounting.
  core::CacheSpaceAllocator space(1 * MiB);
  space.EnablePartitionTracking(3);
  struct Shadow {
    byte_count offset;
    byte_count size;
    int owner;
  };
  std::vector<Shadow> live;
  Rng rng(7);
  for (int step = 0; step < 400; ++step) {
    const auto op = live.empty() ? 0 : rng.NextBelow(3);
    if (op == 0) {
      const int owner = static_cast<int>(rng.NextBelow(3));
      const auto size =
          static_cast<byte_count>(1 + rng.NextBelow(32)) * 4 * KiB;
      space.set_charge_owner(owner);
      const auto got = space.Allocate(size);
      if (got.has_value()) live.push_back({*got, size, owner});
    } else if (op == 1) {
      const auto idx = static_cast<std::size_t>(rng.NextBelow(live.size()));
      space.Free(live[idx].offset, live[idx].size);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      // Partial free of the extent's front half; the recorded owner keeps
      // the tail.
      const auto idx = static_cast<std::size_t>(rng.NextBelow(live.size()));
      Shadow& s = live[idx];
      if (s.size < 8 * KiB) continue;
      const byte_count cut = s.size / 2;
      space.Free(s.offset, cut);
      s.offset += cut;
      s.size -= cut;
    }
    byte_count shadow_by[3] = {0, 0, 0};
    byte_count shadow_total = 0;
    for (const Shadow& s : live) {
      shadow_by[s.owner] += s.size;
      shadow_total += s.size;
      ASSERT_EQ(space.OwnerOf(s.offset, s.size), s.owner)
          << "step " << step << ": extent at " << s.offset
          << " lost its recorded owner";
    }
    for (int o = 0; o < 3; ++o) {
      ASSERT_EQ(space.used_by(o), shadow_by[o])
          << "step " << step << ": owner " << o << " counter drifted";
    }
    ASSERT_EQ(space.used_bytes(), shadow_total);
    space.AuditInvariants();
  }
}

TEST(PartitionTracking, OffByDefaultAndOwnerOfSaysNoOwner) {
  core::CacheSpaceAllocator space(1 * MiB);
  const auto a = space.Allocate(64 * KiB);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(space.partition_tracking());
  EXPECT_EQ(space.used_by(0), 0);
  EXPECT_EQ(space.OwnerOf(*a, 64 * KiB), core::CacheSpaceAllocator::kNoOwner);
  space.AuditInvariants();
}

// --- TenantManager integration ----------------------------------------------

harness::TestbedConfig SmallTestbed() {
  harness::TestbedConfig cfg;
  cfg.file_reservation = 2 * GiB;
  return cfg;
}

core::S4DConfig TightCache() {
  core::S4DConfig cfg;
  cfg.cache_capacity = 2 * MiB;  // small enough that evictions happen
  cfg.enable_rebuilder = false;
  return cfg;
}

void DoIo(harness::Testbed& bed, mpiio::IoDispatch& dispatch,
          device::IoKind kind, const std::string& file, int rank,
          byte_count offset, byte_count size) {
  SimTime completed = -1;
  mpiio::FileRequest req{file, rank, offset, size, 0};
  if (kind == device::IoKind::kWrite) {
    dispatch.Write(req, [&](SimTime t) { completed = t; });
  } else {
    dispatch.Read(req, [&](SimTime t) { completed = t; });
  }
  // Step (rather than Run) so periodic background events — rebuilder
  // ticks, the partition sizer — cannot keep the loop alive forever.
  while (completed < 0 && bed.engine().Step()) {
  }
  ASSERT_GE(completed, 0) << "request never completed";
}

// A deterministic mixed workload: interleaved distant small writes (cache
// candidates), sequential large writes (DServer traffic) and re-reads.
void DriveMixedWorkload(harness::Testbed& bed, core::S4DCache& s4d,
                        std::uint64_t seed, int requests) {
  Rng rng(seed);
  byte_count seq_offset = 0;
  for (int i = 0; i < requests; ++i) {
    switch (rng.NextBelow(4)) {
      case 0: {
        const auto offset =
            static_cast<byte_count>(rng.NextBelow(1536)) * 1 * MiB;
        DoIo(bed, s4d, device::IoKind::kWrite, "data", 0, offset, 64 * KiB);
        break;
      }
      case 1:
        DoIo(bed, s4d, device::IoKind::kWrite, "data", 1, seq_offset, 1 * MiB);
        seq_offset += 1 * MiB;
        break;
      case 2: {
        const auto offset =
            static_cast<byte_count>(rng.NextBelow(1536)) * 1 * MiB;
        DoIo(bed, s4d, device::IoKind::kRead, "data", 2, offset, 64 * KiB);
        break;
      }
      default: {
        const auto offset =
            static_cast<byte_count>(rng.NextBelow(64)) * 64 * KiB;
        DoIo(bed, s4d, device::IoKind::kRead, "data", 3, offset, 64 * KiB);
        break;
      }
    }
  }
}

TenantsConfig TwoTenantsByRank() {
  auto cfg = ParseText("[tenants]\n"
                       "tenant1 = a ranks 0-1\n"
                       "tenant2 = b ranks 2-3\n");
  EXPECT_TRUE(cfg.ok());
  return *cfg;
}

TEST(TenantManager, AttributesRequestsAndPartitionsSumToUsed) {
  harness::Testbed bed(SmallTestbed());
  auto cache = bed.MakeS4D(TightCache());
  TenantManager manager(bed.engine(), TenantRegistry(TwoTenantsByRank()));
  manager.Attach(*cache);
  cache->Open("data");

  DoIo(bed, *cache, device::IoKind::kWrite, "data", 0, 100 * MiB, 64 * KiB);
  DoIo(bed, *cache, device::IoKind::kWrite, "data", 2, 200 * MiB, 64 * KiB);
  DoIo(bed, *cache, device::IoKind::kRead, "data", 3, 200 * MiB, 64 * KiB);

  EXPECT_EQ(manager.stats(0).requests, 1);
  EXPECT_EQ(manager.stats(1).requests, 2);
  EXPECT_EQ(manager.stats(1).read_requests, 1);
  // The re-read of tenant b's own cached write is a useful (reuse) hit.
  EXPECT_EQ(manager.stats(1).useful_hits, 1);
  // Every cached byte is charged to exactly one tenant.
  const core::CacheSpaceAllocator& space = cache->cache_space();
  EXPECT_GT(space.used_bytes(), 0);
  EXPECT_EQ(space.used_by(0) + space.used_by(1), space.used_bytes());
  manager.AuditInvariants();
  cache->AuditInvariants();
}

// The tentpole guarantee: in enforce mode a tenant at or under its floor
// cannot be evicted by a noisy neighbor, and its working set keeps hitting.
TEST(TenantManager, EnforceProtectsVictimFromNoisyNeighbor) {
  harness::Testbed bed(SmallTestbed());
  core::S4DConfig s4d_cfg = TightCache();
  s4d_cfg.enable_rebuilder = true;  // flushes make extents clean => evictable
  s4d_cfg.rebuilder.interval = FromMillis(10);
  auto cache = bed.MakeS4D(s4d_cfg);
  auto cfg = ParseText("[tenants]\n"
                       "mode = enforce\n"
                       "tenant1 = victim ranks 0-1 quota 50% floor 50%\n"
                       "tenant2 = noisy ranks 2-3\n");
  ASSERT_TRUE(cfg.ok());
  TenantManager manager(bed.engine(), TenantRegistry(*cfg));
  manager.Attach(*cache);
  cache->Open("data");

  // Victim lays down a working set inside its floor (distant 64 KiB writes
  // are cache candidates under the cost model).
  for (int i = 0; i < 12; ++i) {
    DoIo(bed, *cache, device::IoKind::kWrite, "data", 0,
         (100 + 7 * i) * MiB, 64 * KiB);
  }
  auto settle = [&] {
    harness::DrainUntil(bed.engine(),
                        [&] { return cache->BackgroundQuiescent(); },
                        FromSeconds(60));
  };
  settle();
  const byte_count victim_used = cache->cache_space().used_by(0);
  ASSERT_GT(victim_used, 0) << "victim admitted nothing";
  ASSERT_LE(victim_used, manager.floor(0));

  // The noisy neighbor floods far more than the whole cache.
  for (int i = 0; i < 64; ++i) {
    DoIo(bed, *cache, device::IoKind::kWrite, "data", 2,
         (1000 + 11 * i) * MiB, 64 * KiB);
    if (i % 8 == 7) settle();  // let flushes produce clean victims
  }
  settle();

  // The victim's partition was never raided...
  EXPECT_EQ(cache->cache_space().used_by(0), victim_used);
  // ...so its re-reads still hit the cache.
  const std::int64_t hits_before = manager.stats(0).hits;
  for (int i = 0; i < 12; ++i) {
    DoIo(bed, *cache, device::IoKind::kRead, "data", 1,
         (100 + 7 * i) * MiB, 64 * KiB);
  }
  EXPECT_GT(manager.stats(0).hits, hits_before);
  manager.AuditInvariants();
  cache->AuditInvariants();
}

// Contrast: observe mode accounts but does not constrain eviction, so the
// same flood raids the victim's extents (global clean-LRU).
TEST(TenantManager, ObserveModeDoesNotProtectTheVictim) {
  harness::Testbed bed(SmallTestbed());
  core::S4DConfig s4d_cfg = TightCache();
  s4d_cfg.enable_rebuilder = true;
  s4d_cfg.rebuilder.interval = FromMillis(10);
  auto cache = bed.MakeS4D(s4d_cfg);
  auto cfg = ParseText("[tenants]\n"
                       "mode = observe\n"
                       "tenant1 = victim ranks 0-1 quota 50% floor 50%\n"
                       "tenant2 = noisy ranks 2-3\n");
  ASSERT_TRUE(cfg.ok());
  TenantManager manager(bed.engine(), TenantRegistry(*cfg));
  manager.Attach(*cache);
  cache->Open("data");

  for (int i = 0; i < 12; ++i) {
    DoIo(bed, *cache, device::IoKind::kWrite, "data", 0,
         (100 + 7 * i) * MiB, 64 * KiB);
  }
  auto settle = [&] {
    harness::DrainUntil(bed.engine(),
                        [&] { return cache->BackgroundQuiescent(); },
                        FromSeconds(60));
  };
  settle();
  const byte_count victim_used = cache->cache_space().used_by(0);
  ASSERT_GT(victim_used, 0);

  for (int i = 0; i < 64; ++i) {
    DoIo(bed, *cache, device::IoKind::kWrite, "data", 2,
         (1000 + 11 * i) * MiB, 64 * KiB);
    if (i % 8 == 7) settle();
  }
  settle();
  EXPECT_LT(cache->cache_space().used_by(0), victim_used)
      << "global LRU should have evicted some of the victim's extents";
  // Raided extents left would-have-hit evidence in the victim's ghost list.
  manager.AuditInvariants();
}

// Endurance-aware admission: a tenant over its write budget stops filling
// the cache, cutting SSD (CServer) write traffic versus the same run
// without the veto.
TEST(TenantManager, EnduranceVetoReducesCacheWrites) {
  // Both runs flush continuously so clean victims keep admissions flowing;
  // only the second run carries the endurance veto.
  core::S4DConfig s4d_cfg = TightCache();
  s4d_cfg.enable_rebuilder = true;
  s4d_cfg.rebuilder.interval = FromMillis(10);

  std::int64_t base_admissions = 0;
  byte_count base_bytes = 0;
  {
    harness::Testbed bed(SmallTestbed());
    auto cache = bed.MakeS4D(s4d_cfg);
    cache->Open("data");
    for (int i = 0; i < 150; ++i) {
      DoIo(bed, *cache, device::IoKind::kWrite, "data", 0,
           (100 + 9 * static_cast<byte_count>(i)) * MiB, 64 * KiB);
    }
    base_admissions = cache->redirector_stats().write_admissions;
    base_bytes = cache->counters().cserver_bytes;
  }
  ASSERT_GT(base_admissions, 0);

  auto cfg = ParseText("[tenants]\n"
                       "mode = enforce\n"
                       "endurance = on\n"
                       "write_cost_ns_per_byte = 5\n"
                       "tenant1 = all ranks * write_budget 1m\n");
  ASSERT_TRUE(cfg.ok());
  std::int64_t veto_admissions = 0;
  byte_count veto_bytes = 0;
  {
    harness::Testbed bed(SmallTestbed());
    auto cache = bed.MakeS4D(s4d_cfg);
    TenantManager manager(bed.engine(), TenantRegistry(*cfg));
    manager.Attach(*cache);
    cache->Open("data");
    for (int i = 0; i < 150; ++i) {
      DoIo(bed, *cache, device::IoKind::kWrite, "data", 0,
           (100 + 9 * static_cast<byte_count>(i)) * MiB, 64 * KiB);
    }
    veto_admissions = cache->redirector_stats().write_admissions;
    veto_bytes = cache->counters().cserver_bytes;
    EXPECT_GT(manager.stats(0).endurance_vetoes, 0)
        << "a 1 MiB/s budget must throttle this write stream";
    manager.AuditInvariants();
    cache->AuditInvariants();
  }
  EXPECT_LT(veto_admissions, base_admissions);
  EXPECT_LT(veto_bytes, base_bytes);
}

// The online sizer moves quota toward the tenant with measured reuse.
TEST(TenantManager, SizerShiftsQuotaTowardReuse) {
  harness::Testbed bed(SmallTestbed());
  auto cache = bed.MakeS4D(TightCache());
  auto cfg = ParseText("[tenants]\n"
                       "mode = enforce\n"
                       "sizer_interval = 5ms\n"
                       "tenant1 = reuser ranks 0-1\n"
                       "tenant2 = scanner ranks 2-3\n");
  ASSERT_TRUE(cfg.ok());
  TenantManager manager(bed.engine(), TenantRegistry(*cfg));
  manager.Attach(*cache);
  cache->Open("data");
  const byte_count initial_quota = manager.quota(0);

  // Tenant 0 writes a tiny working set and re-reads it over and over;
  // tenant 1 writes distinct distant extents with zero reuse.
  for (int i = 0; i < 4; ++i) {
    DoIo(bed, *cache, device::IoKind::kWrite, "data", 0,
         (100 + 13 * i) * MiB, 64 * KiB);
  }
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 4; ++i) {
      DoIo(bed, *cache, device::IoKind::kRead, "data", 0,
           (100 + 13 * i) * MiB, 64 * KiB);
    }
    DoIo(bed, *cache, device::IoKind::kWrite, "data", 2,
         (1000 + 17 * static_cast<byte_count>(round)) * MiB, 64 * KiB);
  }

  EXPECT_GT(manager.resizes(), 0) << "the sizer never re-divided capacity";
  EXPECT_GT(manager.useful_ewma(0), manager.useful_ewma(1));
  EXPECT_GT(manager.quota(0), manager.quota(1));
  EXPECT_GT(manager.quota(0), initial_quota);
  manager.AuditInvariants();
  cache->AuditInvariants();
}

// The over-quota reclaim index is maintained incrementally (allocator
// usage listener + quota changes); AuditInvariants proves it against a
// fresh scan. Fuzz it: a mixed workload under enforce mode with the sizer
// re-dividing quotas, audited after every request, so any drift between
// the incremental index and the real excesses fails at the step that
// introduced it.
TEST(TenantManager, FuzzedWorkloadKeepsOverIndexFresh) {
  harness::Testbed bed(SmallTestbed());
  core::S4DConfig s4d_cfg = TightCache();
  s4d_cfg.enable_rebuilder = true;  // flushes make clean victims => evictions
  s4d_cfg.rebuilder.interval = FromMillis(10);
  auto cache = bed.MakeS4D(s4d_cfg);
  auto cfg = ParseText("[tenants]\n"
                       "mode = enforce\n"
                       "sizer_interval = 5ms\n"
                       "tenant1 = a ranks 0-1 quota 30%\n"
                       "tenant2 = b ranks 2-3 floor 10%\n");
  ASSERT_TRUE(cfg.ok());
  TenantManager manager(bed.engine(), TenantRegistry(*cfg));
  manager.Attach(*cache);
  cache->Open("data");

  Rng rng(21);
  for (int i = 0; i < 120; ++i) {
    const int rank = static_cast<int>(rng.NextBelow(4));
    const auto offset =
        static_cast<byte_count>(rng.NextBelow(1536)) * 1 * MiB;
    const auto kind =
        rng.NextBelow(3) == 0 ? device::IoKind::kRead : device::IoKind::kWrite;
    DoIo(bed, *cache, kind, "data", rank, offset, 64 * KiB);
    manager.AuditInvariants();
    cache->AuditInvariants();
  }
  EXPECT_GT(manager.resizes(), 0)
      << "the sizer never ran, so quota-change index refreshes went untested";
}

// Satellite 6 — the byte-equivalence pin: one catch-all tenant in enforce
// mode with endurance off must reproduce the unpartitioned run exactly.
TEST(TenantManager, SingleTenantDefaultIsByteIdenticalToBaseline) {
  harness::Testbed baseline_bed(SmallTestbed());
  auto baseline = baseline_bed.MakeS4D(TightCache());
  baseline->Open("data");
  DriveMixedWorkload(baseline_bed, *baseline, 42, 160);

  harness::Testbed tenant_bed(SmallTestbed());
  auto cache = tenant_bed.MakeS4D(TightCache());
  TenantManager manager(tenant_bed.engine(), TenantRegistry((TenantsConfig())));
  manager.Attach(*cache);
  cache->Open("data");
  DriveMixedWorkload(tenant_bed, *cache, 42, 160);

  EXPECT_EQ(baseline_bed.engine().now(), tenant_bed.engine().now());
  EXPECT_EQ(baseline->counters().dserver_requests,
            cache->counters().dserver_requests);
  EXPECT_EQ(baseline->counters().cserver_requests,
            cache->counters().cserver_requests);
  EXPECT_EQ(baseline->counters().cserver_bytes,
            cache->counters().cserver_bytes);
  EXPECT_EQ(baseline->redirector_stats().write_admissions,
            cache->redirector_stats().write_admissions);
  EXPECT_EQ(baseline->redirector_stats().evictions,
            cache->redirector_stats().evictions);
  EXPECT_EQ(baseline->redirector_stats().read_cache_hits,
            cache->redirector_stats().read_cache_hits);
  EXPECT_EQ(baseline->redirector_stats().admission_failures,
            cache->redirector_stats().admission_failures);
  EXPECT_EQ(baseline->dmt().mapped_bytes(), cache->dmt().mapped_bytes());
  EXPECT_EQ(baseline->dmt().dirty_bytes(), cache->dmt().dirty_bytes());
  // The partition dimension accounted every byte to the one tenant.
  EXPECT_EQ(cache->cache_space().used_by(0),
            cache->cache_space().used_bytes());
  manager.AuditInvariants();
  cache->AuditInvariants();
}

}  // namespace
}  // namespace s4d::tenant
