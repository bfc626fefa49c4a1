#include "policy/policy_engine.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/config_parser.h"
#include "common/rng.h"
#include "harness/testbed.h"
#include "policy/admission.h"

namespace s4d::policy {
namespace {

// --- AdmissionController ---------------------------------------------------

TEST(AdmissionController, ThresholdZeroIsPaperRule) {
  AdmissionController ctl(AdmissionControllerConfig{});
  EXPECT_TRUE(ctl.Admit(FromMicros(10), /*model_critical=*/true));
  EXPECT_FALSE(ctl.Admit(FromMicros(10), /*model_critical=*/false));
  // Completions that keep part of the promised gain stay inside the band:
  // the threshold never moves.
  for (int i = 0; i < 64; ++i) {
    ctl.OnCompletion(FromMicros(100), FromMicros(200), FromMicros(150));
  }
  EXPECT_EQ(ctl.threshold(), 0);
  EXPECT_TRUE(ctl.Admit(1, /*model_critical=*/true));
  ctl.AuditInvariants();
}

TEST(AdmissionController, PressureVetoBlocksEverything) {
  AdmissionControllerConfig config;
  config.pressure_max_queue = 4.0;
  AdmissionController ctl(config);
  double depth = 10.0;
  ctl.SetPressureProbe([&] { return depth; });
  EXPECT_FALSE(ctl.Admit(FromMillis(1), /*model_critical=*/true));
  EXPECT_FALSE(ctl.Admit(FromMillis(1), /*model_critical=*/false));
  EXPECT_EQ(ctl.stats().pressure_vetoes, 2);
  depth = 1.0;  // backlog drained
  EXPECT_TRUE(ctl.Admit(FromMillis(1), /*model_critical=*/true));
  ctl.AuditInvariants();
}

TEST(AdmissionController, FeedbackRaisesThresholdWhenUnderDelivering) {
  AdmissionControllerConfig config;
  config.warmup_samples = 4;
  AdmissionController ctl(config);
  // Negative realized gain: the cache path took longer than the DServers
  // were predicted to take.
  for (int i = 0; i < 32; ++i) {
    ctl.OnCompletion(FromMicros(100), FromMicros(200), FromMicros(300));
  }
  EXPECT_GT(ctl.threshold(), 0);
  EXPECT_LE(ctl.threshold(), config.threshold_max);
  EXPECT_GT(ctl.stats().threshold_raises, 0);
  // A marginal request the paper would admit is now rejected.
  EXPECT_FALSE(ctl.Admit(1, /*model_critical=*/true));
  EXPECT_EQ(ctl.stats().threshold_rejects, 1);
  // Over-delivering completions decay the threshold back to the B > 0 rule.
  for (int i = 0; i < 256 && ctl.threshold() > 0; ++i) {
    ctl.OnCompletion(FromMicros(100), FromMicros(200), FromMicros(50));
  }
  EXPECT_EQ(ctl.threshold(), 0);
  EXPECT_GT(ctl.stats().threshold_decays, 0);
  ctl.AuditInvariants();
}

TEST(AdmissionController, ThresholdNeverExceedsMax) {
  AdmissionControllerConfig config;
  config.warmup_samples = 1;
  config.threshold_max = FromMicros(200);
  config.threshold_step = FromMicros(75);
  AdmissionController ctl(config);
  for (int i = 0; i < 64; ++i) {
    ctl.OnCompletion(FromMicros(100), FromMicros(200), FromMicros(600));
    ctl.AuditInvariants();
  }
  EXPECT_EQ(ctl.threshold(), config.threshold_max);
}

// --- ParsePolicyConfig -----------------------------------------------------

Result<PolicyConfig> ParseFrom(const std::string& text) {
  ConfigParser config;
  const Status st = config.Parse(text);
  S4D_CHECK(st.ok()) << st.ToString();
  return ParsePolicyConfig(config);
}

TEST(ParsePolicyConfig, EmptyConfigIsPaperDefault) {
  const auto result = ParseFrom("");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().mode, PolicyMode::kPaperDefault);
}

TEST(ParsePolicyConfig, FullSectionParses) {
  const auto result = ParseFrom(
      "[policy]\n"
      "mode = adaptive\n"
      "ewma_alpha = 0.25\n"
      "threshold_step = 25us\n"
      "threshold_max = 2ms\n"
      "pressure_max_queue = 12\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const PolicyConfig& pc = result.value();
  EXPECT_EQ(pc.mode, PolicyMode::kAdaptive);
  EXPECT_DOUBLE_EQ(pc.admission.ewma_alpha, 0.25);
  EXPECT_EQ(pc.admission.threshold_step, FromMicros(25));
  EXPECT_EQ(pc.admission.threshold_max, FromMillis(2));
  EXPECT_DOUBLE_EQ(pc.admission.pressure_max_queue, 12.0);
}

TEST(ParsePolicyConfig, RejectsInvalidValues) {
  EXPECT_FALSE(ParseFrom("[policy]\nmode = turbo\n").ok());
  EXPECT_FALSE(ParseFrom("[policy]\nmode = fixed\n").ok())
      << "the fixed mode was removed";
  EXPECT_FALSE(ParseFrom("[policy]\nmode = adaptive\newma_alpha = 1.5\n").ok());
  EXPECT_FALSE(
      ParseFrom("[policy]\nmode = adaptive\npressure_max_queue = -1\n").ok());
  EXPECT_FALSE(ParseFrom("[policy]\nmode = adaptive\n"
                         "threshold_step = 1ms\nthreshold_max = 1us\n")
                   .ok());
}

TEST(ParsePolicyConfig, PaperDefaultRejectsInertKeys) {
  // Any policy knob alongside mode=paper-default would silently do nothing;
  // that's a config error, not a shrug.
  const auto result =
      ParseFrom("[policy]\nmode = paper-default\newma_alpha = 0.25\n");
  EXPECT_FALSE(result.ok());
}

// --- ValidateKnownKeys (config schema) -------------------------------------

TEST(ValidateKnownKeys, RejectsTypoedKeyAndUnknownSection) {
  ConfigParser config;
  ASSERT_TRUE(config.Parse("[policy]\nevction = arc\n").ok());
  const std::map<std::string, std::vector<std::string>> schema = {
      {"policy", {"mode", "eviction"}}};
  const Status st = config.ValidateKnownKeys(schema);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("evction"), std::string::npos) << st.ToString();

  ConfigParser bad_section;
  ASSERT_TRUE(bad_section.Parse("[polcy]\nmode = fixed\n").ok());
  EXPECT_FALSE(bad_section.ValidateKnownKeys(schema).ok());

  ConfigParser good;
  ASSERT_TRUE(good.Parse("[policy]\nmode = fixed\neviction = lru\n").ok());
  EXPECT_TRUE(good.ValidateKnownKeys(schema).ok());
}

TEST(ValidateKnownKeys, StarSuffixMatchesPrefixedKeys) {
  ConfigParser config;
  ASSERT_TRUE(config.Parse("[faults]\nfault3 = crash\nfault12 = wipe\n").ok());
  const std::map<std::string, std::vector<std::string>> schema = {
      {"faults", {"fault*"}}};
  EXPECT_TRUE(config.ValidateKnownKeys(schema).ok());
  ConfigParser bad;
  ASSERT_TRUE(bad.Parse("[faults]\nflaut3 = crash\n").ok());
  EXPECT_FALSE(bad.ValidateKnownKeys(schema).ok());
}

// --- PolicyEngine integration ---------------------------------------------

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
  bed.engine().Run();
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

// An attached engine whose threshold never leaves 0 (the warm-up never
// ends) and whose veto is unbounded installs its hooks, yet every decision
// must match the paper-default path exactly.
TEST(PolicyEngine, ZeroThresholdIsEquivalentToPaperDefault) {
  harness::Testbed baseline_bed(SmallTestbed());
  auto baseline = baseline_bed.MakeS4D(TightCache());
  baseline->Open("data");
  DriveMixedWorkload(baseline_bed, *baseline, 42, 160);

  harness::Testbed policy_bed(SmallTestbed());
  auto cache = policy_bed.MakeS4D(TightCache());
  PolicyConfig pc;
  pc.mode = PolicyMode::kAdaptive;
  pc.admission.warmup_samples = std::numeric_limits<std::int64_t>::max();
  PolicyEngine engine(pc);
  engine.Attach(*cache);
  cache->Open("data");
  DriveMixedWorkload(policy_bed, *cache, 42, 160);

  EXPECT_EQ(baseline_bed.engine().now(), policy_bed.engine().now());
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
  EXPECT_EQ(baseline->dmt().mapped_bytes(), cache->dmt().mapped_bytes());
  EXPECT_EQ(baseline->dmt().dirty_bytes(), cache->dmt().dirty_bytes());
  // Every admission decision and completion flowed through the controller.
  EXPECT_GT(engine.admission().stats().decisions, 0);
  EXPECT_GT(engine.admission().stats().feedback_samples, 0);
  EXPECT_EQ(engine.admission().threshold(), 0);
  EXPECT_EQ(engine.admission().stats().threshold_rejects, 0);
  EXPECT_EQ(engine.admission().stats().pressure_vetoes, 0);
  engine.AuditInvariants();
  cache->AuditInvariants();
}

// Same seed + same policy => identical simulated end time and decisions.
TEST(PolicyEngine, AdaptiveRunsAreDeterministic) {
  auto run = [](SimTime* end_time, AdmissionControllerStats* stats) {
    harness::Testbed bed(SmallTestbed());
    auto cache = bed.MakeS4D(TightCache());
    PolicyConfig pc;
    pc.mode = PolicyMode::kAdaptive;
    pc.admission.pressure_max_queue = 8.0;
    PolicyEngine engine(pc);
    engine.Attach(*cache);
    cache->Open("data");
    DriveMixedWorkload(bed, *cache, 7, 200);
    engine.AuditInvariants();
    cache->AuditInvariants();
    *end_time = bed.engine().now();
    *stats = engine.admission().stats();
  };
  SimTime end_a = 0;
  SimTime end_b = 0;
  AdmissionControllerStats stats_a;
  AdmissionControllerStats stats_b;
  run(&end_a, &stats_a);
  run(&end_b, &stats_b);
  EXPECT_EQ(end_a, end_b);
  EXPECT_EQ(stats_a.decisions, stats_b.decisions);
  EXPECT_EQ(stats_a.admits, stats_b.admits);
  EXPECT_EQ(stats_a.threshold_rejects, stats_b.threshold_rejects);
  EXPECT_EQ(stats_a.pressure_vetoes, stats_b.pressure_vetoes);
  EXPECT_EQ(stats_a.feedback_samples, stats_b.feedback_samples);
  EXPECT_EQ(stats_a.threshold_raises, stats_b.threshold_raises);
  EXPECT_GT(stats_a.decisions, 0);
}

}  // namespace
}  // namespace s4d::policy
