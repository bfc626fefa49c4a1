#include "calib/calibration.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/driver.h"
#include "harness/testbed.h"
#include "mpiio/mpi_io.h"
#include "workloads/ior.h"

namespace s4d::calib {
namespace {

// --- ParseCalibConfig: the [calib] section --------------------------------

Result<std::optional<CalibConfig>> ParseCalib(const std::string& text) {
  ConfigParser config;
  EXPECT_TRUE(config.Parse(text).ok());
  return ParseCalibConfig(config);
}

TEST(ParseCalibConfig, AbsentOrDisabledSectionIsNone) {
  const auto absent = ParseCalib("[workload]\nranks = 4\n");
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(absent->has_value());
  const auto disabled = ParseCalib("[calib]\nenable = false\nforget = 0.9\n");
  ASSERT_TRUE(disabled.ok());
  EXPECT_FALSE(disabled->has_value());
}

TEST(ParseCalibConfig, FullSectionParses) {
  const auto parsed = ParseCalib(
      "[calib]\nforget = 0.95\nmin_samples = 8\nqueue_gain = 0.5\n"
      "saturation_depth = 12\ncalibrate_dservers = false\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->has_value());
  const CalibConfig& cfg = **parsed;
  EXPECT_DOUBLE_EQ(cfg.forget, 0.95);
  EXPECT_EQ(cfg.min_samples, 8);
  EXPECT_DOUBLE_EQ(cfg.queue_gain, 0.5);
  EXPECT_DOUBLE_EQ(cfg.saturation_depth, 12.0);
  EXPECT_FALSE(cfg.calibrate_dservers);
  EXPECT_TRUE(cfg.calibrate_cservers);
}

TEST(ParseCalibConfig, RejectsForgetOutsideUnitInterval) {
  for (const char* forget : {"0", "1.5", "-0.1"}) {
    const auto parsed =
        ParseCalib(std::string("[calib]\nforget = ") + forget + "\n");
    ASSERT_FALSE(parsed.ok()) << forget;
    EXPECT_NE(parsed.status().ToString().find("calib.forget"),
              std::string::npos);
  }
}

TEST(ParseCalibConfig, RejectsMinSamplesBelowOne) {
  const auto parsed = ParseCalib("[calib]\nmin_samples = 0\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("calib.min_samples"),
            std::string::npos);
}

TEST(ParseCalibConfig, RejectsNegativeGainOrDepth) {
  for (const char* line : {"queue_gain = -1", "saturation_depth = -2"}) {
    const auto parsed =
        ParseCalib(std::string("[calib]\n") + line + "\n");
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_NE(parsed.status().ToString().find("must be >= 0"),
              std::string::npos);
  }
}

// --- ServerFit: the per-(server,kind) forgetting least-squares core -------

TEST(ServerFit, RecoversLinearModel) {
  // latency = 200 us + 50 ns/B * size + 30 us * depth, exactly.
  ServerFit fit;
  for (int pass = 0; pass < 8; ++pass) {
    for (const double size : {4096.0, 16384.0, 65536.0}) {
      for (int depth = 0; depth < 8; ++depth) {
        fit.Add(0.99, size, depth, 200e3 + 50.0 * size + 30e3 * depth);
      }
    }
  }
  const ServerFit::Params p = fit.Solve(/*static_beta=*/999.0);
  EXPECT_NEAR(p.ns_per_byte, 50.0, 0.5);
  EXPECT_NEAR(p.queue_ns, 30e3, 300.0);
  EXPECT_NEAR(p.startup_ns, 200e3, 2e3);
}

TEST(ServerFit, DegenerateSizeFallsBackToStaticBeta) {
  // All sub-requests the same size: the size direction carries no signal,
  // so the fit must keep the static per-byte slope and still recover the
  // queue term from the depth spread.
  ServerFit fit;
  for (int pass = 0; pass < 32; ++pass) {
    for (int depth = 0; depth < 8; ++depth) {
      fit.Add(0.99, 16384.0, depth, 100e3 + 13.0 * 16384.0 + 25e3 * depth);
    }
  }
  const ServerFit::Params p = fit.Solve(/*static_beta=*/13.0);
  EXPECT_DOUBLE_EQ(p.ns_per_byte, 13.0);
  EXPECT_NEAR(p.queue_ns, 25e3, 250.0);
}

TEST(ServerFit, StepChangeConverges) {
  // Regime A: fast server. Regime B: the server slows 4x (degradation).
  // The exponential forgetting must walk the fit to the new regime.
  ServerFit fit;
  for (int i = 0; i < 500; ++i) {
    for (const double size : {8192.0, 32768.0}) {
      fit.Add(0.95, size, 0.0, 100e3 + 10.0 * size);
    }
  }
  ServerFit::Params p = fit.Solve(999.0);
  EXPECT_NEAR(p.ns_per_byte, 10.0, 0.1);
  for (int i = 0; i < 200; ++i) {
    for (const double size : {8192.0, 32768.0}) {
      fit.Add(0.95, size, 0.0, 400e3 + 40.0 * size);
    }
  }
  p = fit.Solve(999.0);
  EXPECT_NEAR(p.ns_per_byte, 40.0, 1.0);
  EXPECT_NEAR(p.startup_ns, 400e3, 10e3);
}

TEST(ServerFit, QueueDelayEstimateIsMonotoneInDepth) {
  ServerFit fit;
  for (int pass = 0; pass < 8; ++pass) {
    for (const double size : {4096.0, 65536.0}) {
      for (int depth = 0; depth < 6; ++depth) {
        fit.Add(0.99, size, depth, 150e3 + 20.0 * size + 40e3 * depth);
      }
    }
  }
  const ServerFit::Params p = fit.Solve(999.0);
  EXPECT_GT(p.queue_ns, 0.0);
  // The composed estimate startup + b*size + c*depth must strictly grow
  // with observed depth, so a deeper queue never makes a tier look faster.
  double last = -1.0;
  for (int depth = 0; depth < 32; ++depth) {
    const double t = p.startup_ns + p.ns_per_byte * 16384.0 + p.queue_ns * depth;
    EXPECT_GT(t, last);
    last = t;
  }
}

TEST(ServerFit, WarmupGateCountsUndecayedSamples) {
  ServerFit fit;
  for (int i = 0; i < 31; ++i) fit.Add(0.5, 4096.0, 0.0, 1e6);
  EXPECT_FALSE(fit.Ready(32));
  fit.Add(0.5, 4096.0, 0.0, 1e6);
  EXPECT_TRUE(fit.Ready(32));
}

// --- Engine-level: shard merge equivalence and determinism ----------------

struct CalibRun {
  std::string report;
  CalibStats stats;
};

// One small random-write IOR run with the calibration armed; returns the
// per-server report and the engine's counters.
CalibRun RunCalibrated(std::uint64_t seed = 7) {
  harness::TestbedConfig bed_cfg;
  bed_cfg.dservers = 4;
  bed_cfg.cservers = 2;
  bed_cfg.seed = seed;
  harness::Testbed bed(bed_cfg);

  core::S4DConfig cfg;
  cfg.cache_capacity = 8 * MiB;
  auto s4d = bed.MakeS4D(cfg);

  CalibConfig cc;
  cc.min_samples = 8;
  cc.saturation_depth = 64.0;
  CalibrationEngine cal(cc, bed.MakeCostModel().params());
  cal.Attach(*s4d, bed.dservers(), bed.cservers(), nullptr);

  mpiio::MpiIoLayer layer(bed.engine(), *s4d);
  workloads::IorConfig wcfg;
  wcfg.file = "calib-test.dat";
  wcfg.ranks = 8;
  wcfg.file_size = 8 * MiB;
  wcfg.request_size = 16 * KiB;
  wcfg.random = true;
  wcfg.kind = device::IoKind::kWrite;
  wcfg.seed = seed;
  workloads::IorWorkload wl(wcfg);
  harness::RunClosedLoop(layer, wl);

  CalibRun run;
  std::ostringstream out;
  cal.PrintReport(out);
  run.report = out.str();
  run.stats = cal.stats();
  return run;
}

TEST(CalibrationEngine, DeterminismGuard) {
  // Two identical runs must produce identical fitted parameters, counters,
  // and report text — the calibration adds no hidden nondeterminism.
  const CalibRun a = RunCalibrated();
  const CalibRun b = RunCalibrated();
  EXPECT_GT(a.stats.samples, 0);
  EXPECT_NE(a.report.find("CPFS/server0"), std::string::npos);
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.stats.samples, b.stats.samples);
  EXPECT_EQ(a.stats.failed_samples, b.stats.failed_samples);
  EXPECT_EQ(a.stats.declines, b.stats.declines);
  EXPECT_EQ(a.stats.saturated_polls, b.stats.saturated_polls);
}

TEST(CalibrationEngine, ColdEngineDeclinesEveryEstimate) {
  harness::TestbedConfig bed_cfg;
  bed_cfg.dservers = 4;
  bed_cfg.cservers = 2;
  harness::Testbed bed(bed_cfg);
  core::S4DConfig cfg;
  cfg.cache_capacity = 8 * MiB;
  auto s4d = bed.MakeS4D(cfg);
  CalibConfig cc;
  CalibrationEngine cal(cc, bed.MakeCostModel().params());
  cal.Attach(*s4d, bed.dservers(), bed.cservers(), nullptr);
  // No samples yet: every estimate must decline (return -1), leaving the
  // cost model on its static closed forms.
  EXPECT_EQ(cal.CServerEstimate(device::IoKind::kWrite, 0, 64 * KiB), -1);
  EXPECT_EQ(cal.DServerEstimate(FromMillis(3), 0, 64 * KiB), -1);
  EXPECT_EQ(cal.stats().declines, 2);
  EXPECT_FALSE(cal.CacheTierSaturated());
}

}  // namespace
}  // namespace s4d::calib
