// Scenario: the one path from an s4dsim INI config to an assembled stack
// and a run of its [workload]. A single s4dsim run and every seed of a
// `--sweep-seeds` sweep go through it, so both run the same experiment.
//
// Build validates the config (an unknown key, an unknown enum value or a
// malformed typed value is an error, never a silent default) and assembles, in this order: the testbed (every
// [cluster] key, see ApplyClusterOverrides), the middleware (every
// [middleware] key plus faults.queue_stale_timeout), the [policy] engine,
// the [tenants] manager, the [calib] engine, the content checker
// (cluster.verify_content), the armed [faults] injector and the MPI-IO
// layer. Errors come back as a Status; nothing is printed.
//
// Run executes [workload]: for kind = read a warm-up first (write pass,
// settle, cold read pass, settle — the paper's "second run"), then
// `repeat` closed-loop passes, or timed passes for workload.type = trace.
// workload.type = replay loads a replay CSV through tracein's TraceLoader
// and drives it closed-loop, arrivals ignored.
//
// A target of its own (s4d_scenario): the replayer it drives links
// s4d_harness.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "calib/calibration.h"
#include "common/config_parser.h"
#include "fault/fault_injector.h"
#include "fault/fault_schedule.h"
#include "harness/testbed.h"
#include "policy/policy_engine.h"
#include "tenant/manager.h"
#include "tracein/replayer.h"

namespace s4d::harness {

class Scenario {
 public:
  // Called after each measured pass with its 1-based number. Closed-loop
  // passes leave `windows` empty and `peak_in_flight` 0.
  using PassCallback = std::function<void(int, const tracein::ReplayResult&)>;

  // `obs` (may be null) is attached to every layer and must outlive the
  // scenario.
  static Result<std::unique_ptr<Scenario>> Build(
      const ConfigParser& config, obs::Observability* obs = nullptr);
  // workload.seed (default 42): the seed of the IOR generator and of the
  // testbed's HDD models, and the base seed of a sweep.
  static std::uint64_t Seed(const ConfigParser& config);
  // Resolves a relative [trace] path or workload.trace against the
  // directory of `config_path`, so a config can name a trace bundled next
  // to it no matter where s4dsim runs.
  static void ResolveTracePaths(const std::string& config_path,
                                ConfigParser& config);

  // Per-request issue hook for every pass, warm-up included. Set before Run.
  void set_on_issue(std::function<void(int, const workloads::Request&)> hook) {
    on_issue_ = std::move(hook);
  }
  // Runs the warm-up (kind = read) and the passes; returns the last pass.
  tracein::ReplayResult Run(const PassCallback& on_pass = {});
  // Lets the Rebuilder drain its flush/fetch backlog (up to an hour of
  // simulated time); a no-op without the S4D middleware.
  void Settle();

  Testbed& bed() { return *bed_; }
  core::S4DCache* s4d() { return s4d_.get(); }  // null for stock
  mpiio::IoDispatch& dispatch() { return layer_->dispatch(); }
  // Null when the section is absent (or calib.enable = false).
  policy::PolicyEngine* policy_engine() { return policy_.get(); }
  tenant::TenantManager* tenant_manager() { return tenants_.get(); }
  calib::CalibrationEngine* calibration() { return calibration_.get(); }
  const fault::FaultSchedule& faults() const { return faults_; }
  const fault::FaultInjector& injector() const { return *injector_; }
  ContentChecker* checker() { return checker_.get(); }  // null unless verify

  bool warms_up() const { return warm_writer_ != nullptr; }
  // The timed replay of workload.type = trace, else null.
  const tracein::TraceReplayWorkload* timed_trace() const {
    return timed_trace_.get();
  }
  const tracein::ReplayOptions& replay_options() const { return replay_; }
  // Simulated span of the passes (warm-up excluded).
  SimTime measure_begin() const { return measure_begin_; }
  SimTime measure_end() const { return measure_end_; }
  // What each tier's file system did over the same span: the FsStats
  // delta between the two snapshots. Foreground requests are issued only
  // on behalf of client requests, and none is in flight at either
  // snapshot, so the foreground counters cover the normal-priority
  // requests issued in [measure_begin, measure_end).
  const pfs::FsStats& dservers_window() const { return dservers_window_; }
  const pfs::FsStats& cservers_window() const { return cservers_window_; }

 private:
  Scenario() = default;

  fault::FaultSchedule faults_;
  std::unique_ptr<Testbed> bed_;
  std::unique_ptr<core::S4DCache> s4d_;
  std::unique_ptr<policy::PolicyEngine> policy_;
  std::unique_ptr<tenant::TenantManager> tenants_;
  std::unique_ptr<calib::CalibrationEngine> calibration_;
  std::unique_ptr<ContentChecker> checker_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<mpiio::MpiIoLayer> layer_;

  int repeat_ = 1;
  std::unique_ptr<workloads::Workload> workload_;
  std::unique_ptr<workloads::Workload> warm_writer_;  // kind = read only
  std::unique_ptr<workloads::Workload> cold_reader_;
  std::unique_ptr<tracein::TraceReplayWorkload> timed_trace_;
  tracein::ReplayOptions replay_;
  std::function<void(int, const workloads::Request&)> on_issue_;
  SimTime measure_begin_ = 0;
  SimTime measure_end_ = 0;
  pfs::FsStats dservers_window_;
  pfs::FsStats cservers_window_;
};

}  // namespace s4d::harness
