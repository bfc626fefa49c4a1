#include "harness/scenario.h"

#include <map>
#include <utility>
#include <vector>

#include "tracein/loader.h"
#include "tracein/scaler.h"
#include "workloads/hpio.h"
#include "workloads/ior.h"
#include "workloads/tile_io.h"

namespace s4d::harness {
namespace {

using WorkloadPtr = std::unique_ptr<workloads::Workload>;

// Every key s4dsim understands, by section. ValidateKnownKeys rejects any
// config entry outside this schema, so a typo ("evction = arc") fails the
// run loudly instead of silently running the default.
Status ValidateConfig(const ConfigParser& config) {
  static const std::map<std::string, std::vector<std::string>> kSchema = {
      {"cluster",
       {"dservers", "cservers", "stripe", "verify_content", "ssd_pe_cycles",
        "ssd_write_amp", "hdd_transfer_bps", "hdd_rpm", "hdd_avg_seek",
        "hdd_max_seek", "hdd_track_seek", "hdd_command_overhead",
        "hdd_readahead", "ssd_read_bps", "ssd_write_bps", "ssd_read_latency",
        "ssd_write_latency", "link_bps", "link_latency"}},
      {"middleware",
       {"type", "cache_capacity", "policy", "rebuild_interval",
        "metadata_overhead", "dmt_update_latency", "degraded_reads",
        "io_timeout", "cache_unhealthy_degrade"}},
      {"workload",
       {"type", "kind", "ranks", "region_count", "region_size",
        "region_spacing", "trace", "file", "elements_x", "elements_y",
        "element_size", "file_size", "request_size", "random", "seed",
        "repeat"}},
      {"faults", {"fault*", "queue_stale_timeout"}},
      {"trace",
       {"path", "format", "mode", "time_scale", "scale_ranks", "window",
        "file"}},
      {"obs", {"trace_out", "metrics_out", "sample_interval", "capture_out"}},
      {"policy",
       {"mode", "ewma_alpha", "threshold_step", "threshold_max",
        "pressure_max_queue"}},
      {"calib",
       {"enable", "forget", "min_samples", "queue_gain", "saturation_depth",
        "calibrate_dservers", "calibrate_cservers"}},
      {"tenants", tenant::TenantsSectionKeys()},
  };
  return config.ValidateKnownKeys(kSchema);
}

// section.key, which must be one of `allowed` (the first is the default).
Result<std::string> ReadEnum(const ConfigParser& config,
                             const std::string& section, const std::string& key,
                             const std::vector<std::string>& allowed) {
  const std::string value = config.StringOr(section, key, allowed.front());
  std::string list;
  for (const std::string& a : allowed) {
    if (a == value) return value;
    list += (list.empty() ? "" : " | ") + a;
  }
  return Status::InvalidArgument(section + "." + key + ": unknown value '" +
                                 value + "' (" + list + ")");
}

// [middleware] plus faults.queue_stale_timeout.
Result<core::S4DConfig> ParseMiddlewareConfig(const ConfigParser& config,
                                              bool faults_armed) {
  const auto policy = ReadEnum(config, "middleware", "policy",
                               {"cost-model", "always", "never"});
  if (!policy.ok()) return policy.status();
  const auto degraded =
      ReadEnum(config, "middleware", "degraded_reads", {"queue", "stale"});
  if (!degraded.ok()) return degraded.status();
  core::S4DConfig cfg;
  cfg.cache_capacity = config.SizeOr("middleware", "cache_capacity", 128 * MiB);
  cfg.policy = *policy == "always"  ? core::AdmissionPolicy::kAlways
               : *policy == "never" ? core::AdmissionPolicy::kNever
                                    : core::AdmissionPolicy::kCostModel;
  cfg.rebuilder.interval =
      config.DurationOr("middleware", "rebuild_interval", FromMillis(100));
  cfg.metadata_overhead_per_op = config.DurationOr(
      "middleware", "metadata_overhead", cfg.metadata_overhead_per_op);
  cfg.dmt_update_latency = config.DurationOr(
      "middleware", "dmt_update_latency", cfg.dmt_update_latency);
  cfg.degraded_read_mode = *degraded == "stale"
                               ? core::DegradedReadMode::kServeStale
                               : core::DegradedReadMode::kQueue;
  // With faults in play, background I/O can be failed mid-flight by a
  // crash; a watchdog keeps a stalled flush run from wedging the
  // Rebuilder. Fault-free runs keep the timeout off (no extra events).
  cfg.rebuilder.io_timeout = config.DurationOr(
      "middleware", "io_timeout", faults_armed ? FromSeconds(5) : SimTime{0});
  // kQueue mode: a read held for the down cache tier is promoted to a
  // stale DServer read after this long (0 = queue forever).
  cfg.queue_stale_timeout =
      config.DurationOr("faults", "queue_stale_timeout", 0);
  cfg.cache_unhealthy_degrade = config.DoubleOr(
      "middleware", "cache_unhealthy_degrade", cfg.cache_unhealthy_degrade);
  return cfg;
}

// A closed-loop workload of `type` (anything but "trace") and `kind`.
Result<WorkloadPtr> MakeWorkload(const ConfigParser& config,
                                 const std::string& type, device::IoKind kind) {
  if (type == "hpio") {
    workloads::HpioConfig cfg;
    cfg.ranks = static_cast<int>(config.IntOr("workload", "ranks", 16));
    cfg.region_count = config.IntOr("workload", "region_count", 1024);
    cfg.region_size = config.SizeOr("workload", "region_size", 8 * KiB);
    cfg.region_spacing = config.SizeOr("workload", "region_spacing", 0);
    cfg.kind = kind;
    return WorkloadPtr(std::make_unique<workloads::HpioWorkload>(cfg));
  }
  if (type == "replay") {
    auto trace = tracein::TraceLoader::LoadFile(
        config.StringOr("workload", "trace", ""), tracein::TraceFormat::kReplay);
    if (!trace.ok()) return trace.status();
    return WorkloadPtr(std::make_unique<tracein::TraceReplayWorkload>(
        std::move(*trace), config.StringOr("workload", "file", "replay.dat")));
  }
  if (type == "tile") {
    workloads::TileIoConfig cfg;
    cfg.ranks = static_cast<int>(config.IntOr("workload", "ranks", 100));
    cfg.elements_x =
        static_cast<int>(config.IntOr("workload", "elements_x", 10));
    cfg.elements_y =
        static_cast<int>(config.IntOr("workload", "elements_y", 10));
    cfg.element_size = config.SizeOr("workload", "element_size", 32 * KiB);
    cfg.kind = kind;
    return WorkloadPtr(std::make_unique<workloads::TileIoWorkload>(cfg));
  }
  workloads::IorConfig cfg;
  cfg.ranks = static_cast<int>(config.IntOr("workload", "ranks", 32));
  cfg.file_size = config.SizeOr("workload", "file_size", 64 * MiB);
  cfg.request_size = config.SizeOr("workload", "request_size", 16 * KiB);
  cfg.random = config.BoolOr("workload", "random", true);
  cfg.kind = kind;
  cfg.seed = Scenario::Seed(config);
  return WorkloadPtr(std::make_unique<workloads::IorWorkload>(cfg));
}

// [trace]: the loaded (and, for scale_ranks > 1, scaled) trace; fills in
// the replay options.
Result<std::unique_ptr<tracein::TraceReplayWorkload>> LoadTimedTrace(
    const ConfigParser& config, tracein::ReplayOptions& options) {
  const std::string path = config.StringOr("trace", "path", "");
  if (path.empty()) {
    return Status::InvalidArgument("workload.type = trace needs [trace] path");
  }
  auto format = tracein::TraceLoader::FormatFromName(
      config.StringOr("trace", "format", "auto"));
  if (!format.ok()) return format.status();
  auto trace = tracein::TraceLoader::LoadFile(path, *format);
  if (!trace.ok()) return trace.status();
  const auto mode = ReadEnum(config, "trace", "mode", {"open", "closed"});
  if (!mode.ok()) return mode.status();
  options.mode = *mode == "open" ? tracein::ReplayMode::kOpenLoop
                                 : tracein::ReplayMode::kClosedLoop;
  if (options.mode == tracein::ReplayMode::kOpenLoop &&
      !trace->has_timestamps) {
    return Status::InvalidArgument(
        trace->source + " has no timestamps; open-loop replay needs an "
                        "arrival schedule (use mode = closed)");
  }
  options.time_scale = config.DoubleOr("trace", "time_scale", 1.0);
  const auto factor = config.IntOr("trace", "scale_ranks", 1);
  if (options.time_scale < 0.0 || factor < 1) {
    return Status::InvalidArgument(
        "trace.time_scale must be >= 0 and trace.scale_ranks >= 1");
  }
  if (factor > 1) {
    tracein::ScaleOptions scale;
    scale.factor = static_cast<int>(factor);
    *trace = tracein::ScaleTrace(*trace, scale);
  }
  options.window = config.DurationOr("trace", "window", FromMillis(100));
  return std::make_unique<tracein::TraceReplayWorkload>(
      std::move(*trace), config.StringOr("trace", "file", "trace.dat"));
}

}  // namespace

std::uint64_t Scenario::Seed(const ConfigParser& config) {
  return static_cast<std::uint64_t>(config.IntOr("workload", "seed", 42));
}

void Scenario::ResolveTracePaths(const std::string& config_path,
                                 ConfigParser& config) {
  const std::size_t slash = config_path.find_last_of('/');
  if (slash == std::string::npos) return;
  for (const auto& [section, key] :
       {std::pair{"trace", "path"}, std::pair{"workload", "trace"}}) {
    const std::string value = config.StringOr(section, key, "");
    if (!value.empty() && value.front() != '/') {
      config.Set(section, key, config_path.substr(0, slash + 1) + value);
    }
  }
}

Result<std::unique_ptr<Scenario>> Scenario::Build(const ConfigParser& config,
                                                  obs::Observability* obs) {
  if (Status known = ValidateConfig(config); !known.ok()) return known;
  std::unique_ptr<Scenario> s(new Scenario());

  // Parse everything that needs no live stack first.
  auto schedule = fault::FaultSchedule::FromConfig(config);
  if (!schedule.ok()) return schedule.status();
  s->faults_ = std::move(*schedule);
  TestbedConfig bed_cfg;
  bed_cfg.obs = obs;
  // The HDD models' seeds, so a seed sweep varies the cluster as well as
  // the IOR generator (HPIO and Tile-IO have no seed of their own).
  bed_cfg.seed = Seed(config);
  if (Status cluster = ApplyClusterOverrides(config, bed_cfg); !cluster.ok()) {
    return cluster;
  }
  const auto mw_type = ReadEnum(config, "middleware", "type", {"s4d", "stock"});
  if (!mw_type.ok()) return mw_type.status();
  const auto s4d_cfg = ParseMiddlewareConfig(config, !s->faults_.empty());
  if (!s4d_cfg.ok()) return s4d_cfg.status();
  const auto policy_cfg = policy::ParsePolicyConfig(config);
  if (!policy_cfg.ok()) return policy_cfg.status();
  const auto calib_cfg = calib::ParseCalibConfig(config);
  if (!calib_cfg.ok()) return calib_cfg.status();
  const bool policy = policy_cfg->mode != policy::PolicyMode::kPaperDefault;
  const bool tenants = config.HasSection("tenants");
  if (*mw_type == "stock" && (policy || tenants || calib_cfg->has_value())) {
    return Status::InvalidArgument(
        "[policy], [tenants] and [calib] need middleware.type = s4d");
  }

  const auto type = ReadEnum(config, "workload", "type",
                             {"ior", "hpio", "tile", "replay", "trace"});
  if (!type.ok()) return type.status();
  const auto kind = ReadEnum(config, "workload", "kind", {"write", "read"});
  if (!kind.ok()) return kind.status();
  s->repeat_ = static_cast<int>(config.IntOr("workload", "repeat", 1));
  if (*type == "trace") {
    auto trace = LoadTimedTrace(config, s->replay_);
    if (!trace.ok()) return trace.status();
    s->timed_trace_ = std::move(*trace);
  } else {
    const bool read = *kind == "read";
    auto workload = MakeWorkload(
        config, *type, read ? device::IoKind::kRead : device::IoKind::kWrite);
    if (!workload.ok()) return workload.status();
    s->workload_ = std::move(*workload);
    if (read) {
      auto writer = MakeWorkload(config, *type, device::IoKind::kWrite);
      if (!writer.ok()) return writer.status();
      auto reader = MakeWorkload(config, *type, device::IoKind::kRead);
      if (!reader.ok()) return reader.status();
      s->warm_writer_ = std::move(*writer);
      s->cold_reader_ = std::move(*reader);
    }
  }

  s->bed_ = std::make_unique<Testbed>(bed_cfg);
  Testbed& bed = *s->bed_;
  if (*mw_type == "s4d") s->s4d_ = bed.MakeS4D(*s4d_cfg);
  if (policy) {
    s->policy_ = std::make_unique<policy::PolicyEngine>(*policy_cfg);
    s->policy_->Attach(*s->s4d_, obs);
  }
  if (tenants) {
    auto parsed =
        tenant::ParseTenantsConfig(config, s->s4d_->cache_space().capacity());
    if (!parsed.ok()) return parsed.status();
    const int ranks = static_cast<int>(config.IntOr("workload", "ranks", 32));
    s->tenants_ = std::make_unique<tenant::TenantManager>(
        bed.engine(), tenant::TenantRegistry(std::move(*parsed), ranks), obs);
    s->tenants_->Attach(*s->s4d_);
  }
  if (calib_cfg->has_value()) {
    s->calibration_ = std::make_unique<calib::CalibrationEngine>(
        **calib_cfg, bed.MakeCostModel().params());
    s->calibration_->Attach(*s->s4d_, bed.dservers(), bed.cservers(), obs);
  }
  if (bed_cfg.track_content) {
    s->checker_ = std::make_unique<ContentChecker>();
    if (s->s4d_) {
      s->s4d_->SetDirtyLossHook(
          [checker = s->checker_.get()](const std::string& file,
                                        byte_count offset, byte_count length) {
            checker->MarkMaybeLost(file, offset, length);
          });
    }
  }
  s->injector_ = std::make_unique<fault::FaultInjector>(
      bed.engine(), bed.dservers(), bed.cservers(), s->s4d_.get());
  if (obs != nullptr) s->injector_->SetObservability(obs);
  if (!s->faults_.empty()) s->injector_->Arm(s->faults_);
  s->layer_ = std::make_unique<mpiio::MpiIoLayer>(
      bed.engine(), s->s4d_ ? *s->s4d_ : static_cast<mpiio::IoDispatch&>(
                                             bed.stock()));
  s->replay_.checker = s->checker_.get();
  s->replay_.obs = obs;
  // Every typed read is done: a malformed value that fell back to its
  // default fails the run instead.
  if (Status typed = config.typed_error(); !typed.ok()) return typed;
  return s;
}

void Scenario::Settle() {
  if (!s4d_) return;
  DrainUntil(
      bed_->engine(), [this] { return s4d_->BackgroundQuiescent(); },
      FromSeconds(3600));
}

tracein::ReplayResult Scenario::Run(const PassCallback& on_pass) {
  DriverOptions options;
  options.checker = checker_.get();
  options.on_issue = on_issue_;
  replay_.on_issue = on_issue_;
  if (warms_up()) {
    RunClosedLoop(*layer_, *warm_writer_, options);
    Settle();
    RunClosedLoop(*layer_, *cold_reader_, options);
    Settle();
  }
  measure_begin_ = bed_->engine().now();
  const pfs::FsStats dservers_begin = bed_->dservers().stats();
  const pfs::FsStats cservers_begin = bed_->cservers().stats();
  tracein::ReplayResult last;
  for (int pass = 1; pass <= repeat_; ++pass) {
    if (timed_trace_) {
      last = timed_trace_->Replay(*layer_, replay_);
    } else {
      workload_->Reset();
      last.run = RunClosedLoop(*layer_, *workload_, options);
    }
    if (on_pass) on_pass(pass, last);
  }
  measure_end_ = bed_->engine().now();
  dservers_window_ = bed_->dservers().stats() - dservers_begin;
  cservers_window_ = bed_->cservers().stats() - cservers_begin;
  return last;
}

}  // namespace s4d::harness
