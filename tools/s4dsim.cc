// s4dsim — config-driven experiment driver.
//
// Runs a workload (IOR / HPIO / MPI-Tile-IO) through the simulated cluster
// under a chosen middleware (stock / s4d) and prints a full report:
// throughput, latency, request routing, cache state, and rebuilder work.
//
//   $ ./tools/s4dsim experiment.ini
//   $ ./tools/s4dsim --print-default-config > experiment.ini
//   $ ./tools/s4dsim --sweep-seeds=8 --jobs=4 experiment.ini
//
// Config format (all keys optional — defaults reproduce the paper's
// deployment, 8 DServers + 4 CServers, GigE, 64 KiB stripes):
//
//   [cluster]
//   dservers = 8
//   cservers = 4
//   stripe = 64k
//
//   [middleware]            ; "stock" or "s4d"
//   type = s4d
//   cache_capacity = 128m
//   policy = cost-model      ; cost-model | always | never
//   rebuild_interval = 100ms
//
//   [workload]               ; type = ior | hpio | tile | replay | trace
//   type = ior
//   ranks = 32
//   file_size = 64m
//   request_size = 16k
//   random = true
//   kind = write             ; write | read (read = second-run measurement)
//   repeat = 1
//
//   [trace]                   ; workload.type = trace: timed trace replay
//   path = capture.csv        ; MSR/native/replay CSV or S4DTRC01 binary
//   format = auto             ; auto | msr | native | replay | binary
//   mode = open               ; open (arrivals on the sim clock) | closed
//   time_scale = 1.0          ; arrival / think-gap multiplier
//   scale_ranks = 1           ; TraceScaler clone factor (N x streams)
//   window = 100ms            ; time-windowed replay stats; 0 disables
//   file = trace.dat          ; simulated file the replay targets
//
// workload.type = replay runs the replay CSV workload.trace closed-loop
// (arrivals ignored). A relative [trace] path or workload.trace is
// resolved against the config file's directory, so experiment configs can
// name the traces bundled under examples/traces/.
//
//   [faults]                  ; optional: deterministic fault timeline
//   fault1 = 100ms crash cservers 0
//   fault2 = 250ms restart cservers 0
//
// With `cluster.verify_content = true`, every write is tokenized and every
// read checked against a reference image; the report then includes a
// verification summary (failures vs. reads inside the reported
// dirty-data-loss window). `middleware.degraded_reads = queue|stale`
// selects what a dirty read does while the cache tier is down.
//
// Observability (all optional; defaults keep the run unobserved):
//
//   [obs]
//   trace_out = trace.json      ; Chrome trace_event JSON (chrome://tracing)
//   metrics_out = metrics.json  ; metrics registry dump (+ time series)
//   capture_out = run.csv       ; replay CSV of every issued request
//                               ; (reload with workload.type = trace)
//   sample_interval = 10ms      ; periodic sampler; 0 disables
//
// The equivalent CLI flags `--trace-out=`, `--metrics-out=`,
// `--capture-out=` and `--sample-interval=` override the config file.
//
// Seed sweeps: `--sweep-seeds=N` runs N copies of the experiment with
// seeds base, base+1, ..., base+N-1 (base = workload.seed; it seeds the
// IOR generator and the HDD models) and
// prints one result row per seed plus an aggregate. `--jobs=J` runs them on
// J threads; every run owns its whole simulated world, so the per-seed
// rows are byte-identical for any J. harness::Scenario builds and runs
// both, so a sweep row reports the single run's last pass. An unknown key,
// an unknown enum value or a malformed number, boolean, size or duration
// is a config error (stderr, exit 1), never a default.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <vector>

#include "common/config_parser.h"
#include "common/table_printer.h"
#include "harness/scenario.h"
#include "harness/sweep_runner.h"
#include "obs/observability.h"
#include "obs/sampler.h"
#include "tracein/loader.h"
#include "tracein/replayer.h"

using namespace s4d;

namespace {

constexpr const char* kDefaultConfig = R"([cluster]
dservers = 8
cservers = 4
stripe = 64k

[middleware]
type = s4d
cache_capacity = 128m
policy = cost-model
rebuild_interval = 100ms

[workload]
type = ior
ranks = 32
file_size = 64m
request_size = 16k
random = true
kind = write
repeat = 1
)";

int Run(const ConfigParser& config) {
  // Observability: constructed before the stack so every layer can attach
  // at build time; entirely inert (null pointers everywhere) when no output
  // was requested.
  const std::string trace_out = config.StringOr("obs", "trace_out", "");
  const std::string metrics_out = config.StringOr("obs", "metrics_out", "");
  const SimTime sample_interval =
      config.DurationOr("obs", "sample_interval", 0);
  const bool observed = !trace_out.empty() || !metrics_out.empty();
  obs::Observability obs;
  obs.tracer.set_enabled(!trace_out.empty());

  auto built = harness::Scenario::Build(config, observed ? &obs : nullptr);
  if (!built.ok()) {
    std::fprintf(stderr, "config error: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  harness::Scenario& scenario = **built;
  harness::Testbed& bed = scenario.bed();
  core::S4DCache* s4d = scenario.s4d();
  const policy::PolicyEngine* policy_engine = scenario.policy_engine();
  calib::CalibrationEngine* calibration = scenario.calibration();

  if (calibration) {
    std::printf("calibration: forget %g, min_samples %lld, queue gain %g%s\n",
                calibration->config().forget,
                static_cast<long long>(calibration->config().min_samples),
                calibration->config().queue_gain,
                calibration->config().saturation_depth > 0.0
                    ? ", saturation probe armed"
                    : "");
  }
  if (!scenario.faults().empty()) {
    std::printf("faults: %zu scheduled\n", scenario.faults().size());
  }

  // --capture-out / obs.capture_out: record every issued request with its
  // sim-time arrival and write the lot as a timestamped replay CSV at exit,
  // reloadable with workload.type = trace (the capture-once half of the
  // capture-once / replay-what-if loop).
  const std::string capture_out = config.StringOr("obs", "capture_out", "");
  tracein::LoadedTrace captured;
  if (!capture_out.empty()) {
    captured.format = tracein::TraceFormat::kReplay;
    captured.source = "s4dsim capture";
    captured.has_timestamps = true;
    scenario.set_on_issue([&captured, &bed](int rank,
                                            const workloads::Request& request) {
      captured.records.push_back({rank, request.kind, request.offset,
                                  request.size, bed.engine().now()});
    });
  }

  // Periodic time series (written into the metrics dump). Probes are
  // read-only: outstanding sub-requests and middleware counters.
  obs::TimeSeriesSampler sampler(bed.engine(), sample_interval);
  if (observed && sample_interval > 0) {
    sampler.AddProbe("opfs.outstanding_subs", [&bed] {
      return static_cast<double>(bed.dservers().outstanding_subs());
    });
    sampler.AddProbe("cpfs.outstanding_subs", [&bed] {
      return static_cast<double>(bed.cservers().outstanding_subs());
    });
    if (s4d) {
      core::S4DCache* cache = s4d;
      sampler.AddProbe("s4d.dirty_bytes", [cache] {
        return static_cast<double>(cache->dmt().dirty_bytes());
      });
      sampler.AddProbe("s4d.cache_used_bytes", [cache] {
        return static_cast<double>(cache->cache_space().used_bytes());
      });
      sampler.AddProbe("s4d.read_hit_ratio", [cache] {
        const core::RedirectorStats& rs = cache->redirector_stats();
        return rs.read_requests > 0
                   ? static_cast<double>(rs.read_cache_hits +
                                         rs.read_partial_hits) /
                         static_cast<double>(rs.read_requests)
                   : 0.0;
      });
      sampler.AddProbe("s4d.cache_tier_slowdown",
                       [cache] { return cache->CacheTierSlowdown(); });
      // Age of the oldest / median dirty extent: how long acknowledged data
      // has been exposed to cache-tier loss.
      sampler.AddProbe("s4d.dirty_age_oldest_us", [cache, &bed] {
        return ToMicros(
            cache->dmt().SummarizeDirtyAges(bed.engine().now()).oldest);
      });
      sampler.AddProbe("s4d.dirty_age_p50_us", [cache, &bed] {
        return ToMicros(
            cache->dmt().SummarizeDirtyAges(bed.engine().now()).p50);
      });
    }
    if (calibration) {
      calib::CalibrationEngine* cal = calibration;
      sampler.AddProbe("calib.cserver_mean_depth",
                       [cal] { return cal->MeanCServerDepth(); });
      sampler.AddProbe("calib.samples", [cal] {
        return static_cast<double>(cal->stats().samples);
      });
    }
    if (s4d && !trace_out.empty()) {
      // Per-tick dirty-age instant: richer than the two scalar series above
      // (extent count + oldest/mean/p50) at the same cadence.
      core::S4DCache* cache = s4d;
      obs::Observability* ob = &obs;
      const std::uint32_t dirty_lane = obs.tracer.Lane("dmt");
      sampler.SetTickHook([cache, ob, dirty_lane](SimTime t) {
        const core::DataMappingTable::DirtyAgeSummary ages =
            cache->dmt().SummarizeDirtyAges(t);
        const obs::SpanId id =
            ob->tracer.Instant(dirty_lane, "dirty.age", "dmt", t);
        ob->tracer.AddArg(id, "extents", ages.dirty_extents);
        ob->tracer.AddArg(id, "oldest_us_x10", ages.oldest / 100);
        ob->tracer.AddArg(id, "mean_us_x10", ages.mean / 100);
        ob->tracer.AddArg(id, "p50_us_x10", ages.p50 / 100);
      });
    }
    sampler.Start();
  }

  const tracein::TraceReplayWorkload* timed = scenario.timed_trace();
  if (timed) {
    std::printf("trace: %zu requests over %d ranks (%s from %s), %s-loop "
                "replay, time scale %g\n",
                timed->trace().records.size(), timed->trace().ranks,
                FormatBytes(timed->trace().total_bytes).c_str(),
                timed->trace().source.c_str(),
                tracein::ReplayModeName(scenario.replay_options().mode),
                scenario.replay_options().time_scale);
  }
  if (scenario.warms_up()) {
    std::printf("warming: write pass + settle + cold read pass + settle\n");
  }
  const tracein::ReplayResult last =
      scenario.Run([timed](int pass, const tracein::ReplayResult& r) {
        std::printf("pass %d: %.1f MB/s (%lld requests, %s, mean latency "
                    "%.0f us",
                    pass, r.run.throughput_mbps,
                    static_cast<long long>(r.run.requests),
                    FormatBytes(r.run.bytes).c_str(), r.run.mean_latency_us);
        if (timed) {
          std::printf(", peak in flight %lld",
                      static_cast<long long>(r.peak_in_flight));
        }
        std::printf(")\n");
      });
  if (!last.windows.empty()) {
    std::printf("\n-- replay windows (%s each) --\n",
                FormatTime(scenario.replay_options().window).c_str());
    TablePrinter wt({"window", "start (ms)", "requests", "reads", "writes",
                     "bytes", "MB/s", "mean us", "max us"});
    int index = 0;
    for (const tracein::ReplayWindow& w : last.windows) {
      wt.AddRow({TablePrinter::Int(index++),
                 TablePrinter::Num(ToMillis(w.start), 1),
                 TablePrinter::Int(w.requests), TablePrinter::Int(w.reads),
                 TablePrinter::Int(w.writes), FormatBytes(w.bytes),
                 TablePrinter::Num(w.throughput_mbps, 2),
                 TablePrinter::Num(w.mean_latency_us, 1),
                 TablePrinter::Num(w.max_latency_us, 1)});
    }
    wt.Print(std::cout);
  }

  // Foreground requests per tier over the measured passes.
  std::printf("\n-- routing --\n");
  const pfs::FsStats& d_window = scenario.dservers_window();
  const pfs::FsStats& c_window = scenario.cservers_window();
  const std::int64_t routed =
      d_window.foreground_requests + c_window.foreground_requests;
  TablePrinter routing({"servers", "requests", "%", "bytes"});
  const auto add_row = [&routing, routed](const char* group,
                                          const pfs::FsStats& window) {
    const double percent =
        routed == 0 ? 0.0
                    : 100.0 * static_cast<double>(window.foreground_requests) /
                          static_cast<double>(routed);
    routing.AddRow({group, TablePrinter::Int(window.foreground_requests),
                    TablePrinter::Percent(percent),
                    FormatBytes(window.foreground_bytes)});
  };
  add_row("DServers", d_window);
  add_row("CServers", c_window);
  routing.Print(std::cout);

  if (s4d) {
    const auto& rs = s4d->redirector_stats();
    const auto& bs = s4d->rebuilder_stats();
    std::printf("\n-- middleware --\n");
    std::printf("identifier: %lld requests, %lld critical\n",
                static_cast<long long>(s4d->identifier_stats().requests),
                static_cast<long long>(s4d->identifier_stats().critical));
    std::printf(
        "redirector: %lld admissions, %lld write hits, %lld read hits, "
        "%lld clean bypasses, %lld evictions, %lld admission failures\n",
        static_cast<long long>(rs.write_admissions),
        static_cast<long long>(rs.write_cache_hits),
        static_cast<long long>(rs.read_cache_hits),
        static_cast<long long>(rs.read_clean_bypasses),
        static_cast<long long>(rs.evictions),
        static_cast<long long>(rs.admission_failures));
    std::printf("rebuilder: %lld flush runs (%s), %lld fetches (%s)\n",
                static_cast<long long>(bs.flush_runs_started),
                FormatBytes(bs.flushed_bytes).c_str(),
                static_cast<long long>(bs.fetches_started),
                FormatBytes(bs.fetched_bytes).c_str());
    std::printf("cache: %s / %s used, %zu mappings, %s dirty\n",
                FormatBytes(s4d->cache_space().used_bytes()).c_str(),
                FormatBytes(s4d->cache_space().capacity()).c_str(),
                s4d->dmt().entry_count(),
                FormatBytes(s4d->dmt().dirty_bytes()).c_str());
    if (policy_engine) {
      const policy::AdmissionController& ac = policy_engine->admission();
      const auto& as = ac.stats();
      std::printf(
          "policy: %s, %lld admits, %lld threshold rejects, %lld pressure "
          "vetoes, threshold %lld us (%lld raises, %lld decays)\n",
          policy::PolicyModeName(policy_engine->config().mode),
          static_cast<long long>(as.admits),
          static_cast<long long>(as.threshold_rejects),
          static_cast<long long>(as.pressure_vetoes),
          static_cast<long long>(ac.threshold() / kMicrosecond),
          static_cast<long long>(as.threshold_raises),
          static_cast<long long>(as.threshold_decays));
    }
    if (scenario.tenant_manager()) scenario.tenant_manager()->PrintReport();
    if (calibration) {
      std::printf("\n-- calibration --\n");
      calibration->PrintReport(std::cout);
    }
    const auto& drs = s4d->redirector_stats();
    if (drs.saturation_write_bypasses + drs.saturation_read_bypasses +
            drs.saturation_fetch_suppressions >
        0) {
      std::printf(
          "saturation: %lld write bypasses, %lld critical-read bypasses, "
          "%lld fetch suppressions\n",
          static_cast<long long>(drs.saturation_write_bypasses),
          static_cast<long long>(drs.saturation_read_bypasses),
          static_cast<long long>(drs.saturation_fetch_suppressions));
    }
  }

  if (!scenario.faults().empty()) {
    // Let recovery finish (queued reads re-issued, flush backlog drained)
    // before judging the final state.
    scenario.Settle();
    const auto& is = scenario.injector().stats();
    std::printf("\n-- faults --\n");
    std::printf(
        "injected: %lld events (%lld crashes, %lld wipes, %lld restarts, "
        "%lld degrades, %lld partition changes)\n",
        static_cast<long long>(is.events_applied),
        static_cast<long long>(is.crashes), static_cast<long long>(is.wipes),
        static_cast<long long>(is.restarts),
        static_cast<long long>(is.degrades),
        static_cast<long long>(is.partitions));
    std::printf("pfs: %lld failed requests (dservers %lld, cservers %lld)\n",
                static_cast<long long>(bed.dservers().stats().failed_requests +
                                       bed.cservers().stats().failed_requests),
                static_cast<long long>(bed.dservers().stats().failed_requests),
                static_cast<long long>(bed.cservers().stats().failed_requests));
    if (s4d) {
      const auto& c = s4d->counters();
      const auto& rs = s4d->redirector_stats();
      const auto& bs = s4d->rebuilder_stats();
      std::printf(
          "degraded routing: %lld writes, %lld reads (%lld dirty: %lld "
          "queued, %lld served stale)\n",
          static_cast<long long>(rs.degraded_writes),
          static_cast<long long>(rs.degraded_reads),
          static_cast<long long>(rs.degraded_dirty_reads),
          static_cast<long long>(c.queued_degraded_reads),
          static_cast<long long>(c.stale_dirty_reads));
      std::printf(
          "rebuilder: %lld flush failures, %lld timeouts, %lld fetch "
          "failures, %lld recovery passes (%lld dirty extents, %s replayed)\n",
          static_cast<long long>(bs.flush_failures),
          static_cast<long long>(bs.flush_timeouts),
          static_cast<long long>(bs.fetch_failures),
          static_cast<long long>(bs.recovery_passes),
          static_cast<long long>(bs.recovered_dirty_extents),
          FormatBytes(bs.recovered_dirty_bytes).c_str());
      std::printf("loss window: %lld wiped extents, %s dirty bytes lost\n",
                  static_cast<long long>(c.wiped_extents),
                  FormatBytes(c.lost_dirty_bytes).c_str());
    }
  }

  if (observed) {
    sampler.Stop();
    if (calibration && !trace_out.empty()) {
      calibration->ExportTrace(obs, bed.engine().now());
    }
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      if (!out) {
        std::fprintf(stderr, "cannot open trace output: %s\n",
                     trace_out.c_str());
        return 1;
      }
      obs.tracer.WriteChromeTrace(out);
      std::printf("\ntrace: %zu events -> %s\n", obs.tracer.records().size(),
                  trace_out.c_str());
    }
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      if (!out) {
        std::fprintf(stderr, "cannot open metrics output: %s\n",
                     metrics_out.c_str());
        return 1;
      }
      out << "{\"metrics\":";
      obs.metrics.WriteJson(out);
      out << ",\"series\":";
      if (sample_interval > 0) {
        sampler.WriteJson(out);
      } else {
        out << "null";
      }
      out << "}\n";
      std::printf("metrics: -> %s\n", metrics_out.c_str());
    }
  }

  if (!capture_out.empty()) {
    // Arrivals are written relative to the first captured request, so the
    // replay starts immediately even when warm-up passes preceded it.
    if (!captured.records.empty()) {
      const SimTime start = captured.records.front().arrival;
      for (tracein::TraceRecord& record : captured.records) {
        record.arrival -= start;
      }
    }
    tracein::FinalizeTrace(captured);
    std::ofstream out(capture_out);
    if (!out) {
      std::fprintf(stderr, "cannot open capture output: %s\n",
                   capture_out.c_str());
      return 1;
    }
    out << tracein::TraceLoader::ToReplayCsv(captured);
    std::printf("capture: %zu requests -> %s\n", captured.records.size(),
                capture_out.c_str());
  }

  if (harness::ContentChecker* checker = scenario.checker()) {
    checker->CheckAll(scenario.dispatch());
    std::printf("\n-- verification --\n");
    std::printf(
        "%lld checks, %lld failures, %lld reads in reported loss window "
        "(%s reported lost)\n",
        static_cast<long long>(checker->checks()),
        static_cast<long long>(checker->failures()),
        static_cast<long long>(checker->loss_window_reads()),
        FormatBytes(checker->lost_bytes()).c_str());
    if (checker->failures() > 0) {
      std::printf("first failure: %s\n", checker->first_failure().c_str());
      std::printf("VERIFICATION FAILED\n");
      return 1;
    }
    std::printf("verification OK: no acknowledged write lost outside the "
                "reported loss window\n");
  }
  return 0;
}

// One sweep run: the experiment from the config with the workload seed
// replaced, everything else identical. No printing (runs execute
// concurrently); the caller reports the returned metrics in seed order.
struct SeedMetrics {
  Status status;
  std::uint64_t seed = 0;
  harness::RunResult result{};
  SimTime sim_end = 0;
  std::uint64_t events_fired = 0;
};

SeedMetrics RunOneSeed(const ConfigParser& base, std::uint64_t seed) {
  ConfigParser config = base;
  config.Set("workload", "seed", std::to_string(seed));
  SeedMetrics metrics;
  metrics.seed = seed;
  auto scenario = harness::Scenario::Build(config);
  if (!scenario.ok()) {
    metrics.status = scenario.status();
    return metrics;
  }
  metrics.result = (*scenario)->Run().run;
  metrics.sim_end = (*scenario)->bed().engine().now();
  metrics.events_fired = (*scenario)->bed().engine().events_fired();
  return metrics;
}

int RunSweep(const ConfigParser& config, int seeds, int jobs) {
  const std::uint64_t base = harness::Scenario::Seed(config);
  const auto results = harness::RunSweep<SeedMetrics>(
      seeds, jobs, base,
      [&](const harness::SweepJob& job) { return RunOneSeed(config, job.seed); });
  // A config error fails every seed the same way; report it once.
  for (const SeedMetrics& m : results) {
    if (!m.status.ok()) {
      std::fprintf(stderr, "config error: %s\n", m.status.ToString().c_str());
      return 1;
    }
  }
  // The banner deliberately omits the jobs count: sweep output is
  // byte-identical for any --jobs value, and keeping the execution detail
  // out of it lets callers diff runs directly.
  std::printf("sweep: %d seeds (base %llu)\n\n", seeds,
              static_cast<unsigned long long>(base));

  TablePrinter table({"seed", "MB/s", "requests", "mean latency (us)",
                      "sim end (ms)", "events"});
  double sum = 0.0, lo = 0.0, hi = 0.0;
  for (const SeedMetrics& m : results) {
    table.AddRow({TablePrinter::Int(static_cast<std::int64_t>(m.seed)),
                  TablePrinter::Num(m.result.throughput_mbps, 2),
                  TablePrinter::Int(m.result.requests),
                  TablePrinter::Num(m.result.mean_latency_us, 1),
                  TablePrinter::Num(ToMillis(m.sim_end), 1),
                  TablePrinter::Int(static_cast<std::int64_t>(m.events_fired))});
    const double t = m.result.throughput_mbps;
    sum += t;
    if (m.seed == base || t < lo) lo = t;
    if (m.seed == base || t > hi) hi = t;
  }
  table.Print(std::cout);
  std::printf("\naggregate: mean %.2f MB/s, min %.2f, max %.2f over %d seeds\n",
              sum / static_cast<double>(seeds), lo, hi, seeds);
  return 0;
}

// Parses a whole decimal string into an int >= 1; rejects empty input,
// trailing characters and out-of-range values.
bool ParsePositiveInt(const std::string& text, int* out) {
  int value = 0;
  const char* last = text.data() + text.size();
  const auto result = std::from_chars(text.data(), last, value);
  if (result.ec != std::errc{} || result.ptr != last || value < 1) return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--print-default-config") == 0) {
    std::fputs(kDefaultConfig, stdout);
    return 0;
  }
  ConfigParser config;
  const char* config_path = nullptr;
  struct Override {
    const char* section;
    const char* key;
    std::string value;
  };
  std::vector<Override> overrides;
  int sweep_seeds = 0;
  int jobs = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto flag_value = [&arg](const char* prefix) -> std::optional<std::string> {
      const std::size_t len = std::strlen(prefix);
      if (arg.compare(0, len, prefix) == 0) return arg.substr(len);
      return std::nullopt;
    };
    if (auto v = flag_value("--trace-out=")) {
      overrides.push_back({"obs", "trace_out", *v});
    } else if (auto v = flag_value("--metrics-out=")) {
      overrides.push_back({"obs", "metrics_out", *v});
    } else if (auto v = flag_value("--sample-interval=")) {
      overrides.push_back({"obs", "sample_interval", *v});
    } else if (auto v = flag_value("--capture-out=")) {
      overrides.push_back({"obs", "capture_out", *v});
    } else if (auto v = flag_value("--sweep-seeds=")) {
      if (!ParsePositiveInt(*v, &sweep_seeds)) {
        std::fprintf(stderr, "--sweep-seeds wants a positive count, got '%s'\n",
                     v->c_str());
        return 1;
      }
    } else if (auto v = flag_value("--jobs=")) {
      if (!ParsePositiveInt(*v, &jobs)) {
        std::fprintf(stderr, "--jobs wants a positive count, got '%s'\n",
                     v->c_str());
        return 1;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 1;
    } else if (config_path == nullptr) {
      config_path = argv[i];
    } else {
      std::fprintf(stderr, "more than one config file given: %s\n",
                   arg.c_str());
      return 1;
    }
  }
  if (config_path != nullptr) {
    const Status status = config.ParseFile(config_path);
    if (!status.ok()) {
      std::fprintf(stderr, "config error: %s\n", status.ToString().c_str());
      return 1;
    }
    harness::Scenario::ResolveTracePaths(config_path, config);
  } else {
    (void)config.Parse(kDefaultConfig);
    std::printf("(no config given; using built-in defaults — "
                "see --print-default-config)\n\n");
  }
  // CLI flags override the config file.
  for (const Override& o : overrides) config.Set(o.section, o.key, o.value);
  if (sweep_seeds > 0) return RunSweep(config, sweep_seeds, jobs);
  return Run(config);
}
