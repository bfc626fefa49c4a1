// One set-up of a benchmark workload through the paper-default S4D stack
// (8 DServers, 4 CServers, GigE, 64 KiB stripes, 32 ranks in a closed loop,
// 16 KiB requests, [middleware] defaults), on the serial engine.
//
//   s4d_perfbench --workload NAME --seed N [--trace] [--spans PATH]
//
// It assembles a fresh stack and warms it up, then runs the workload's
// measured phase in one or more forked children. Each child checks its run
// (AuditInvariants; with --trace also every read through ContentChecker),
// prints a human report on stderr and one JSON line on stdout.
// perfbench/run.py repeats this and aggregates the lines. Without --trace
// it measures the end-to-end metrics; with --trace it installs the seams of
// seams.h and measures the per-layer metrics.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/s4d_cache.h"
#include "common/stats.h"
#include "harness/content_checker.h"
#include "harness/driver.h"
#include "harness/testbed.h"
#include "mpiio/mpi_io.h"
#include "seams.h"
#include "workloads/ior.h"

namespace s4d::perfbench {
namespace {

constexpr int kRanks = 32;
constexpr byte_count kRequestSize = 16 * KiB;
// s4dsim's settle cap between the read workload's warm-up passes.
constexpr SimTime kSettleCap = FromSeconds(3600);
// Measured pass k revisits the warmed files with seed
// seed + (k + 1) * kPassSeedOffset: a rewrite of the files, or a warm
// re-read in a new random order. Several passes average out how much the
// simulated results depend on any one shuffle.
constexpr std::uint64_t kPassSeedOffset = 1000;

struct WorkloadSpec {
  const char* name;
  int instances;         // IOR instances, one shared file each
  int random_instances;  // interleaved as in the paper's §V-B mix
  byte_count file_size;  // per instance
  byte_count cache_capacity;
  bool read;  // measured phase reads (after the second-run warm-up)
  int measured_passes;
  int samples;  // measured phases per set-up, see Run()
};

// Scales keep one set-up plus its samples between about 1 and 6 s of host
// time; README.md gives the reasons for each workload.
constexpr WorkloadSpec kWorkloads[] = {
    {"ior-mix-write", 10, 4, 64 * MiB, 128 * MiB, false, 3, 1},
    {"ior-mix-read", 10, 4, 32 * MiB, 64 * MiB, true, 4, 8},
    {"ior-rand-overflow", 1, 1, 128 * MiB, 32 * MiB, false, 3, 2},
};

// The paper creates the mix's instances one by one; every odd instance up
// to 2 * random_instances is random (6 sequential + 4 random for 10/4).
bool IsRandomInstance(const WorkloadSpec& spec, int i) {
  if (spec.instances == spec.random_instances) return true;
  return i % 2 == 1 && i < 2 * spec.random_instances;
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double WallSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

// This process's resident-set high-water mark. getrusage's ru_maxrss would
// also count the launching process's RSS, which survives exec.
double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

struct PassResult {
  std::int64_t requests = 0;
  byte_count bytes = 0;
  SimTime start = 0;
  SimTime end = 0;
};

// Runs one pass over the workload's files and appends each IOR instance's
// CPU time to `chunks`.
PassResult RunPass(mpiio::MpiIoLayer& layer, const WorkloadSpec& spec,
                   device::IoKind kind, std::uint64_t seed,
                   const harness::DriverOptions& options,
                   std::vector<double>& chunks) {
  PassResult pass;
  pass.start = layer.engine().now();
  for (int i = 0; i < spec.instances; ++i) {
    workloads::IorConfig cfg;
    cfg.file = "ior." + std::to_string(i);
    cfg.ranks = kRanks;
    cfg.file_size = spec.file_size;
    cfg.request_size = kRequestSize;
    cfg.random = IsRandomInstance(spec, i);
    cfg.kind = kind;
    cfg.seed = seed + static_cast<std::uint64_t>(i);
    workloads::IorWorkload wl(cfg);
    const double t0 = CpuSeconds();
    const harness::RunResult r = harness::RunClosedLoop(layer, wl, options);
    chunks.push_back(CpuSeconds() - t0);
    pass.requests += r.requests;
    pass.bytes += r.bytes;
  }
  pass.end = layer.engine().now();
  return pass;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Ordered name -> value map printed as a JSON object.
using Values = std::map<std::string, double>;

void PrintArray(const char* key, const std::vector<double>& values) {
  std::printf("\"%s\": [", key);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.9f", i == 0 ? "" : ", ", values[i]);
  }
  std::printf("], ");
}

void PrintObject(const char* key, const Values& values, bool last = false) {
  std::printf("\"%s\": {", key);
  bool first = true;
  for (const auto& [name, value] : values) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}%s", last ? "" : ", ");
}

struct Snapshot {
  core::RedirectorStats redirector;
  core::IdentifierStats identifier;
  core::RebuilderStats rebuilder;
  pfs::ServerStats dservers;
  pfs::ServerStats cservers;
  std::uint64_t events = 0;

  static Snapshot Take(harness::Testbed& bed, const core::S4DCache& s4d) {
    return {s4d.redirector_stats(), s4d.identifier_stats(),
            s4d.rebuilder_stats(), bed.dservers().TotalServerStats(),
            bed.cservers().TotalServerStats(), bed.engine().events_fired()};
  }
};

int Run(const WorkloadSpec& spec, std::uint64_t seed, bool traced,
        const std::string& spans_path) {
  Values e2e;
  Values layers;
  Values sim;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;

  // ---- set-up: stack assembly + warm-up ----------------------------------
  // Every repetition of a seed does identical simulated work piece by piece
  // (stack assembly, each IOR instance run, each settle), so each piece's
  // CPU time is recorded and run.py can keep each piece's fastest time.
  std::vector<double> setup_chunks;
  std::vector<double> measured_chunks;
  const double setup_cpu0 = CpuSeconds();
  const double setup_wall0 = WallSeconds();
  SpanLog log;
  harness::TestbedConfig bed_config;
  bed_config.threads = 0;
  bed_config.track_content = traced;
  harness::Testbed bed(bed_config);
  core::S4DConfig s4d_config;
  s4d_config.cache_capacity = spec.cache_capacity;
  auto s4d = bed.MakeS4D(s4d_config);
  TimedDispatch timed(*s4d, log);
  TierRecorder tiers(log);
  std::int64_t evict_calls = 0;
  std::int64_t evict_found = 0;
  if (traced) {
    bed.dservers().SetSubRequestSink(&tiers, TierRecorder::kDServers);
    bed.cservers().SetSubRequestSink(&tiers, TierRecorder::kCServers);
    // The paper-default victim rule, called through the policy hook so the
    // search can be timed.
    core::S4DCache* cache = s4d.get();
    s4d->redirector().SetEvictionHooks(
        [cache, &log, &evict_calls, &evict_found] {
          auto victim = log.Timed(Layer::kDmtEvict, 0, [cache] {
            return cache->dmt().EvictLruClean();
          });
          if (log.recording()) {
            ++evict_calls;
            if (victim) ++evict_found;
          }
          return victim;
        },
        nullptr);
  }
  mpiio::IoDispatch& dispatch =
      traced ? static_cast<mpiio::IoDispatch&>(timed) : *s4d;
  mpiio::MpiIoLayer layer(bed.engine(), dispatch);
  const double build_s = CpuSeconds() - setup_cpu0;
  setup_chunks.push_back(build_s);

  harness::ContentChecker checker;
  harness::DriverOptions options;
  if (traced) options.checker = &checker;
  auto settle = [&] {
    return harness::DrainUntil(
        bed.engine(), [&] { return s4d->BackgroundQuiescent(); }, kSettleCap);
  };

  attempted += RunPass(layer, spec, device::IoKind::kWrite, seed, options,
                       setup_chunks)
                   .requests;
  double settle_s = 0;
  bool warm_settled = true;
  if (spec.read) {
    // s4dsim's "second run": write pass, settle, cold read pass, settle.
    const auto timed_settle = [&] {
      const double t0 = CpuSeconds();
      const bool quiet = settle();
      setup_chunks.push_back(CpuSeconds() - t0);
      settle_s += setup_chunks.back();
      return quiet;
    };
    warm_settled = timed_settle();
    attempted += RunPass(layer, spec, device::IoKind::kRead, seed, options,
                         setup_chunks)
                     .requests;
    warm_settled = timed_settle() && warm_settled;
  }
  const double setup_s =
      std::accumulate(setup_chunks.begin(), setup_chunks.end(), 0.0);
  const double setup_wall = WallSeconds() - setup_wall0;
  const double warmup_s = setup_s - build_s - settle_s;

  // ---- measured phase, in forked children --------------------------------
  // Each child starts from the identical post-warm-up state, so one set-up
  // yields `samples` measured phases of identical simulated work, one after
  // the other, each printing its own line. Where set-up dominates, as the
  // settle stall does on ior-mix-read, a run then gets several times more
  // samples of its measured phase. Every workload measures in a child, so
  // copy-on-write faults weigh the same on all of them.
  const double setup_rss_mib = PeakRssMib();
  bool in_child = false;
  for (int sample = 0; sample < spec.samples && !in_child; ++sample) {
    std::fflush(nullptr);
    const pid_t child = fork();
    if (child < 0) {
      std::perror("fork");
      return 1;
    }
    if (child == 0) {
      in_child = true;
      break;
    }
    int status = 0;
    if (waitpid(child, &status, 0) != child || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "measured sample %d failed (status %d)\n", sample,
                   status);
      return 1;
    }
    attempted = 0;  // the warm-up's requests count once, in the first sample
  }
  if (!in_child) return 0;

  // ---- measured phase ----------------------------------------------------
  Samples latency;  // ns
  s4d->SetRequestObserver([&latency](const core::RequestOutcome& o) {
    latency.Add(static_cast<double>(o.latency));
  });
  const Snapshot before = Snapshot::Take(bed, *s4d);

  // Destage-scan probe: the Rebuilder's CollectDirtyRuns, called once per
  // Rebuilder interval with its own arguments. Const, so it changes nothing
  // but the engine's event count, which is corrected for below.
  const core::RebuilderConfig& rb = s4d_config.rebuilder;
  std::int64_t probes = 0;
  double dmt_entries_sum = 0;
  sim::EventId probe_event = sim::kInvalidEvent;
  std::function<void()> probe = [&] {
    ++probes;
    dmt_entries_sum += static_cast<double>(s4d->dmt().entry_count());
    log.Timed(Layer::kDmtCollectDirty, 0, [&] {
      return s4d->dmt().CollectDirtyRuns(rb.flush_batch_bytes,
                                         rb.flush_run_bytes);
    });
    probe_event = bed.engine().ScheduleAfter(rb.interval, [&] { probe(); });
  };
  if (traced) {
    log.Start();
    probe_event = bed.engine().ScheduleAfter(rb.interval, [&] { probe(); });
  }
  const double wall0 = WallSeconds();
  PassResult pass;
  pass.start = bed.engine().now();
  for (int i = 0; i < spec.measured_passes; ++i) {
    const PassResult p = RunPass(
        layer, spec, spec.read ? device::IoKind::kRead : device::IoKind::kWrite,
        seed + static_cast<std::uint64_t>(i + 1) * kPassSeedOffset, options,
        measured_chunks);
    pass.requests += p.requests;
    pass.bytes += p.bytes;
    pass.end = p.end;
  }
  const double host_s =
      std::accumulate(measured_chunks.begin(), measured_chunks.end(), 0.0);
  const double host_wall = WallSeconds() - wall0;
  if (traced) {
    log.Stop();
    bed.engine().Cancel(probe_event);
  }
  s4d->SetRequestObserver(nullptr);
  attempted += pass.requests;
  const Snapshot after = Snapshot::Take(bed, *s4d);
  const auto events = static_cast<std::int64_t>(after.events - before.events) -
                      probes;

  // ---- checks ------------------------------------------------------------
  if (!spec.read) {
    // Write workloads quiesce once the Rebuilder destages the dirty data,
    // which lets the audit demand used == mapped.
    const bool quiet = settle();
    s4d->AuditInvariants(/*expect_quiescent=*/quiet);
    if (!quiet) failures.push_back("write workload did not quiesce");
  } else {
    // The read warm-up never quiesces (pending C_flag fetches cannot get
    // free space while fetch_may_evict is off); audit the non-quiescent form.
    s4d->AuditInvariants(/*expect_quiescent=*/false);
  }
  if (traced) {
    checker.CheckAll(dispatch);
    if (checker.failures() > 0) {
      failed += checker.failures();
      failures.push_back("content mismatch: " + checker.first_failure());
    }
  }
  const std::int64_t failed_ops = s4d->counters().failed_requests +
                                  bed.dservers().stats().failed_requests +
                                  bed.cservers().stats().failed_requests;
  if (failed_ops > 0) {
    failed += failed_ops;
    failures.push_back("failed requests: " + std::to_string(failed_ops));
  }
  if (!failures.empty() && failed == 0) failed = 1;
  if (latency.count() != static_cast<std::size_t>(pass.requests)) {
    failed += 1;
    failures.push_back("request observer saw " + std::to_string(latency.count()) +
                       " of " + std::to_string(pass.requests) + " requests");
  }

  // ---- metrics -----------------------------------------------------------
  const SimTime elapsed = pass.end - pass.start;
  const double sim_mbps = ThroughputMBps(pass.bytes, elapsed);
  const double p50_ms = latency.Percentile(50) / 1e6;
  const double p99_ms = latency.Percentile(99) / 1e6;
  const double peak_rss_mib = std::max(setup_rss_mib, PeakRssMib());

  e2e["host_s"] = host_s;
  e2e["host_ns_per_request"] =
      host_s * 1e9 / static_cast<double>(std::max<std::int64_t>(1, pass.requests));
  e2e["setup_s"] = setup_s;
  e2e["peak_rss_mib"] = peak_rss_mib;
  e2e["sim_mbps"] = sim_mbps;
  e2e["sim_p50_ms"] = p50_ms;
  e2e["sim_p99_ms"] = p99_ms;

  // Simulated outputs: deterministic for a seed, so run.py requires every
  // repetition, traced or not, to agree on them exactly.
  sim["requests"] = static_cast<double>(pass.requests);
  sim["bytes"] = static_cast<double>(pass.bytes);
  sim["elapsed_ns"] = static_cast<double>(elapsed);
  sim["events"] = static_cast<double>(events);
  sim["latency_samples"] = static_cast<double>(latency.count());
  sim["sim_mbps"] = sim_mbps;
  sim["sim_p50_ms"] = p50_ms;
  sim["sim_p99_ms"] = p99_ms;
  const core::RedirectorStats& r0 = before.redirector;
  const core::RedirectorStats& r1 = after.redirector;
  const auto d = [](auto a, auto b) { return static_cast<double>(b - a); };
  sim["redirector.write_admissions"] = d(r0.write_admissions, r1.write_admissions);
  sim["redirector.admission_failures"] =
      d(r0.admission_failures, r1.admission_failures);
  sim["redirector.evictions"] = d(r0.evictions, r1.evictions);
  sim["redirector.read_cache_hits"] = d(r0.read_cache_hits, r1.read_cache_hits);
  sim["redirector.read_partial_hits"] =
      d(r0.read_partial_hits, r1.read_partial_hits);
  sim["redirector.read_clean_bypasses"] =
      d(r0.read_clean_bypasses, r1.read_clean_bypasses);
  sim["redirector.lazy_fetch_marks"] = d(r0.lazy_fetch_marks, r1.lazy_fetch_marks);
  sim["redirector.write_to_dservers"] =
      d(r0.write_to_dservers, r1.write_to_dservers);
  const core::RebuilderStats& b0 = before.rebuilder;
  const core::RebuilderStats& b1 = after.rebuilder;
  sim["rebuilder.flushed_bytes"] = d(b0.flushed_bytes, b1.flushed_bytes);
  sim["rebuilder.fetched_bytes"] = d(b0.fetched_bytes, b1.fetched_bytes);
  sim["rebuilder.fetch_space_failures"] =
      d(b0.fetch_space_failures, b1.fetch_space_failures);
  sim["rebuilder.flush_races"] = d(b0.flush_races, b1.flush_races);
  sim["identifier.critical"] =
      d(before.identifier.critical, after.identifier.critical);

  if (traced) {
    // Per-layer totals, and self time = duration minus nested spans.
    constexpr auto kLayers = static_cast<std::size_t>(Layer::kCount);
    std::vector<Samples> durations(kLayers);  // ns
    std::vector<std::int64_t> self(kLayers, 0);
    std::vector<std::int64_t> total(kLayers, 0);
    std::int64_t top_level = 0;
    const std::vector<Span>& spans = log.spans();
    for (const Span& s : spans) {
      const auto l = static_cast<std::size_t>(s.layer);
      durations[l].Add(static_cast<double>(s.duration()));
      total[l] += s.duration();
      self[l] += s.duration();
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(
            spans[static_cast<std::size_t>(s.parent)].layer)] -= s.duration();
      } else {
        top_level += s.duration();
      }
    }
    Samples& writes = durations[static_cast<std::size_t>(Layer::kCoreWrite)];
    Samples& reads = durations[static_cast<std::size_t>(Layer::kCoreRead)];
    const auto evict = static_cast<std::size_t>(Layer::kDmtEvict);
    const auto collect = static_cast<std::size_t>(Layer::kDmtCollectDirty);
    layers["core.write_ns_p50"] = writes.Percentile(50);
    layers["core.write_ns_p99"] = writes.Percentile(99);
    layers["core.read_ns_p50"] = reads.Percentile(50);
    layers["core.read_ns_p99"] = reads.Percentile(99);
    layers["core.calls"] = static_cast<double>(writes.count() + reads.count());
    layers["core.dmt.evict_ns"] =
        Ratio(static_cast<double>(total[evict]), static_cast<double>(evict_calls));
    layers["core.dmt.evict_calls"] = static_cast<double>(evict_calls);
    layers["core.dmt.evict_found_ratio"] = Ratio(
        static_cast<double>(evict_found), static_cast<double>(evict_calls));
    layers["core.dmt.collect_dirty_ns"] =
        Ratio(static_cast<double>(total[collect]), static_cast<double>(probes));
    layers["core.dmt.entries"] =
        Ratio(dmt_entries_sum, static_cast<double>(probes));
    layers["core.redirector.admissions"] = sim["redirector.write_admissions"];
    layers["core.redirector.admission_failures"] =
        sim["redirector.admission_failures"];
    layers["core.redirector.evictions"] = sim["redirector.evictions"];
    layers["core.redirector.read_hit_ratio"] =
        Ratio(sim["redirector.read_cache_hits"] +
                  sim["redirector.read_partial_hits"],
              d(r0.read_requests, r1.read_requests));
    layers["core.identifier.critical_ratio"] =
        Ratio(sim["identifier.critical"],
              d(before.identifier.requests, after.identifier.requests));
    layers["core.rebuilder.flushed_mib"] =
        sim["rebuilder.flushed_bytes"] / static_cast<double>(MiB);
    layers["core.rebuilder.fetched_mib"] =
        sim["rebuilder.fetched_bytes"] / static_cast<double>(MiB);
    layers["core.rebuilder.fetch_space_failures"] =
        sim["rebuilder.fetch_space_failures"];
    layers["core.rebuilder.flush_races"] = sim["rebuilder.flush_races"];
    layers["sim.events"] = static_cast<double>(events);
    layers["sim.event_side_ns"] =
        Ratio(host_wall * 1e9 - static_cast<double>(top_level),
              static_cast<double>(events));
    TierRecorder::Tier& dtier = tiers.tier(TierRecorder::kDServers);
    TierRecorder::Tier& ctier = tiers.tier(TierRecorder::kCServers);
    layers["pfs.dserver_sub_p99_ms"] = dtier.latency.Percentile(99) / 1e6;
    layers["pfs.cserver_sub_p99_ms"] = ctier.latency.Percentile(99) / 1e6;
    layers["pfs.cserver_depth_mean"] =
        Ratio(static_cast<double>(ctier.depth_sum),
              static_cast<double>(ctier.latency.count()));
    layers["pfs.dserver_subs"] = static_cast<double>(dtier.latency.count());
    layers["pfs.cserver_subs"] = static_cast<double>(ctier.latency.count());
    const auto busy = [&](const pfs::ServerStats& s0, const pfs::ServerStats& s1,
                          int servers) {
      return Ratio(d(s0.busy_time, s1.busy_time),
                   static_cast<double>(elapsed) * servers);
    };
    layers["device.dserver_busy_frac"] =
        busy(before.dservers, after.dservers, bed_config.dservers);
    layers["device.cserver_busy_frac"] =
        busy(before.cservers, after.cservers, bed_config.cservers);
    layers["device.dserver_seq_frac"] =
        Ratio(d(before.dservers.zero_positioning_jobs,
                after.dservers.zero_positioning_jobs),
              d(before.dservers.requests + before.dservers.background_requests,
                after.dservers.requests + after.dservers.background_requests));
    layers["harness.build_s"] = build_s;
    layers["harness.warmup_s"] = warmup_s;
    layers["harness.settle_s"] = settle_s;

    std::fprintf(stderr, "layer self time (host, measured phase, %.3f s wall):\n",
                 host_wall);
    std::fprintf(stderr, "  %-24s %10s %12s %12s\n", "layer", "spans",
                 "total_ms", "self_ms");
    for (std::size_t l = 0; l < kLayers; ++l) {
      std::fprintf(stderr, "  %-24s %10zu %12.3f %12.3f\n",
                   LayerName(static_cast<Layer>(l)), durations[l].count(),
                   static_cast<double>(total[l]) / 1e6,
                   static_cast<double>(self[l]) / 1e6);
    }
    std::fprintf(stderr, "  %-24s %10lld %12.3f\n", "sim (outside spans)",
                 static_cast<long long>(events),
                 (host_wall * 1e9 - static_cast<double>(top_level)) / 1e6);
    if (!spans_path.empty()) {
      if (log.WriteCsv(spans_path)) {
        std::fprintf(stderr, "spans: %zu written to %s\n", spans.size(),
                     spans_path.c_str());
      } else {
        failed += 1;
        failures.push_back("cannot write spans to " + spans_path);
      }
    }
  }

  std::fprintf(stderr,
               "%s seed %llu%s: setup %.3f s cpu (%.3f s wall, settle %.3f s%s), "
               "measured %.3f s cpu / %.3f s wall, %lld requests, "
               "%.1f MB/s, p50 %.3f ms p99 %.3f ms (%zu samples), "
               "peak rss %.1f MiB\n",
               spec.name, static_cast<unsigned long long>(seed),
               traced ? " traced" : "", setup_s, setup_wall, settle_s,
               warm_settled ? "" : ", hit cap", host_s, host_wall,
               static_cast<long long>(pass.requests), sim_mbps, p50_ms, p99_ms,
               latency.count(), peak_rss_mib);
  for (const std::string& f : failures) {
    std::fprintf(stderr, "FAILURE: %s\n", f.c_str());
  }

  std::printf("{\"attempted\": %lld, \"failed\": %lld, ",
              static_cast<long long>(attempted), static_cast<long long>(failed));
  PrintObject("e2e", e2e);
  PrintObject("layers", layers);
  PrintArray("setup_chunks", setup_chunks);
  PrintArray("measured_chunks", measured_chunks);
  PrintObject("sim", sim, /*last=*/true);
  std::printf("}\n");
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N [--trace] [--spans PATH]\n"
               "workloads:",
               argv0);
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace s4d::perfbench

int main(int argc, char** argv) {
  using namespace s4d::perfbench;
  const WorkloadSpec* spec = nullptr;
  std::optional<std::uint64_t> seed;
  bool traced = false;
  std::string spans;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      const std::string name = argv[++i];
      for (const WorkloadSpec& w : kWorkloads) {
        if (name == w.name) spec = &w;
      }
      if (spec == nullptr) return Usage(argv[0]);
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return Usage(argv[0]);
    } else if (arg == "--trace") {
      traced = true;
    } else if (arg == "--spans" && has_value) {
      spans = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (spec == nullptr || !seed) return Usage(argv[0]);
  return Run(*spec, *seed, traced, spans);
}
