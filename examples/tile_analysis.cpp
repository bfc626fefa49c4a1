// Tile-I/O analysis: run the MPI-Tile-IO workload through S4D-Cache and
// show how the middleware decides — the request distribution between
// server groups (FsStats deltas over the run), how sequential the stream
// each group's servers see is (the share of served jobs that needed no
// positioning; an SSD always pays its command latency, so CServers read
// 0), cache admissions/evictions, and the cost model's verdict for
// representative requests.
//
//   $ ./examples/tile_analysis
#include <cstdio>
#include <iostream>

#include "common/table_printer.h"
#include "core/s4d_cache.h"
#include "harness/driver.h"
#include "harness/testbed.h"
#include "workloads/tile_io.h"

using namespace s4d;

int main() {
  harness::Testbed bed{harness::TestbedConfig{}};
  core::S4DConfig cfg;
  cfg.cache_capacity = 32 * MiB;
  auto s4d = bed.MakeS4D(cfg);

  workloads::TileIoConfig tile;
  tile.ranks = 64;
  tile.elements_x = 10;
  tile.elements_y = 10;
  tile.element_size = 8 * KiB;
  tile.kind = device::IoKind::kWrite;

  std::printf("MPI-Tile-IO: %d ranks, 10x10 tiles of %s elements (%s total)\n\n",
              tile.ranks, FormatBytes(tile.element_size).c_str(),
              FormatBytes(static_cast<byte_count>(tile.ranks) * 100 *
                          tile.element_size)
                  .c_str());

  // --- what does the cost model think of this pattern? -------------------
  {
    workloads::TileIoWorkload probe(tile);
    const auto first = *probe.Next(0);
    const auto second = *probe.Next(0);
    const byte_count stride = second.offset - (first.offset + first.size);
    const core::CostModel& model = s4d->cost_model();
    TablePrinter table({"request", "distance", "T_D (ms)", "T_C (ms)",
                        "benefit B", "verdict"});
    struct Probe {
      const char* name;
      byte_count distance;
    };
    for (const Probe& p : {Probe{"tile row (stride)", stride},
                           Probe{"same row continued", 0},
                           Probe{"cold/random", 10 * GiB}}) {
      const SimTime td = model.DServerCost(p.distance, first.offset, first.size);
      const SimTime tc =
          model.CServerCost(device::IoKind::kWrite, first.offset, first.size);
      table.AddRow({p.name, FormatBytes(p.distance),
                    TablePrinter::Num(ToMillis(td), 2),
                    TablePrinter::Num(ToMillis(tc), 2),
                    FormatTime(td - tc), td > tc ? "CServers" : "DServers"});
    }
    std::printf("cost-model view of one %s tile-row request:\n",
                FormatBytes(first.size).c_str());
    table.Print(std::cout);
    std::printf("\n");
  }

  // --- run it -------------------------------------------------------------
  mpiio::MpiIoLayer layer(bed.engine(), *s4d);
  workloads::TileIoWorkload wl(tile);
  struct Group {
    const char* name;
    pfs::FileSystem& fs;
    pfs::FsStats requests_before;
    pfs::ServerStats served_before;
  };
  const Group groups[] = {
      {"DServers", bed.dservers(), bed.dservers().stats(),
       bed.dservers().TotalServerStats()},
      {"CServers", bed.cservers(), bed.cservers().stats(),
       bed.cservers().TotalServerStats()}};
  const auto result = harness::RunClosedLoop(layer, wl);

  std::printf("ran %lld requests, %.1f MB/s aggregate\n\n",
              static_cast<long long>(result.requests),
              result.throughput_mbps);

  std::int64_t routed = 0;
  for (const Group& g : groups) {
    routed += (g.fs.stats() - g.requests_before).foreground_requests;
  }
  TablePrinter table({"server group", "requests", "% of requests", "bytes",
                      "zero-positioning share"});
  for (const Group& g : groups) {
    const pfs::FsStats window = g.fs.stats() - g.requests_before;
    // Jobs the servers served during the run (foreground and background),
    // and how many of them found the head already in place.
    const pfs::ServerStats served = g.fs.TotalServerStats();
    const std::int64_t jobs =
        served.requests + served.background_requests -
        g.served_before.requests - g.served_before.background_requests;
    const std::int64_t in_place = served.zero_positioning_jobs -
                                  g.served_before.zero_positioning_jobs;
    table.AddRow(
        {g.name, TablePrinter::Int(window.foreground_requests),
         TablePrinter::Percent(
             routed == 0 ? 0.0
                         : 100.0 *
                               static_cast<double>(window.foreground_requests) /
                               static_cast<double>(routed)),
         FormatBytes(window.foreground_bytes),
         TablePrinter::Num(jobs == 0 ? 0.0
                                     : static_cast<double>(in_place) /
                                           static_cast<double>(jobs),
                           2)});
  }
  table.Print(std::cout);

  const auto& redirector = s4d->redirector_stats();
  std::printf(
      "\nmiddleware decisions: %lld admissions, %lld write hits, "
      "%lld to DServers, %lld evictions, %lld admission failures\n",
      static_cast<long long>(redirector.write_admissions),
      static_cast<long long>(redirector.write_cache_hits),
      static_cast<long long>(redirector.write_to_dservers),
      static_cast<long long>(redirector.evictions),
      static_cast<long long>(redirector.admission_failures));
  std::printf("cache: %s of %s used, %zu mappings\n",
              FormatBytes(s4d->cache_space().used_bytes()).c_str(),
              FormatBytes(s4d->cache_space().capacity()).c_str(),
              s4d->dmt().entry_count());
  return 0;
}
