// Table III: request distribution between DServers and CServers during a
// window in the middle of the IOR write run, for request sizes 16 KiB and
// 4096 KiB. The paper traces it with IOSIG; here two FileSystem observers
// keep the issue time of every foreground request (and, on DServers, its
// file), since the window is only known once the run has ended.
//
// Expected shape: at 16 KiB most requests are redirected to CServers and
// DServers mostly sees sequential requests; at 4096 KiB everything stays
// on DServers.
#include "bench_common.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/table_printer.h"

namespace s4d::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv);
  BenchReporter report("table3", args);
  std::printf("=== Table III: request distribution (IOR writes) ===\n");
  const byte_count file_size = args.full ? 2 * GiB : 64 * MiB;
  const int ranks = 32;
  report.Scale("32 procs, 10-instance IOR mix, file " +
               FormatBytes(file_size) + " each");

  TablePrinter table({"request", "DServers (%)", "CServers (%)",
                      "seq-instance share of DServer reqs"});
  for (byte_count request : {16 * KiB, 4096 * KiB}) {
    const byte_count fsize = std::max(file_size, request * ranks * 4);
    harness::TestbedConfig bed_cfg;
    bed_cfg.seed = args.seed;
    harness::Testbed bed(bed_cfg);
    core::S4DConfig cfg;
    cfg.cache_capacity = 10 * fsize / 5;
    auto s4d = bed.MakeS4D(cfg);
    std::vector<std::pair<SimTime, pfs::FileId>> d_issues;
    std::vector<SimTime> c_issues;
    bed.dservers().AddObserver([&d_issues](const pfs::RequestRecord& r) {
      if (r.priority == pfs::Priority::kNormal) {
        d_issues.emplace_back(r.issue_time, r.file);
      }
    });
    bed.cservers().AddObserver([&c_issues](const pfs::RequestRecord& r) {
      if (r.priority == pfs::Priority::kNormal) {
        c_issues.push_back(r.issue_time);
      }
    });
    mpiio::MpiIoLayer layer(bed.engine(), *s4d);

    RunIorMix(layer, ranks, fsize, request, device::IoKind::kWrite,
              args.seed);
    const SimTime end = bed.engine().now();

    // The paper samples a 5-second window mid-run; we take the middle
    // tenth of the run so both sequential and random instances are seen.
    const SimTime w_begin = end * 45 / 100;
    const SimTime w_end = end * 55 / 100;
    const auto in_window = [w_begin, w_end](SimTime t) {
      return t >= w_begin && t < w_end;
    };
    const std::int64_t c_total =
        std::count_if(c_issues.begin(), c_issues.end(), in_window);
    // "DServers mostly sees sequential requests": what share of the
    // requests that stayed on DServers came from sequential instances?
    // Sequential/random instances write distinct files (ior.<i>), so the
    // file ids identify them.
    std::vector<pfs::FileId> random_files;
    for (int i = 0; i < 10; ++i) {
      if (!IsRandomInstance(i)) continue;
      random_files.push_back(
          bed.dservers().Lookup("ior." + std::to_string(i)));
    }
    std::int64_t d_total = 0, d_sequential = 0;
    for (const auto& [issue_time, file] : d_issues) {
      if (!in_window(issue_time)) continue;
      ++d_total;
      if (std::find(random_files.begin(), random_files.end(), file) ==
          random_files.end()) {
        ++d_sequential;
      }
    }
    const auto request_percent = [total = d_total + c_total](std::int64_t n) {
      return total == 0 ? 0.0
                        : 100.0 * static_cast<double>(n) /
                              static_cast<double>(total);
    };
    const double seq_share =
        d_total == 0 ? 0.0
                     : 100.0 * static_cast<double>(d_sequential) /
                           static_cast<double>(d_total);
    table.AddRow({FormatBytes(request),
                  TablePrinter::Num(request_percent(d_total)),
                  TablePrinter::Num(request_percent(c_total)),
                  TablePrinter::Percent(seq_share)});
    report.Add("cserver_request_percent", request_percent(c_total),
               {{"request", FormatBytes(request)}});
    report.Add("dserver_seq_share_percent", seq_share,
               {{"request", FormatBytes(request)}});
  }
  table.Print(std::cout);
  std::printf(
      "\npaper: 16 KiB -> 16.3%% DServers / 83.7%% CServers (DServers mostly\n"
      "sequential); 4096 KiB -> 100%% DServers / 0%% CServers.\n");
  report.Finish();
  return 0;
}

}  // namespace
}  // namespace s4d::bench

int main(int argc, char** argv) { return s4d::bench::Main(argc, argv); }
