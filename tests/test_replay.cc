// workload.type = replay end to end: harness::Scenario loads a replay CSV
// (rank,kind,offset,size) through tracein's TraceLoader and drives it
// closed-loop. Each rank must issue its rows in file order, every row
// exactly once per pass, the run must be deterministic, and a missing or
// malformed trace must fail Build instead of running an empty workload.
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config_parser.h"
#include "harness/scenario.h"

namespace s4d::harness {
namespace {

// Two ranks, interleaved rows; rank 1 reads back what rank 0 wrote.
constexpr const char* kReplayCsv =
    "rank,kind,offset,size\n"
    "0,write,0,65536\n"
    "1,write,1048576,4096\n"
    "0,write,65536,65536\n"
    "1,read,0,65536\n"
    "0,read,1048576,4096\n"
    "1,write,2097152,16384\n";

std::string WriteTrace(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream(path) << text;
  return path;
}

ConfigParser ReplayConfig(const std::string& trace, int repeat) {
  ConfigParser config;
  config.Set("middleware", "cache_capacity", "16m");
  config.Set("workload", "type", "replay");
  config.Set("workload", "trace", trace);
  config.Set("workload", "repeat", std::to_string(repeat));
  return config;
}

struct Issued {
  device::IoKind kind;
  byte_count offset;
  byte_count size;
  bool operator==(const Issued&) const = default;
};

TEST(ScenarioReplay, IssuesEachRanksRowsInFileOrderEveryPass) {
  const std::string trace = WriteTrace("replay_order.csv", kReplayCsv);
  auto scenario = Scenario::Build(ReplayConfig(trace, 2));
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  EXPECT_FALSE((*scenario)->warms_up());
  EXPECT_EQ((*scenario)->timed_trace(), nullptr);

  std::map<int, std::vector<Issued>> issued;
  (*scenario)->set_on_issue([&](int rank, const workloads::Request& r) {
    issued[rank].push_back({r.kind, r.offset, r.size});
  });
  int passes = 0;
  const tracein::ReplayResult last = (*scenario)->Run(
      [&](int pass, const tracein::ReplayResult& result) {
        EXPECT_EQ(pass, ++passes);
        EXPECT_EQ(result.run.requests, 6);
        EXPECT_EQ(result.run.bytes, 2 * 65536 + 4096 + 65536 + 4096 + 16384);
      });
  EXPECT_EQ(passes, 2);
  EXPECT_EQ(last.run.requests, 6);

  const std::vector<Issued> rank0 = {{device::IoKind::kWrite, 0, 65536},
                                     {device::IoKind::kWrite, 65536, 65536},
                                     {device::IoKind::kRead, 1048576, 4096}};
  const std::vector<Issued> rank1 = {
      {device::IoKind::kWrite, 1048576, 4096},
      {device::IoKind::kRead, 0, 65536},
      {device::IoKind::kWrite, 2097152, 16384}};
  std::vector<Issued> twice0 = rank0, twice1 = rank1;
  twice0.insert(twice0.end(), rank0.begin(), rank0.end());
  twice1.insert(twice1.end(), rank1.begin(), rank1.end());
  ASSERT_EQ(issued.size(), 2u);
  EXPECT_EQ(issued[0], twice0) << "each pass restarts the trace per rank";
  EXPECT_EQ(issued[1], twice1);
}

TEST(ScenarioReplay, SameConfigReplaysIdentically) {
  const std::string trace = WriteTrace("replay_repeat.csv", kReplayCsv);
  const ConfigParser config = ReplayConfig(trace, 3);
  auto first = Scenario::Build(config);
  auto second = Scenario::Build(config);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const tracein::ReplayResult a = (*first)->Run();
  const tracein::ReplayResult b = (*second)->Run();
  EXPECT_EQ(a.run.requests, b.run.requests);
  EXPECT_EQ(a.run.bytes, b.run.bytes);
  EXPECT_DOUBLE_EQ(a.run.throughput_mbps, b.run.throughput_mbps);
  EXPECT_EQ((*first)->measure_begin(), (*second)->measure_begin());
  EXPECT_EQ((*first)->measure_end(), (*second)->measure_end());
  EXPECT_GT((*first)->measure_end(), (*first)->measure_begin());
}

TEST(ScenarioReplay, MissingOrMalformedTraceFailsBuild) {
  const auto missing = Scenario::Build(
      ReplayConfig(::testing::TempDir() + "no_such_replay.csv", 1));
  EXPECT_FALSE(missing.ok());

  const std::string bad =
      WriteTrace("replay_bad.csv", "rank,kind,offset,size\n0,chew,0,4096\n");
  const auto malformed = Scenario::Build(ReplayConfig(bad, 1));
  ASSERT_FALSE(malformed.ok());
  EXPECT_NE(malformed.status().ToString().find(":2:"), std::string::npos)
      << malformed.status().ToString();
}

}  // namespace
}  // namespace s4d::harness
