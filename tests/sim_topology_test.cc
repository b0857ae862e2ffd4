// Simulator-level topology coverage (DESIGN.md sec. 14): heterogeneous runs
// are deterministic, the topology-blind A/B arm still completes every job,
// snapshot v3 round-trips the topology section bit-exactly, resumed
// heterogeneous runs match uninterrupted ones, and malformed cluster-shape
// flags exit with the usage code.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "sim/checkpoint.h"
#include "sim/pollux_policy.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace pollux {
namespace {

BenchSimConfig TopologyConfig(uint64_t seed) {
  BenchSimConfig config;
  config.nodes = 4;
  config.gpus_per_node = 4;
  config.racks = 2;  // 2 racks x 2 nodes.
  config.rack_link_factor = 2.5;
  config.gpu_mix = "a100:0.5,t4:0.5";
  config.sync_heavy_fraction = 0.5;
  config.jobs = 10;
  config.duration_hours = 0.5;
  config.ga_population = 12;
  config.ga_generations = 6;
  config.seed = seed;
  config.check_invariants = true;
  return config;
}

// Exact textual fingerprint of a run (full double precision); equal
// fingerprints imply byte-identical exported CSVs.
std::string FormatResult(const SimResult& result) {
  std::ostringstream out;
  out.precision(17);
  out << "makespan=" << result.makespan << " node_seconds=" << result.node_seconds << '\n';
  for (const auto& job : result.jobs) {
    out << job.job_id << ' ' << job.submit_time << ' ' << job.start_time << ' '
        << job.finish_time << ' ' << job.gpu_time << ' ' << job.num_restarts << ' '
        << job.avg_efficiency << ' ' << job.avg_throughput << ' ' << job.avg_goodput << ' '
        << job.completed << '\n';
  }
  for (const auto& event : result.events) {
    out << event.time << ' ' << static_cast<int>(event.kind) << ' ' << event.job_id << ' '
        << event.gpus << ' ' << event.nodes << '\n';
  }
  return out.str();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/pollux_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(SimTopologyTest, HeterogeneousRunIsDeterministic) {
  const BenchSimConfig config = TopologyConfig(11);
  const SimResult first = RunBenchPolicy("pollux", config);
  const SimResult second = RunBenchPolicy("pollux", config);
  EXPECT_EQ(FormatResult(first), FormatResult(second));
  EXPECT_FALSE(first.jobs.empty());
}

TEST(SimTopologyTest, BlindArmCompletesEveryJob) {
  BenchSimConfig config = TopologyConfig(12);
  config.topology_blind = true;
  const SimResult blind = RunBenchPolicy("pollux", config);
  config.topology_blind = false;
  const SimResult aware = RunBenchPolicy("pollux", config);
  ASSERT_EQ(blind.jobs.size(), aware.jobs.size());
  for (const auto& job : blind.jobs) {
    EXPECT_TRUE(job.completed) << job.job_id;
  }
  for (const auto& job : aware.jobs) {
    EXPECT_TRUE(job.completed) << job.job_id;
  }
}

TEST(SimTopologyTest, SnapshotV3RoundTripsTopologySection) {
  const uint64_t seed = 13;
  const BenchSimConfig config = TopologyConfig(seed);
  const std::vector<JobSpec> trace = MakeBenchTrace(config);
  const std::string dir = FreshDir("topology_roundtrip");
  std::filesystem::create_directories(dir);

  SimOptions options = SimOptionsFromBenchConfig(config);
  ASSERT_TRUE(options.cluster.HasTopology());
  options.checkpoint_every = 300.0;
  options.checkpoint_dir = dir;
  options.halt_after_checkpoint = 300.0;
  {
    PolluxPolicy policy(options.cluster, SchedConfigFromBenchConfig(config));
    ASSERT_TRUE(Simulator(options, trace, &policy).Run().halted);
  }
  std::string error;
  const std::string path = ResolveSnapshotPath(dir, &error);
  ASSERT_FALSE(path.empty()) << error;

  SimOptions resume_options = options;
  resume_options.checkpoint_every = 0.0;
  resume_options.checkpoint_dir.clear();
  resume_options.halt_after_checkpoint = 0.0;
  PolluxPolicy policy(options.cluster, SchedConfigFromBenchConfig(config));
  Simulator sim(resume_options, trace, &policy);
  ASSERT_TRUE(sim.LoadSnapshot(path, &error)) << error;
  const std::string resaved = dir + "/resaved.bin";
  ASSERT_TRUE(sim.SaveSnapshot(resaved, &error)) << error;
  EXPECT_EQ(ReadFileBytes(resaved), ReadFileBytes(path));
  std::filesystem::remove_all(dir);
}

TEST(SimTopologyTest, HeterogeneousResumeMatchesUninterruptedRun) {
  const uint64_t seed = 14;
  const BenchSimConfig config = TopologyConfig(seed);
  const std::vector<JobSpec> trace = MakeBenchTrace(config);

  const SimResult full = RunImportedTrace("pollux", config, trace);
  ASSERT_FALSE(full.halted);

  const std::string dir = FreshDir("topology_resume");
  BenchSimConfig halted_config = config;
  halted_config.checkpoint_every = 300.0;
  halted_config.checkpoint_dir = dir;
  halted_config.halt_after_checkpoint = 600.0;
  ASSERT_TRUE(RunImportedTrace("pollux", halted_config, trace).halted);
  ASSERT_FALSE(ListSnapshotFiles(dir).empty());

  SimResult resumed;
  std::string policy;
  std::string error;
  ASSERT_TRUE(ResumeBenchFromSnapshot(dir, BenchSimConfig{}, &resumed, &policy, &error)) << error;
  EXPECT_EQ(policy, "pollux");
  EXPECT_EQ(FormatResult(resumed), FormatResult(full));
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------------------------
// Config flag validation: malformed cluster shapes and out-of-bounds knob
// values exit with kExitUsage (2) from ConfigFromFlags, shared by
// pollux_simulate and every bench binary.
// --------------------------------------------------------------------------

void ParseAndBuildConfig(const char* flag) {
  FlagParser flags;
  AddCommonFlags(flags);
  std::string arg(flag);
  char prog[] = "bench_under_test";
  char* argv[] = {prog, arg.data()};
  if (!flags.Parse(2, argv)) {
    std::exit(kExitRuntime);  // Parse failures are not the exit we assert on.
  }
  ConfigFromFlags(flags);
  std::exit(kExitOk);  // Config accepted.
}

using SimTopologyFlagDeathTest = ::testing::Test;

TEST(SimTopologyFlagDeathTest, MalformedClusterShapesExitWithUsageCode) {
  for (const char* flag :
       {"--nodes=0", "--nodes=-4", "--gpus_per_node=0", "--gpus_per_node=-1",
        "--topology=bogus", "--topology=0x4", "--gpu-mix=h100:1.0", "--gpu-mix=t4:0.5",
        "--rack-link-factor=0.5", "--sync-heavy=1.5", "--ga_pop=0", "--ga_gens=-1", "--tick=0",
        "--tick=-1", "--nodes=4294967297", "--load=nan", "--sched-mode=bogus",
        "--fault-profile=huge", "--net-profile=wan", "--sched-recovery=tepid"}) {
    EXPECT_EXIT(ParseAndBuildConfig(flag), ::testing::ExitedWithCode(kExitUsage), "") << flag;
  }
}

TEST(SimTopologyFlagDeathTest, WellFormedShapesAreAccepted) {
  for (const char* flag :
       {"--nodes=8", "--topology=2x4", "--gpu-mix=a100:0.25,t4:0.75", "--rack-link-factor=3",
        "--sync-heavy=0.5"}) {
    EXPECT_EXIT(ParseAndBuildConfig(flag), ::testing::ExitedWithCode(kExitOk), "") << flag;
  }
}

}  // namespace
}  // namespace pollux
