// Seeded chaos schedules for the degraded control plane (DESIGN.md §12):
// every fault class (node crash/repair, stragglers, report drops, restart
// failures, scheduler crashes) combined with every network fault class
// (latency/jitter, burst loss, duplication, reordering, node and rack
// partitions) at once, with invariant checking on for every run. Asserts
// per-seed byte-reproducibility, recorded jobs/events CSV digests, and that
// every job completes once the chaos heals — no job is ever lost.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "sim/netmodel.h"
#include "sim/pollux_policy.h"
#include "sim/simulator.h"
#include "tests/sim_result_csv.h"
#include "workload/trace_gen.h"

namespace pollux {
namespace {

std::vector<JobSpec> ChaosTrace(uint64_t seed) {
  TraceOptions options;
  options.num_jobs = 10;
  options.duration = 1800.0;
  options.max_gpus = 8;
  options.seed = seed;
  auto jobs = GenerateTrace(options);
  for (auto& job : jobs) {
    // Keep the schedule fast: long-running models become small ones.
    if (job.model != ModelKind::kResNet18Cifar10 && job.model != ModelKind::kNeuMFMovieLens) {
      job.model = ModelKind::kNeuMFMovieLens;
      job.batch_size = 2048;
      job.requested_gpus = std::min(job.requested_gpus, 4);
    }
  }
  return jobs;
}

// The named profiles use production-scale MTBFs that never fire inside a
// short trace; shrink them so partitions, bursts, and crashes all actually
// happen (several times) per run.
NetOptions ChaosNet(const std::string& profile) {
  NetOptions net;
  EXPECT_TRUE(NetProfileByName(profile, &net));
  if (net.mtbf_partition > 0.0) {
    net.mtbf_partition = 600.0;
    net.partition_duration = 90.0;
  }
  if (net.mtbf_rack_partition > 0.0) {
    net.mtbf_rack_partition = 1200.0;
    net.rack_partition_duration = 120.0;
    net.rack_size = 2;
  }
  return net;
}

FaultOptions ChaosFaults() {
  FaultOptions faults;
  EXPECT_TRUE(FaultProfileByName("heavy", &faults));
  faults.mtbf_node = 1500.0;
  faults.repair_time = 120.0;
  faults.mtbf_sched = 2000.0;
  return faults;
}

SimResult RunChaos(const std::string& profile, uint64_t seed, bool with_faults = true) {
  SimOptions options;
  options.cluster = ClusterSpec::Homogeneous(2, 4);
  options.seed = seed;
  options.check_invariants = true;
  options.net = ChaosNet(profile);
  if (with_faults) {
    options.faults = ChaosFaults();
  }
  SchedConfig sched_config;
  sched_config.ga.population_size = 12;
  sched_config.ga.generations = 6;
  sched_config.ga.seed = seed;
  if (options.net.enabled()) {
    sched_config.lease_intervals = options.net.lease_intervals;
    sched_config.lease_grace = options.net.lease_grace;
    sched_config.degraded_coverage = options.net.degraded_coverage;
  }
  PolluxPolicy policy(options.cluster, sched_config);
  return Simulator(options, ChaosTrace(seed), &policy).Run();
}

// Bit-exact fingerprint of everything seed-determinism promises: full-
// precision per-job trajectories plus the complete lifecycle event log.
std::string Fingerprint(const SimResult& result) {
  std::ostringstream out;
  out.precision(17);
  for (const auto& job : result.jobs) {
    out << job.job_id << ' ' << job.submit_time << ' ' << job.start_time << ' '
        << job.finish_time << ' ' << job.gpu_time << ' ' << job.num_restarts << ' '
        << job.num_evictions << ' ' << job.num_restart_failures << ' ' << job.backoff_seconds
        << ' ' << job.avg_goodput << ' ' << job.completed << '\n';
  }
  for (const auto& event : result.events) {
    out << event.time << ' ' << static_cast<int>(event.kind) << ' ' << event.job_id << ' '
        << event.gpus << ' ' << event.nodes << '\n';
  }
  out << result.makespan << ' ' << result.node_seconds << '\n';
  return out.str();
}

std::set<uint64_t> CompletionSet(const SimResult& result) {
  std::set<uint64_t> completed;
  for (const auto& job : result.jobs) {
    if (job.completed) {
      completed.insert(job.job_id);
    }
  }
  return completed;
}

struct ChaosCase {
  const char* profile;
  uint64_t seed;
};

// Jobs and events CSV digests per case, recorded when a second, fixed-tick
// engine still agreed with this one. Only an intentional behavior change may
// move them.
const std::map<std::string, std::pair<std::string, std::string>>& ChaosDigests() {
  static const std::map<std::string, std::pair<std::string, std::string>> digests = {
      {"lan_seed1", {"e664f5fdb0477015", "2ab2545790920f39"}},
      {"flaky_seed1", {"b68265de7543d378", "a7bdf2f8be4c36ac"}},
      {"flaky_seed2", {"edd7fae9b00a4389", "7e196e58a8c45331"}},
      {"partitioned_seed1", {"469ada18a6b98ace", "5ed615847749725f"}},
      {"partitioned_seed3", {"aeabeb5c6c14dfb1", "d9121a10e5a278a8"}},
  };
  return digests;
}

class ChaosSchedule : public ::testing::TestWithParam<ChaosCase> {};

// Named when a second engine existed; it now covers the one engine.
TEST_P(ChaosSchedule, ByteReproduciblePerSeedOnBothEngines) {
  const ChaosCase c = GetParam();
  const SimResult first = RunChaos(c.profile, c.seed);
  const SimResult second = RunChaos(c.profile, c.seed);
  EXPECT_EQ(Fingerprint(first), Fingerprint(second)) << c.profile << " seed " << c.seed;
}

TEST_P(ChaosSchedule, MatchesGoldenDigest) {
  const ChaosCase c = GetParam();
  const std::string name = std::string(c.profile) + "_seed" + std::to_string(c.seed);
  const auto it = ChaosDigests().find(name);
  ASSERT_NE(it, ChaosDigests().end()) << "no recorded digest for " << name;
  const SimResult result = RunChaos(c.profile, c.seed);
  EXPECT_EQ(DigestHex(RenderJobsCsv(result)), it->second.first) << name << " jobs CSV";
  EXPECT_EQ(DigestHex(RenderEventsCsv(result)), it->second.second) << name << " events CSV";
}

TEST_P(ChaosSchedule, EveryJobCompletesAfterTheChaosHeals) {
  const ChaosCase c = GetParam();
  const SimResult result = RunChaos(c.profile, c.seed);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(CompletionSet(result).size(), result.jobs.size());
  for (const auto& job : result.jobs) {
    EXPECT_TRUE(job.completed) << "job " << job.job_id << " never finished";
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, ChaosSchedule,
                         ::testing::Values(ChaosCase{"lan", 1}, ChaosCase{"flaky", 1},
                                           ChaosCase{"flaky", 2}, ChaosCase{"partitioned", 1},
                                           ChaosCase{"partitioned", 3}),
                         [](const ::testing::TestParamInfo<ChaosCase>& info) {
                           return std::string(info.param.profile) + "_seed" +
                                  std::to_string(info.param.seed);
                         });

// --net-profile=none must be indistinguishable from a build without the
// network model at all: the profile leaves every knob zero, NetOptions
// reports disabled, and the run is byte-identical to one that never set
// options.net.
TEST(ChaosNoneProfile, ByteIdenticalToNetModelDisabled) {
  NetOptions none;
  ASSERT_TRUE(NetProfileByName("none", &none));
  EXPECT_FALSE(none.enabled());

  SimOptions options;
  options.cluster = ClusterSpec::Homogeneous(2, 4);
  options.seed = 5;
  options.check_invariants = true;
  const auto trace = ChaosTrace(5);
  SchedConfig sched_config;
  sched_config.ga.population_size = 12;
  sched_config.ga.generations = 6;
  sched_config.ga.seed = 5;

  PolluxPolicy baseline_policy(options.cluster, sched_config);
  const SimResult baseline = Simulator(options, trace, &baseline_policy).Run();

  options.net = none;
  PolluxPolicy none_policy(options.cluster, sched_config);
  const SimResult with_none = Simulator(options, trace, &none_policy).Run();
  EXPECT_EQ(Fingerprint(baseline), Fingerprint(with_none));
}

}  // namespace
}  // namespace pollux
