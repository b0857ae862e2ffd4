// Cross-policy property sweep: for every scheduling policy and several trace
// seeds, a small workload must satisfy the simulator's conservation laws —
// every job completes, no timeline sample over-commits the cluster, JCTs are
// positive, GPU-time is consistent, and results are reproducible.

#include <gtest/gtest.h>

#include <string>

#include "baselines/fixed_batch_policy.h"
#include "baselines/optimus.h"
#include "baselines/tiresias.h"
#include "sim/placement.h"
#include "sim/pollux_policy.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace pollux {
namespace {

struct SweepCase {
  const char* policy;
  uint64_t seed;
};

void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.policy << "_seed" << c.seed;
}

std::vector<JobSpec> SweepTrace(uint64_t seed) {
  TraceOptions options;
  options.num_jobs = 12;
  options.duration = 1800.0;
  options.max_gpus = 8;
  options.seed = seed;
  auto jobs = GenerateTrace(options);
  for (auto& job : jobs) {
    // Keep the sweep fast: replace long-running models with small ones.
    if (job.model != ModelKind::kResNet18Cifar10 && job.model != ModelKind::kNeuMFMovieLens) {
      job.model = ModelKind::kNeuMFMovieLens;
      job.batch_size = 2048;
      job.requested_gpus = std::min(job.requested_gpus, 4);
    }
  }
  return jobs;
}

SimResult RunCase(const SweepCase& sweep) {
  SimOptions options;
  options.cluster = ClusterSpec::Homogeneous(2, 4);
  options.seed = sweep.seed;
  const auto trace = SweepTrace(sweep.seed);
  SchedConfig sched_config;
  sched_config.ga.population_size = 12;
  sched_config.ga.generations = 6;
  sched_config.ga.seed = sweep.seed;
  const std::string policy = sweep.policy;
  if (policy == "pollux") {
    PolluxPolicy p(options.cluster, sched_config);
    return Simulator(options, trace, &p).Run();
  }
  if (policy == "pollux-fixed-batch") {
    FixedBatchPolluxPolicy p(options.cluster, sched_config);
    return Simulator(options, trace, &p).Run();
  }
  if (policy == "optimus") {
    OptimusPolicy p;
    return Simulator(options, trace, &p).Run();
  }
  TiresiasPolicy p;
  return Simulator(options, trace, &p).Run();
}

class PolicySweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PolicySweep, ConservationLaws) {
  const SimResult result = RunCase(GetParam());
  EXPECT_FALSE(result.timed_out);
  ASSERT_EQ(result.jobs.size(), 12u);
  for (const auto& job : result.jobs) {
    EXPECT_TRUE(job.completed) << "job " << job.job_id;
    EXPECT_GT(job.Jct(), 0.0);
    EXPECT_GE(job.start_time, job.submit_time);
    EXPECT_GE(job.finish_time, job.start_time);
    EXPECT_GT(job.gpu_time, 0.0);
    // GPU-time cannot exceed cluster capacity x wall time while running.
    EXPECT_LE(job.gpu_time, 8.0 * (job.finish_time - job.start_time) + 1e-6);
    EXPECT_GT(job.avg_efficiency, 0.0);
    EXPECT_LE(job.avg_efficiency, 1.0 + 1e-9);
    EXPECT_LE(job.avg_goodput, job.avg_throughput + 1e-9);
    EXPECT_LE(job.finish_time, result.makespan + 1e-9);
  }
  for (const auto& sample : result.timeline) {
    EXPECT_LE(sample.gpus_in_use, sample.total_gpus);
    EXPECT_GE(sample.gpus_in_use, 0);
  }
}

TEST_P(PolicySweep, DeterministicAcrossRuns) {
  const SimResult a = RunCase(GetParam());
  const SimResult b = RunCase(GetParam());
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].finish_time, b.jobs[i].finish_time);
    EXPECT_DOUBLE_EQ(a.jobs[i].gpu_time, b.jobs[i].gpu_time);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, PolicySweep,
    ::testing::Values(SweepCase{"pollux", 1}, SweepCase{"pollux", 2},
                      SweepCase{"pollux-fixed-batch", 1}, SweepCase{"optimus", 1},
                      SweepCase{"optimus", 2}, SweepCase{"tiresias", 1},
                      SweepCase{"tiresias", 2}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      std::string name = info.param.policy;
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name + "_seed" + std::to_string(info.param.seed);
    });

// Golden-trace regression: a fixed-seed end-to-end Pollux simulation must
// produce byte-stable summary metrics (avg JCT, makespan, per-job finish
// times) across repeated runs AND across scheduler thread counts — the
// parallel GA may not perturb a single bit of the simulated outcome.
// EXPECT_EQ on doubles is exact (bitwise for non-NaN).
class GoldenTraceTest : public ::testing::Test {
 protected:
  static SimResult RunGolden(int sched_threads) {
    SimOptions options;
    options.cluster = ClusterSpec::Homogeneous(2, 4);
    options.seed = 1;
    options.sched_threads = sched_threads;
    SchedConfig sched_config;
    sched_config.ga.population_size = 12;
    sched_config.ga.generations = 6;
    sched_config.ga.seed = 1;
    sched_config.ga.threads = options.sched_threads;
    PolluxPolicy policy(options.cluster, sched_config);
    return Simulator(options, SweepTrace(1), &policy).Run();
  }

  static void ExpectIdentical(const SimResult& a, const SimResult& b, const char* label) {
    EXPECT_EQ(a.JctSummary().mean, b.JctSummary().mean) << label;
    EXPECT_EQ(a.JctSummary().p99, b.JctSummary().p99) << label;
    EXPECT_EQ(a.makespan, b.makespan) << label;
    ASSERT_EQ(a.jobs.size(), b.jobs.size()) << label;
    for (size_t i = 0; i < a.jobs.size(); ++i) {
      EXPECT_EQ(a.jobs[i].finish_time, b.jobs[i].finish_time) << label << " job " << i;
      EXPECT_EQ(a.jobs[i].gpu_time, b.jobs[i].gpu_time) << label << " job " << i;
      EXPECT_EQ(a.jobs[i].num_restarts, b.jobs[i].num_restarts) << label << " job " << i;
    }
    ASSERT_EQ(a.timeline.size(), b.timeline.size()) << label;
    for (size_t i = 0; i < a.timeline.size(); ++i) {
      EXPECT_EQ(a.timeline[i].gpus_in_use, b.timeline[i].gpus_in_use) << label << " t" << i;
      EXPECT_EQ(a.timeline[i].utility, b.timeline[i].utility) << label << " t" << i;
    }
  }
};

TEST_F(GoldenTraceTest, SummaryMetricsByteStableAcrossRuns) {
  const SimResult first = RunGolden(1);
  const SimResult second = RunGolden(1);
  ExpectIdentical(first, second, "rerun");
  // Sanity: the golden run actually scheduled work.
  EXPECT_FALSE(first.timed_out);
  EXPECT_GT(first.JctSummary().mean, 0.0);
  EXPECT_GT(first.makespan, 0.0);
}

TEST_F(GoldenTraceTest, SummaryMetricsByteStableAcrossThreadCounts) {
  const SimResult serial = RunGolden(1);
  for (int threads : {2, 4, 0 /* hardware concurrency */}) {
    const SimResult parallel = RunGolden(threads);
    ExpectIdentical(serial, parallel,
                    ("threads=" + std::to_string(threads)).c_str());
  }
}

// The simulator is byte-deterministic per seed down to the full event log:
// times, kinds, and payloads — not just summary metrics.
TEST_F(GoldenTraceTest, EventEngineEventLogByteStableAcrossRuns) {
  const SimResult a = RunGolden(1);
  const SimResult b = RunGolden(1);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time) << "event " << i;
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << "event " << i;
    EXPECT_EQ(a.events[i].job_id, b.events[i].job_id) << "event " << i;
    EXPECT_EQ(a.events[i].gpus, b.events[i].gpus) << "event " << i;
    EXPECT_EQ(a.events[i].nodes, b.events[i].nodes) << "event " << i;
  }
  EXPECT_EQ(a.node_seconds, b.node_seconds);
}

// Fault-injection sweep: across seeds and both Pollux and a static baseline,
// the simulator's invariant checker (enabled here, aborts on violation) must
// hold and no job may be lost — every submission appears in the result and
// completes despite crashes, stragglers, report loss, and restart failures.
class FaultSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultSweep, InvariantsHoldAndNoJobIsLost) {
  const uint64_t seed = GetParam();
  SimOptions options;
  options.cluster = ClusterSpec::Homogeneous(2, 4);
  options.seed = seed;
  options.check_invariants = true;
  options.faults.mtbf_node = 1800.0;
  options.faults.repair_time = 120.0;
  options.faults.straggler_frac = 0.25;
  options.faults.straggler_slowdown = 1.5;
  options.faults.report_drop_rate = 0.1;
  options.faults.restart_fail_rate = 0.2;
  const auto trace = SweepTrace(seed);
  SchedConfig sched_config;
  sched_config.ga.population_size = 12;
  sched_config.ga.generations = 6;
  sched_config.ga.seed = seed;
  {
    PolluxPolicy policy(options.cluster, sched_config);
    const SimResult result = Simulator(options, trace, &policy).Run();
    EXPECT_FALSE(result.timed_out);
    ASSERT_EQ(result.jobs.size(), trace.size());
    for (const auto& job : result.jobs) {
      EXPECT_TRUE(job.completed) << "pollux job " << job.job_id;
    }
  }
  {
    TiresiasPolicy policy;
    const SimResult result = Simulator(options, trace, &policy).Run();
    EXPECT_FALSE(result.timed_out);
    ASSERT_EQ(result.jobs.size(), trace.size());
    for (const auto& job : result.jobs) {
      EXPECT_TRUE(job.completed) << "tiresias job " << job.job_id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FaultSeeds, FaultSweep, ::testing::Values(1u, 2u, 3u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(HeterogeneousClusterTest, PolluxHandlesUnevenNodes) {
  SimOptions options;
  options.cluster.gpus_per_node = {8, 2, 4};  // Uneven.
  options.seed = 3;
  const auto trace = SweepTrace(3);
  SchedConfig sched_config;
  sched_config.ga.population_size = 12;
  sched_config.ga.generations = 6;
  PolluxPolicy policy(options.cluster, sched_config);
  const SimResult result = Simulator(options, trace, &policy).Run();
  EXPECT_FALSE(result.timed_out);
  for (const auto& sample : result.timeline) {
    EXPECT_LE(sample.gpus_in_use, 14);
  }
  for (const auto& job : result.jobs) {
    EXPECT_TRUE(job.completed);
  }
}

TEST(HeterogeneousClusterTest, PlacementRespectsPerNodeCapacity) {
  ClusterSpec cluster;
  cluster.gpus_per_node = {1, 6, 2};
  const auto rows = PlaceConsolidated(cluster, {{1, 6}, {2, 3}}, {});
  std::vector<int> usage(3, 0);
  for (const auto& [id, row] : rows) {
    for (size_t n = 0; n < 3; ++n) {
      usage[n] += row[n];
      EXPECT_LE(usage[n], cluster.gpus_per_node[n]);
    }
  }
}

}  // namespace
}  // namespace pollux
