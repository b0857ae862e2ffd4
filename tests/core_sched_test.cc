#include "core/sched.h"

#include <gtest/gtest.h>

namespace pollux {
namespace {

GoodputModel TypicalModel(double phi = 1000.0) {
  ThroughputParams params;
  params.alpha_grad = 0.05;
  params.beta_grad = 2e-4;
  params.alpha_sync_local = 0.03;
  params.beta_sync_local = 0.002;
  params.alpha_sync_node = 0.1;
  params.beta_sync_node = 0.005;
  params.gamma = 2.0;
  return GoodputModel(params, phi, 128);
}

SchedJobReport MakeReport(uint64_t id, double phi = 1000.0, int cap = 16,
                          double gpu_time = 0.0) {
  SchedJobReport report;
  report.agent.job_id = id;
  report.agent.model = TypicalModel(phi);
  report.agent.limits.min_batch = 128;
  report.agent.limits.max_batch_total = 16384;
  report.agent.limits.max_batch_per_gpu = 1024;
  report.agent.max_gpus_cap = cap;
  report.gpu_time = gpu_time;
  return report;
}

SchedConfig SmallConfig(uint64_t seed = 5) {
  SchedConfig config;
  config.ga.population_size = 20;
  config.ga.generations = 15;
  config.ga.seed = seed;
  return config;
}

TEST(PolluxSchedTest, EmptyReportsProduceNothing) {
  PolluxSched sched(ClusterSpec::Homogeneous(2, 4), SmallConfig());
  EXPECT_TRUE(sched.Schedule({}).empty());
  EXPECT_DOUBLE_EQ(sched.last_utility(), 0.0);
}

TEST(PolluxSchedTest, AllocationsRespectCapacityAndCaps) {
  PolluxSched sched(ClusterSpec::Homogeneous(4, 4), SmallConfig());
  std::vector<SchedJobReport> reports;
  for (uint64_t id = 1; id <= 5; ++id) {
    reports.push_back(MakeReport(id, 1000.0, static_cast<int>(id * 2)));
  }
  const auto allocations = sched.Schedule(reports);
  ASSERT_EQ(allocations.size(), 5u);
  std::vector<int> usage(4, 0);
  for (const auto& [id, row] : allocations) {
    ASSERT_EQ(row.size(), 4u);
    int total = 0;
    for (size_t n = 0; n < row.size(); ++n) {
      EXPECT_GE(row[n], 0);
      usage[n] += row[n];
      total += row[n];
    }
    EXPECT_LE(total, static_cast<int>(id * 2)) << "job " << id;
  }
  for (int node_usage : usage) {
    EXPECT_LE(node_usage, 4);
  }
}

TEST(PolluxSchedTest, SingleJobObtainsGpus) {
  PolluxSched sched(ClusterSpec::Homogeneous(2, 4), SmallConfig());
  const auto allocations = sched.Schedule({MakeReport(7, 1e5, 8)});
  int total = 0;
  for (int g : allocations.at(7)) {
    total += g;
  }
  EXPECT_GE(total, 4);
  EXPECT_GT(sched.last_utility(), 0.0);
  EXPECT_LE(sched.last_utility(), 1.0);
}

TEST(PolluxSchedTest, WeightDecayShiftsGpusTowardYoungJobs) {
  // Two identical jobs, but job 1 already consumed 100 GPU-hours. With
  // weight decay enabled, job 2 should get at least as many GPUs.
  SchedConfig config = SmallConfig();
  config.weight_lambda = 1.0;
  config.ga.generations = 30;
  PolluxSched sched(ClusterSpec::Homogeneous(2, 4), config);
  std::vector<SchedJobReport> reports = {MakeReport(1, 1000.0, 16, 100.0 * 3600.0),
                                         MakeReport(2, 1000.0, 16, 0.0)};
  const auto allocations = sched.Schedule(reports);
  auto total = [&](uint64_t id) {
    int sum = 0;
    for (int g : allocations.at(id)) {
      sum += g;
    }
    return sum;
  };
  EXPECT_GE(total(2), total(1));
}

TEST(PolluxSchedTest, EvaluateUtilityDecreasesWithClusterSize) {
  PolluxSched sched(ClusterSpec::Homogeneous(4, 4), SmallConfig());
  std::vector<SchedJobReport> reports = {MakeReport(1, 1000.0, 8)};
  const double small = sched.EvaluateUtilityAt(1, 4, reports);
  const double large = sched.EvaluateUtilityAt(8, 4, reports);
  EXPECT_GT(small, large);
  // Probes are pure: repeating one after a probe at another size returns
  // the identical value.
  EXPECT_EQ(sched.EvaluateUtilityAt(1, 4, reports), small);
  EXPECT_DOUBLE_EQ(sched.EvaluateUtilityAt(0, 4, reports), 0.0);
  EXPECT_DOUBLE_EQ(sched.EvaluateUtilityAt(4, 4, {}), 0.0);
}

TEST(PolluxSchedTest, SetClusterChangesMatrixWidth) {
  PolluxSched sched(ClusterSpec::Homogeneous(2, 4), SmallConfig());
  sched.SetCluster(ClusterSpec::Homogeneous(6, 4));
  const auto allocations = sched.Schedule({MakeReport(1)});
  EXPECT_EQ(allocations.at(1).size(), 6u);
}

TEST(PolluxSchedTest, OldReportAgeNeverGrowsJob) {
  // A job whose last report is far older than stale_report_age (default 150 s)
  // must never be grown past its current size, no matter how attractive its
  // (dead) goodput model looks — here a huge phi that would otherwise claim
  // most of the idle cluster.
  PolluxSched sched(ClusterSpec::Homogeneous(2, 4), SmallConfig());
  SchedJobReport stale = MakeReport(1, /*phi=*/1e5, /*cap=*/16);
  stale.current_allocation = {1, 0};
  stale.report_age = 1e4;
  const auto allocations = sched.Schedule({stale});
  int total = 0;
  for (int gpus : allocations.at(1)) {
    total += gpus;
  }
  EXPECT_LE(total, 1);

  // Control: the identical job with fresh telemetry expands onto the idle
  // cluster, so the clamp above is doing the work.
  SchedJobReport fresh = stale;
  fresh.report_age = 0.0;
  PolluxSched unclamped(ClusterSpec::Homogeneous(2, 4), SmallConfig());
  const auto fresh_allocations = unclamped.Schedule({fresh});
  int fresh_total = 0;
  for (int gpus : fresh_allocations.at(1)) {
    fresh_total += gpus;
  }
  EXPECT_GT(fresh_total, 1);
}

TEST(PolluxSchedTest, UnusableGaOutputFallsBackAndCounts) {
  // An unusable GA round — output infeasible against the (degraded) cluster,
  // or over the wall-clock budget — must be discarded for the last
  // known-feasible allocation projected onto surviving nodes, and counted.
  // The infeasibility predicate itself:
  const ClusterSpec degraded{{4, 0}};  // Node 1 failed (masked to zero).
  EXPECT_FALSE(PolluxSched::AllocationsFeasible(degraded, {{1, {0, 1}}}));
  EXPECT_FALSE(PolluxSched::AllocationsFeasible(degraded, {{1, {5, 0}}}));
  EXPECT_TRUE(PolluxSched::AllocationsFeasible(degraded, {{1, {4, 0}}}));

  // Both unusable-round causes share one fallback path; the budget trigger
  // is the deterministic way to drive it end-to-end from the public API.
  SchedConfig config = SmallConfig();
  config.round_time_budget = 1e-12;  // Any real GA round overruns this.
  PolluxSched sched(ClusterSpec::Homogeneous(2, 4), config);
  EXPECT_EQ(sched.fallback_rounds(), 0u);
  SchedJobReport report = MakeReport(3);
  report.current_allocation = {2, 0};
  const auto allocations = sched.Schedule({report});
  EXPECT_EQ(sched.fallback_rounds(), 1u);
  // The fallback kept the job exactly at its known-feasible allocation.
  EXPECT_EQ(allocations.at(3), (std::vector<int>{2, 0}));
  // A second unusable round keeps counting.
  sched.Schedule({report});
  EXPECT_EQ(sched.fallback_rounds(), 2u);
}

SchedConfig LeaseConfig() {
  // lease span = 2 * 30 s = 60 s; eviction after a further 300 s of silence.
  SchedConfig config = SmallConfig();
  config.lease_intervals = 2;
  config.report_interval = 30.0;
  config.lease_grace = 300.0;
  config.stale_report_age = 0.0;  // isolate the lease machinery
  return config;
}

TEST(PolluxSchedTest, LeaseBoundaryAgeExactlyAtSpanStaysFresh) {
  // The lease predicate is strictly greater-than: a report whose age lands
  // exactly on the lease span (a report delivered right on schedule over a
  // slow link) is still fresh, one epsilon past it is held.
  PolluxSched sched(ClusterSpec::Homogeneous(2, 4), LeaseConfig());
  SchedJobReport report = MakeReport(1);
  report.current_allocation = {1, 0};
  report.report_age = 60.0;  // == lease_intervals * report_interval
  report.seq = 1;
  sched.Schedule({report});
  EXPECT_EQ(sched.lease_expirations(), 0u);

  report.report_age = 60.0 + 1e-9;
  report.seq = 2;
  const auto held = sched.Schedule({report});
  EXPECT_EQ(sched.lease_expirations(), 1u);
  EXPECT_EQ(sched.lease_evictions(), 0u);
  // Held means frozen at exactly the current allocation, not resized.
  EXPECT_EQ(held.at(1), (std::vector<int>{1, 0}));
}

TEST(PolluxSchedTest, LeaseGraceBoundaryAgeExactlyAtGraceIsHeldNotEvicted) {
  // Same strict inequality at the eviction edge: age == span + grace is the
  // last instant the job is merely held; only past it is the allocation
  // reclaimed.
  PolluxSched sched(ClusterSpec::Homogeneous(2, 4), LeaseConfig());
  SchedJobReport report = MakeReport(1);
  report.current_allocation = {2, 0};
  report.report_age = 360.0;  // == span (60) + grace (300)
  report.seq = 1;
  const auto held = sched.Schedule({report});
  EXPECT_EQ(sched.lease_expirations(), 1u);
  EXPECT_EQ(sched.lease_evictions(), 0u);
  EXPECT_EQ(held.at(1), (std::vector<int>{2, 0}));

  report.report_age = 360.0 + 1e-9;
  report.seq = 1;
  const auto evicted = sched.Schedule({report});
  EXPECT_EQ(sched.lease_evictions(), 1u);
  EXPECT_EQ(evicted.at(1), (std::vector<int>{0, 0}));
}

TEST(PolluxSchedTest, DuplicateSeqAfterPartitionHealIsCountedOnce) {
  // A partition heals and the transport replays the last pre-partition
  // report: same seq, now young again. The duplicate must be counted (the
  // round ran on old telemetry) but must not disturb the lease class, and
  // the next genuinely new report must not count.
  PolluxSched sched(ClusterSpec::Homogeneous(2, 4), LeaseConfig());
  SchedJobReport report = MakeReport(1);
  report.current_allocation = {1, 0};
  report.report_age = 0.0;
  report.seq = 7;
  sched.Schedule({report});
  EXPECT_EQ(sched.dup_reports(), 0u);

  // Partition: rounds keep running on the aging seq-7 report.
  report.report_age = 100.0;  // held
  sched.Schedule({report});
  EXPECT_EQ(sched.dup_reports(), 1u);
  EXPECT_EQ(sched.lease_expirations(), 1u);

  // Heal: the replayed duplicate arrives fresh. Counted as a dup, and the
  // job returns to a fresh lease without a phantom eviction.
  report.report_age = 0.0;
  sched.Schedule({report});
  EXPECT_EQ(sched.dup_reports(), 2u);
  EXPECT_EQ(sched.lease_evictions(), 0u);

  // An out-of-order stale replay (seq below the high-water mark) is also a
  // dup; the high-water mark must not regress because of it.
  report.seq = 5;
  sched.Schedule({report});
  EXPECT_EQ(sched.dup_reports(), 3u);

  // Genuinely new telemetry: no new dup.
  report.seq = 8;
  sched.Schedule({report});
  EXPECT_EQ(sched.dup_reports(), 3u);
  // And the mark advanced: replaying seq 7 now is again a dup.
  report.seq = 7;
  sched.Schedule({report});
  EXPECT_EQ(sched.dup_reports(), 4u);
}

}  // namespace
}  // namespace pollux
