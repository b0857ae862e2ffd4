// Tests for the --sched-mode quality/speed ladder (DESIGN.md §13):
//   exact       — full GA over all jobs (covered by core_sched_test.cc),
//   incremental — re-optimize only dirty jobs, keep warm allocations,
//   first-match — O(jobs) greedy placement.
// Both cheap modes return sparse decision maps: a job omitted from the result
// keeps its current allocation (the scheduler contract in sim/scheduler.h).

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "core/sched.h"
#include "util/rng.h"

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

SchedConfig ModeConfig(SchedMode mode, uint64_t seed = 5) {
  SchedConfig config;
  config.ga.population_size = 20;
  config.ga.generations = 15;
  config.ga.seed = seed;
  config.mode = mode;
  return config;
}

int RowTotal(const std::vector<int>& row) {
  return std::accumulate(row.begin(), row.end(), 0);
}

// Applies a sparse decision map on top of the previous allocations, per the
// scheduler contract: omitted jobs keep what they had.
void ApplyDecisions(const std::map<uint64_t, std::vector<int>>& decisions,
                    std::map<uint64_t, std::vector<int>>* allocations) {
  for (const auto& [id, row] : decisions) {
    (*allocations)[id] = row;
  }
}

void AssertFeasible(const std::map<uint64_t, std::vector<int>>& allocations, int num_nodes,
                    int gpus_per_node) {
  std::vector<int> usage(num_nodes, 0);
  for (const auto& [id, row] : allocations) {
    ASSERT_LE(row.size(), static_cast<size_t>(num_nodes)) << "job " << id;
    for (size_t n = 0; n < row.size(); ++n) {
      EXPECT_GE(row[n], 0) << "job " << id;
      usage[n] += row[n];
    }
  }
  for (int n = 0; n < num_nodes; ++n) {
    EXPECT_LE(usage[n], gpus_per_node) << "node " << n;
  }
}

TEST(SchedModeTest, NameRoundTrip) {
  for (SchedMode mode :
       {SchedMode::kExact, SchedMode::kIncremental, SchedMode::kFirstMatch}) {
    SchedMode parsed = SchedMode::kExact;
    ASSERT_TRUE(SchedModeByName(SchedModeName(mode), &parsed));
    EXPECT_EQ(parsed, mode);
  }
  SchedMode parsed = SchedMode::kIncremental;
  EXPECT_FALSE(SchedModeByName("fastest", &parsed));
  EXPECT_EQ(parsed, SchedMode::kIncremental);  // untouched on failure
  EXPECT_FALSE(SchedModeByName("", &parsed));
}

TEST(SchedModeTest, FirstMatchPlacesQueuedJobsFeasibly) {
  PolluxSched sched(ClusterSpec::Homogeneous(4, 4), ModeConfig(SchedMode::kFirstMatch));
  std::vector<SchedJobReport> reports;
  for (uint64_t id = 1; id <= 5; ++id) {
    reports.push_back(MakeReport(id, 1000.0, 4));
  }
  const auto decisions = sched.Schedule(reports);
  // Four cap-4 jobs saturate the 16-GPU cluster; the fifth stays queued
  // (omitted from the sparse map) rather than evicting anyone.
  ASSERT_EQ(decisions.size(), 4u);
  EXPECT_EQ(decisions.count(5), 0u);
  for (const auto& [id, row] : decisions) {
    EXPECT_GE(RowTotal(row), 1) << "job " << id;
    EXPECT_LE(RowTotal(row), 4) << "job " << id;
  }
  AssertFeasible(decisions, 4, 4);
}

TEST(SchedModeTest, FirstMatchOmitsUnchangedJobs) {
  PolluxSched sched(ClusterSpec::Homogeneous(2, 4), ModeConfig(SchedMode::kFirstMatch));
  // The cluster is full: two jobs each holding one saturated node. Neither
  // can grow, so first-match must return an empty (all-unchanged) map.
  SchedJobReport a = MakeReport(1, 1000.0, 8);
  a.current_allocation = {4, 0};
  SchedJobReport b = MakeReport(2, 1000.0, 8);
  b.current_allocation = {0, 4};
  EXPECT_TRUE(sched.Schedule({a, b}).empty());
}

TEST(SchedModeTest, FirstMatchGrowsRunningJobsInPlace) {
  PolluxSched sched(ClusterSpec::Homogeneous(2, 4), ModeConfig(SchedMode::kFirstMatch));
  SchedJobReport a = MakeReport(1, 1000.0, 8);
  a.current_allocation = {2, 0};
  const auto decisions = sched.Schedule({a});
  ASSERT_EQ(decisions.count(1), 1u);
  // Grows on its own node first; only node 0 was occupied, so the extra GPUs
  // land there before spilling.
  EXPECT_EQ(decisions.at(1)[0], 4);
  AssertFeasible(decisions, 2, 4);
}

TEST(SchedModeTest, FirstMatchClampsOversubscribedRows) {
  // A stale allocation can exceed the (shrunken) cluster; first-match must
  // clamp it to capacity rather than emit an infeasible row.
  PolluxSched sched(ClusterSpec::Homogeneous(2, 2), ModeConfig(SchedMode::kFirstMatch));
  SchedJobReport a = MakeReport(1, 1000.0, 2);
  a.current_allocation = {4, 4};
  const auto decisions = sched.Schedule({a});
  ASSERT_EQ(decisions.count(1), 1u);
  AssertFeasible(decisions, 2, 2);
}

TEST(SchedModeTest, FirstMatchPreemptsAJobClampedToZeroByEarlierGrowth) {
  // Job 1 grows in place to its cap and takes node 0's last free GPUs. Job 2
  // (reported later) is then clamped to zero, and pass 2 finds no free node.
  // Its zero row must be emitted: omitting it would leave job 2 on GPUs
  // that job 1 now holds.
  PolluxSched sched(ClusterSpec::Homogeneous(1, 4), ModeConfig(SchedMode::kFirstMatch));
  SchedJobReport a = MakeReport(1, 1000.0, 4);
  a.current_allocation = {2};
  SchedJobReport b = MakeReport(2, 1000.0, 4);
  b.current_allocation = {2};
  const auto decisions = sched.Schedule({a, b});
  ASSERT_EQ(decisions.count(1), 1u);
  EXPECT_EQ(decisions.at(1), std::vector<int>({4}));
  ASSERT_EQ(decisions.count(2), 1u);
  EXPECT_EQ(RowTotal(decisions.at(2)), 0);
  std::map<uint64_t, std::vector<int>> allocations = {{1, {2}}, {2, {2}}};
  ApplyDecisions(decisions, &allocations);
  AssertFeasible(allocations, 1, 4);
}

// Capacity property for every mode: whatever order the reports arrive in,
// the decisions applied on top of a feasible allocation (omitted jobs keep
// their rows) stay within every node's capacity, round after round.
TEST(SchedModeTest, DecisionsRespectCapacityUnderShuffledReportOrders) {
  for (SchedMode mode :
       {SchedMode::kExact, SchedMode::kIncremental, SchedMode::kFirstMatch}) {
    for (uint64_t trial = 1; trial <= 12; ++trial) {
      Rng rng(trial * 7919 + static_cast<uint64_t>(mode));
      const int nodes = static_cast<int>(rng.UniformInt(1, 4));
      const int gpus_per_node = 4;
      PolluxSched sched(ClusterSpec::Homogeneous(nodes, gpus_per_node), ModeConfig(mode, trial));
      // A feasible start: each job takes a random share of what is left.
      std::vector<int> free(static_cast<size_t>(nodes), gpus_per_node);
      std::map<uint64_t, std::vector<int>> allocations;
      std::vector<SchedJobReport> reports;
      const int jobs = static_cast<int>(rng.UniformInt(2, 8));
      for (int j = 1; j <= jobs; ++j) {
        const uint64_t id = static_cast<uint64_t>(j);
        std::vector<int> row(static_cast<size_t>(nodes), 0);
        for (size_t n = 0; n < row.size(); ++n) {
          row[n] = static_cast<int>(rng.UniformInt(0, free[n]));
          free[n] -= row[n];
        }
        allocations[id] = row;
        const int cap = static_cast<int>(rng.UniformInt(1, 8));
        reports.push_back(MakeReport(id, 500.0 * static_cast<double>(j), cap));
      }
      for (int round = 0; round < 3; ++round) {
        rng.Shuffle(reports);
        for (SchedJobReport& report : reports) {
          report.current_allocation = allocations[report.agent.job_id];
        }
        ApplyDecisions(sched.Schedule(reports), &allocations);
        SCOPED_TRACE(std::string(SchedModeName(mode)) + " trial " + std::to_string(trial) +
                     " round " + std::to_string(round));
        AssertFeasible(allocations, nodes, gpus_per_node);
      }
    }
  }
}

TEST(SchedModeTest, FirstMatchLeavesExcessJobsQueued) {
  // One-node cluster, two jobs: the second has nowhere to go and must stay
  // queued (omitted), not evict the first.
  PolluxSched sched(ClusterSpec::Homogeneous(1, 2), ModeConfig(SchedMode::kFirstMatch));
  SchedJobReport a = MakeReport(1, 1000.0, 8);
  a.current_allocation = {2};
  SchedJobReport b = MakeReport(2, 1000.0, 8);
  const auto decisions = sched.Schedule({a, b});
  EXPECT_EQ(decisions.count(2), 0u);
  EXPECT_EQ(decisions.count(1), 0u);  // already saturated, unchanged
}

TEST(SchedModeTest, FirstMatchIgnoresGaThreadCount) {
  std::vector<SchedJobReport> reports;
  for (uint64_t id = 1; id <= 6; ++id) {
    reports.push_back(MakeReport(id, 500.0 * static_cast<double>(id), 8));
  }
  SchedConfig one = ModeConfig(SchedMode::kFirstMatch);
  one.ga.threads = 1;
  SchedConfig many = ModeConfig(SchedMode::kFirstMatch);
  many.ga.threads = 4;
  PolluxSched sched_one(ClusterSpec::Homogeneous(3, 4), one);
  PolluxSched sched_many(ClusterSpec::Homogeneous(3, 4), many);
  EXPECT_EQ(sched_one.Schedule(reports), sched_many.Schedule(reports));
}

TEST(SchedModeTest, IncrementalFirstRoundOptimizesEveryJob) {
  PolluxSched sched(ClusterSpec::Homogeneous(4, 4), ModeConfig(SchedMode::kIncremental));
  std::vector<SchedJobReport> reports;
  for (uint64_t id = 1; id <= 4; ++id) {
    reports.push_back(MakeReport(id, 1000.0, 8));
  }
  const auto decisions = sched.Schedule(reports);
  // Every job is new, hence dirty; each should be granted GPUs somewhere.
  AssertFeasible(decisions, 4, 4);
  int placed = 0;
  for (const auto& [id, row] : decisions) {
    placed += RowTotal(row) > 0 ? 1 : 0;
  }
  EXPECT_GE(placed, 1);
  EXPECT_GT(sched.last_utility(), 0.0);
}

TEST(SchedModeTest, IncrementalSecondRoundWithUnchangedStateIsEmpty) {
  PolluxSched sched(ClusterSpec::Homogeneous(4, 4), ModeConfig(SchedMode::kIncremental));
  std::vector<SchedJobReport> reports;
  for (uint64_t id = 1; id <= 4; ++id) {
    reports.push_back(MakeReport(id, 1000.0, 8));
  }
  std::map<uint64_t, std::vector<int>> allocations;
  ApplyDecisions(sched.Schedule(reports), &allocations);
  // Feed the granted allocations back unchanged: every job is clean and the
  // round must not move anyone.
  for (auto& report : reports) {
    auto it = allocations.find(report.agent.job_id);
    if (it != allocations.end()) {
      report.current_allocation = it->second;
    }
  }
  EXPECT_TRUE(sched.Schedule(reports).empty());
}

TEST(SchedModeTest, IncrementalReoptimizesOnlyDriftedJobs) {
  PolluxSched sched(ClusterSpec::Homogeneous(4, 4), ModeConfig(SchedMode::kIncremental));
  std::vector<SchedJobReport> reports;
  for (uint64_t id = 1; id <= 4; ++id) {
    reports.push_back(MakeReport(id, 1000.0, 8));
  }
  std::map<uint64_t, std::vector<int>> allocations;
  ApplyDecisions(sched.Schedule(reports), &allocations);
  for (auto& report : reports) {
    auto it = allocations.find(report.agent.job_id);
    if (it != allocations.end()) {
      report.current_allocation = it->second;
    }
  }
  // Drift job 3's statistical-efficiency state well past dirty_rel_change.
  reports[2].agent.model = TypicalModel(2500.0);
  const auto decisions = sched.Schedule(reports);
  for (const auto& [id, row] : decisions) {
    EXPECT_EQ(id, 3u) << "clean job " << id << " was re-optimized";
  }
}

TEST(SchedModeTest, IncrementalDeterministicAcrossThreadCounts) {
  std::vector<SchedJobReport> reports;
  for (uint64_t id = 1; id <= 8; ++id) {
    reports.push_back(MakeReport(id, 400.0 * static_cast<double>(id), 4));
  }
  SchedConfig one = ModeConfig(SchedMode::kIncremental);
  one.ga.threads = 1;
  one.shard_jobs = 2;  // force several shards so the pool actually fans out
  SchedConfig many = one;
  many.ga.threads = 4;
  PolluxSched sched_one(ClusterSpec::Homogeneous(6, 4), one);
  PolluxSched sched_many(ClusterSpec::Homogeneous(6, 4), many);
  for (int round = 0; round < 3; ++round) {
    const auto decisions_one = sched_one.Schedule(reports);
    const auto decisions_many = sched_many.Schedule(reports);
    ASSERT_EQ(decisions_one, decisions_many) << "round " << round;
    for (auto& report : reports) {
      auto it = decisions_one.find(report.agent.job_id);
      if (it != decisions_one.end()) {
        report.current_allocation = it->second;
      }
    }
  }
}

TEST(SchedModeTest, IncrementalSetClusterDirtiesEveryJob) {
  PolluxSched sched(ClusterSpec::Homogeneous(2, 4), ModeConfig(SchedMode::kIncremental));
  std::vector<SchedJobReport> reports = {MakeReport(1, 1000.0, 8), MakeReport(2, 1000.0, 8)};
  std::map<uint64_t, std::vector<int>> allocations;
  ApplyDecisions(sched.Schedule(reports), &allocations);
  for (auto& report : reports) {
    auto it = allocations.find(report.agent.job_id);
    if (it != allocations.end()) {
      report.current_allocation = it->second;
    }
  }
  ASSERT_TRUE(sched.Schedule(reports).empty());
  // Capacity change: everyone must be reconsidered next round.
  sched.SetCluster(ClusterSpec::Homogeneous(4, 4));
  for (auto& report : reports) {
    report.current_allocation.resize(4, 0);
  }
  const auto state = sched.GetState();
  EXPECT_TRUE(state.incremental.empty());  // snapshots were invalidated
  sched.Schedule(reports);
  const auto after = sched.GetState();
  EXPECT_EQ(after.incremental.size(), 2u);  // rebuilt from fresh optimization
  for (const auto& [id, snap] : after.incremental) {
    EXPECT_EQ(snap.rounds_clean, 0u) << "job " << id;
  }
}

TEST(SchedModeTest, IncrementalPeriodicRefreshResetsCleanCounter) {
  SchedConfig config = ModeConfig(SchedMode::kIncremental);
  config.refresh_rounds = 2;
  PolluxSched sched(ClusterSpec::Homogeneous(2, 4), config);
  std::vector<SchedJobReport> reports = {MakeReport(1, 1000.0, 8)};
  std::map<uint64_t, std::vector<int>> allocations;
  ApplyDecisions(sched.Schedule(reports), &allocations);
  for (auto& report : reports) {
    auto it = allocations.find(report.agent.job_id);
    if (it != allocations.end()) {
      report.current_allocation = it->second;
    }
  }
  sched.Schedule(reports);  // clean round: counter advances to 1
  EXPECT_EQ(sched.GetState().incremental.at(1).rounds_clean, 1u);
  sched.Schedule(reports);  // counter would hit refresh_rounds: forced dirty
  EXPECT_EQ(sched.GetState().incremental.at(1).rounds_clean, 0u);
}

TEST(SchedModeTest, IncrementalStateRoundTripsThroughGetSet) {
  PolluxSched sched(ClusterSpec::Homogeneous(2, 4), ModeConfig(SchedMode::kIncremental));
  std::vector<SchedJobReport> reports = {MakeReport(1, 1000.0, 8), MakeReport(2, 2000.0, 8)};
  sched.Schedule(reports);
  const PolluxSched::State state = sched.GetState();
  EXPECT_EQ(state.incremental.size(), 2u);
  EXPECT_EQ(state.incremental_round, 1u);

  PolluxSched other(ClusterSpec::Homogeneous(2, 4), ModeConfig(SchedMode::kIncremental));
  other.SetState(state);
  const PolluxSched::State restored = other.GetState();
  EXPECT_EQ(restored.incremental_round, state.incremental_round);
  ASSERT_EQ(restored.incremental.size(), state.incremental.size());
  for (const auto& [id, snap] : state.incremental) {
    const auto& copy = restored.incremental.at(id);
    EXPECT_EQ(copy.phi, snap.phi) << "job " << id;
    EXPECT_EQ(copy.cap, snap.cap) << "job " << id;
    EXPECT_EQ(copy.bucket, snap.bucket) << "job " << id;
    EXPECT_EQ(copy.rounds_clean, snap.rounds_clean) << "job " << id;
  }
}

TEST(SchedModeTest, ExactModeIgnoresIncrementalConfigKnobs) {
  // Exact mode must behave identically whatever the incremental tuning says —
  // the golden-identity guarantee (DESIGN.md §13).
  std::vector<SchedJobReport> reports;
  for (uint64_t id = 1; id <= 3; ++id) {
    reports.push_back(MakeReport(id, 1000.0, 8));
  }
  SchedConfig plain = ModeConfig(SchedMode::kExact);
  SchedConfig tuned = ModeConfig(SchedMode::kExact);
  tuned.dirty_rel_change = 0.5;
  tuned.shard_jobs = 2;
  tuned.refresh_rounds = 3;
  PolluxSched sched_plain(ClusterSpec::Homogeneous(3, 4), plain);
  PolluxSched sched_tuned(ClusterSpec::Homogeneous(3, 4), tuned);
  EXPECT_EQ(sched_plain.Schedule(reports), sched_tuned.Schedule(reports));
}

TEST(SchedModeTest, QueueAdmissionDefersBacklogBeyondFreeCapacity) {
  // 4-GPU cluster, 10 queued jobs: every placement consumes at least one GPU,
  // so at most 4 of them can possibly land this round. The pre-filter admits
  // the first 4 in report order and defers the other 6 (omitted from the
  // sparse map — they simply stay queued) instead of dragging all 10 through
  // GA shards.
  SchedConfig config = ModeConfig(SchedMode::kIncremental);
  config.queue_admission = true;
  PolluxSched sched(ClusterSpec::Homogeneous(2, 2), config);
  std::vector<SchedJobReport> reports;
  for (uint64_t id = 1; id <= 10; ++id) {
    reports.push_back(MakeReport(id, 1000.0, 4));
  }
  const auto decisions = sched.Schedule(reports);
  EXPECT_EQ(sched.queue_skipped(), 6u);
  for (uint64_t id = 5; id <= 10; ++id) {
    EXPECT_EQ(decisions.count(id), 0u) << "deferred job " << id << " got a row";
  }
  AssertFeasible(decisions, 2, 2);
}

TEST(SchedModeTest, QueueAdmissionOffIsTheDefaultAndAdmitsEverything) {
  SchedConfig config = ModeConfig(SchedMode::kIncremental);
  EXPECT_FALSE(config.queue_admission);
  PolluxSched sched(ClusterSpec::Homogeneous(2, 2), config);
  std::vector<SchedJobReport> reports;
  for (uint64_t id = 1; id <= 10; ++id) {
    reports.push_back(MakeReport(id, 1000.0, 4));
  }
  sched.Schedule(reports);
  EXPECT_EQ(sched.queue_skipped(), 0u);
}

TEST(SchedModeTest, QueueAdmissionNeverDefersRunningJobs) {
  // A running job re-optimized because its model drifted is dirty for a real
  // reason — the filter only gates jobs that hold nothing. Single 2-GPU node:
  // job 1 runs (and drifts), three queued jobs compete for the 2 free-after-
  // dirty-rows GPUs, so exactly one is deferred and it is the last by report
  // order.
  SchedConfig config = ModeConfig(SchedMode::kIncremental);
  config.queue_admission = true;
  PolluxSched sched(ClusterSpec::Homogeneous(1, 2), config);
  std::vector<SchedJobReport> reports = {MakeReport(1, 1000.0, 2)};
  std::map<uint64_t, std::vector<int>> allocations;
  ApplyDecisions(sched.Schedule(reports), &allocations);
  for (auto& report : reports) {
    auto it = allocations.find(report.agent.job_id);
    if (it != allocations.end()) {
      report.current_allocation = it->second;
    }
  }
  ASSERT_TRUE(sched.Schedule(reports).empty());  // warm and clean
  EXPECT_EQ(sched.queue_skipped(), 0u);

  reports[0].agent.model = TypicalModel(2500.0);  // drift: dirty but running
  reports.push_back(MakeReport(2, 1000.0, 2));
  reports.push_back(MakeReport(3, 1000.0, 2));
  reports.push_back(MakeReport(4, 1000.0, 2));
  const auto decisions = sched.Schedule(reports);
  EXPECT_EQ(sched.queue_skipped(), 1u);
  EXPECT_EQ(decisions.count(4), 0u);  // last queued job by report order
  AssertFeasible(decisions, 1, 2);
}

TEST(SchedModeTest, QueueAdmissionIsInertInExactMode) {
  // The filter lives on the incremental path; exact mode with the flag set
  // must stay byte-identical to exact mode without it (golden identity).
  std::vector<SchedJobReport> reports;
  for (uint64_t id = 1; id <= 6; ++id) {
    reports.push_back(MakeReport(id, 1000.0, 4));
  }
  SchedConfig plain = ModeConfig(SchedMode::kExact);
  SchedConfig filtered = ModeConfig(SchedMode::kExact);
  filtered.queue_admission = true;
  PolluxSched sched_plain(ClusterSpec::Homogeneous(2, 2), plain);
  PolluxSched sched_filtered(ClusterSpec::Homogeneous(2, 2), filtered);
  EXPECT_EQ(sched_plain.Schedule(reports), sched_filtered.Schedule(reports));
  EXPECT_EQ(sched_filtered.queue_skipped(), 0u);
}

TEST(SchedModeTest, QueueAdmissionStateSurvivesGetSet) {
  // queue_skipped is part of the accounting a warm restart must not lose.
  SchedConfig config = ModeConfig(SchedMode::kIncremental);
  config.queue_admission = true;
  PolluxSched sched(ClusterSpec::Homogeneous(2, 2), config);
  std::vector<SchedJobReport> reports;
  for (uint64_t id = 1; id <= 10; ++id) {
    reports.push_back(MakeReport(id, 1000.0, 4));
  }
  sched.Schedule(reports);
  ASSERT_GT(sched.queue_skipped(), 0u);
  PolluxSched other(ClusterSpec::Homogeneous(2, 2), config);
  other.SetState(sched.GetState());
  EXPECT_EQ(other.queue_skipped(), sched.queue_skipped());
}

}  // namespace
}  // namespace pollux
