#include "core/fitness.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/speedup_table.h"
#include "core/types.h"
#include "util/rng.h"

namespace pollux {
namespace {

GoodputModel TypicalModel() {
  ThroughputParams params;
  params.alpha_grad = 0.05;
  params.beta_grad = 2e-4;
  params.alpha_sync_local = 0.03;
  params.beta_sync_local = 0.002;
  params.alpha_sync_node = 0.1;
  params.beta_sync_node = 0.005;
  params.gamma = 2.0;
  return GoodputModel(params, 1000.0, 128);
}

BatchLimits TypicalLimits() {
  BatchLimits limits;
  limits.min_batch = 128;
  limits.max_batch_total = 16384;
  limits.max_batch_per_gpu = 1024;
  return limits;
}

TEST(JobWeightTest, Eqn16Behaviour) {
  const double threshold = 4.0 * 3600.0;
  // At or below the threshold: weight 1.
  EXPECT_DOUBLE_EQ(JobWeight(0.0, threshold, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(JobWeight(threshold, threshold, 0.5), 1.0);
  // Above: decays as (thres/gpu_time)^lambda.
  EXPECT_NEAR(JobWeight(4.0 * threshold, threshold, 0.5), 0.5, 1e-12);
  EXPECT_NEAR(JobWeight(4.0 * threshold, threshold, 1.0), 0.25, 1e-12);
  // lambda = 0 disables decay entirely.
  EXPECT_DOUBLE_EQ(JobWeight(100.0 * threshold, threshold, 0.0), 1.0);
}

TEST(SpeedupTableTest, UnityAtOneGpu) {
  const SpeedupTable table(TypicalModel(), TypicalLimits(), 16);
  EXPECT_NEAR(table.At(1, 1), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(table.At(0, 0), 0.0);
}

TEST(SpeedupTableTest, MatchesDirectSpeedup) {
  const GoodputModel model = TypicalModel();
  const BatchLimits limits = TypicalLimits();
  const SpeedupTable table(model, limits, 16);
  for (int k : {2, 4, 8, 16}) {
    EXPECT_NEAR(table.At(k, 1), Speedup(model, Placement{k, 1}, limits), 1e-9);
    EXPECT_NEAR(table.At(k, 2), Speedup(model, Placement{k, 2}, limits), 1e-9);
  }
}

TEST(SpeedupTableTest, ClampsBeyondTableMax) {
  const SpeedupTable table(TypicalModel(), TypicalLimits(), 8);
  EXPECT_DOUBLE_EQ(table.At(100, 2), table.At(8, 2));
}

TEST(SpeedupTableTest, BatchSizeLookups) {
  const GoodputModel model = TypicalModel();
  const BatchLimits limits = TypicalLimits();
  const SpeedupTable table(model, limits, 8);
  const auto direct = model.OptimizeBatchSize(Placement{4, 1}, limits);
  EXPECT_EQ(table.BatchSizeAt(4, 1), direct.batch_size);
  EXPECT_EQ(table.BatchSizeAt(0, 1), 0);
}

SchedJobInfo MakeJob(uint64_t id, int max_gpus = 16) {
  SchedJobInfo info;
  info.job_id = id;
  info.speedups = SpeedupTable(TypicalModel(), TypicalLimits(), max_gpus);
  info.max_gpus_cap = max_gpus;
  return info;
}

// Score of a one-job set with weight 1: the job's penalized speedup.
double PenalizedSpeedup(const SchedJobInfo& job, const AllocationMatrix& matrix) {
  return FitnessScorer({job}, ClusterSpec::Homogeneous(2, 4), 0.25).Fitness(matrix);
}

TEST(FitnessTest, RestartPenaltyAppliesOnlyOnChange) {
  SchedJobInfo job = MakeJob(1);
  job.current_allocation = {2, 0};
  AllocationMatrix same(1, 2);
  same.at(0, 0) = 2;
  AllocationMatrix moved(1, 2);
  moved.at(0, 1) = 2;
  const double unpenalized = PenalizedSpeedup(job, same);
  const double penalized = PenalizedSpeedup(job, moved);
  EXPECT_NEAR(unpenalized - penalized, 0.25, 1e-9);
}

TEST(FitnessTest, ShortCurrentAllocationReadsAsZeroPadded) {
  SchedJobInfo job = MakeJob(1);
  job.current_allocation = {2};
  AllocationMatrix same(1, 2);
  same.at(0, 0) = 2;
  EXPECT_EQ(PenalizedSpeedup(job, same), job.speedups.At(2, 1));
  AllocationMatrix grown = same;
  grown.at(0, 1) = 1;
  EXPECT_EQ(PenalizedSpeedup(job, grown), job.speedups.At(3, 2) - 0.25);
}

TEST(FitnessTest, NoPenaltyForPreviouslyIdleJob) {
  SchedJobInfo job = MakeJob(1);  // No current allocation.
  AllocationMatrix matrix(1, 2);
  matrix.at(0, 0) = 2;
  EXPECT_NEAR(PenalizedSpeedup(job, matrix), job.speedups.At(2, 1), 1e-9);
}

TEST(FitnessTest, WeightedMean) {
  std::vector<SchedJobInfo> jobs = {MakeJob(1), MakeJob(2)};
  jobs[0].weight = 1.0;
  jobs[1].weight = 3.0;
  AllocationMatrix matrix(2, 2);
  matrix.at(0, 0) = 1;  // Speedup 1.
  matrix.at(1, 0) = 2;  // Speedup s2.
  const double s2 = jobs[1].speedups.At(2, 1);
  const double expected = (1.0 * 1.0 + 3.0 * s2) / 4.0;
  EXPECT_NEAR(FitnessScorer(jobs, ClusterSpec::Homogeneous(2, 4), 0.25).Fitness(matrix), expected,
              1e-9);
}

TEST(FitnessTest, EmptyJobsIsZero) {
  EXPECT_DOUBLE_EQ(FitnessScorer({}, ClusterSpec::Homogeneous(2, 4), 0.25)
                       .Fitness(AllocationMatrix(0, 2)),
                   0.0);
}

TEST(UtilityTest, Eqn17BoundsAndValues) {
  std::vector<SchedJobInfo> jobs = {MakeJob(1), MakeJob(2)};
  AllocationMatrix matrix(2, 2);
  matrix.at(0, 0) = 1;
  matrix.at(1, 1) = 1;
  // Two jobs each with speedup 1 on an 8-GPU cluster.
  EXPECT_NEAR(FitnessScorer(jobs, ClusterSpec::Homogeneous(2, 4), 0.25).Utility(matrix),
              2.0 / 8.0, 1e-9);
  EXPECT_DOUBLE_EQ(FitnessScorer(jobs, ClusterSpec::Homogeneous(2, 0), 0.25).Utility(matrix),
                   0.0);
}

TEST(UtilityTest, NeverExceedsOne) {
  std::vector<SchedJobInfo> jobs = {MakeJob(1), MakeJob(2)};
  AllocationMatrix matrix(2, 2);
  matrix.at(0, 0) = 4;
  matrix.at(1, 1) = 4;
  // Speedups are sublinear, so utility = sum(speedup)/8 < 1.
  const FitnessScorer scorer(jobs, ClusterSpec::Homogeneous(2, 4), 0.25);
  EXPECT_LE(scorer.Utility(matrix), 1.0);
  EXPECT_GT(scorer.Utility(matrix), 0.0);
}

// The scorer's dense rows and fused scan against the direct definition: the
// table lookup at the row's (K, N, R) placement, times the slowest GPU scale
// it touches on topology clusters. Single-job sets with weight 1 and no
// current allocation make Fitness return exactly that value (x / 1 == x).
TEST(FitnessScorerTest, MatchesTableLookupsBitForBit) {
  TopologySpec spec;
  spec.num_racks = 2;
  spec.nodes_per_rack = 3;
  spec.gpus_per_node = 4;
  spec.rack_link_factor = 2.5;
  std::string error;
  ASSERT_TRUE(ParseGpuMix("a100:0.5,t4:0.5", &spec, &error)) << error;
  const ClusterSpec topology = spec.ToCluster();
  const ClusterSpec flat = topology.WithoutTopology();
  Rng rng(3);
  for (int trial = 0; trial < 400; ++trial) {
    const bool on_topology = trial % 2 == 0;
    const ClusterSpec& cluster = on_topology ? topology : flat;
    SchedJobInfo job;
    job.speedups = SpeedupTable(TypicalModel(), TypicalLimits(),
                                static_cast<int>(rng.UniformInt(1, 24)),
                                on_topology ? cluster.rack_link_factor : 1.0);
    AllocationMatrix matrix(1, cluster.gpus_per_node.size());
    for (size_t n = 0; n < matrix.num_nodes(); ++n) {
      if (rng.Bernoulli(0.4)) {
        matrix.at(0, n) = static_cast<int>(rng.UniformInt(1, 8));
      }
    }
    const double expected =
        on_topology ? job.speedups.At(matrix.JobRackPlacement(0, cluster)) *
                          matrix.JobMinGpuScale(0, cluster)
                    : job.speedups.At(matrix.JobPlacement(0).num_gpus,
                                      matrix.JobPlacement(0).num_nodes);
    const FitnessScorer scorer({job}, cluster, 0.25);
    EXPECT_EQ(scorer.Fitness(matrix), expected) << "trial " << trial;
    EXPECT_EQ(scorer.Utility(matrix), expected / cluster.TotalGpus()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace pollux
