#include "core/genetic.h"

#include <gtest/gtest.h>

#include "core/speedup_table.h"

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

BatchLimits TypicalLimits() {
  BatchLimits limits;
  limits.min_batch = 128;
  limits.max_batch_total = 16384;
  limits.max_batch_per_gpu = 1024;
  return limits;
}

SchedJobInfo MakeJob(uint64_t id, int cap, double phi = 1000.0) {
  SchedJobInfo info;
  info.job_id = id;
  info.speedups = SpeedupTable(TypicalModel(phi), TypicalLimits(), 64);
  info.max_gpus_cap = cap;
  return info;
}

GaOptions SmallGa(uint64_t seed = 7) {
  GaOptions options;
  options.population_size = 20;
  options.generations = 15;
  options.seed = seed;
  return options;
}

TEST(GeneticRepairTest, EnforcesNodeCapacity) {
  GeneticOptimizer ga(ClusterSpec::Homogeneous(2, 4), SmallGa());
  std::vector<SchedJobInfo> jobs = {MakeJob(1, 64), MakeJob(2, 64)};
  AllocationMatrix matrix(2, 2);
  matrix.at(0, 0) = 4;
  matrix.at(1, 0) = 4;  // Node 0 over-committed (8 > 4).
  ga.Repair(matrix, jobs);
  EXPECT_TRUE(matrix.WithinCapacity(ga.cluster()));
}

TEST(GeneticRepairTest, EnforcesExplorationCap) {
  GeneticOptimizer ga(ClusterSpec::Homogeneous(4, 4), SmallGa());
  std::vector<SchedJobInfo> jobs = {MakeJob(1, 2)};
  AllocationMatrix matrix(1, 4);
  matrix.at(0, 0) = 4;
  matrix.at(0, 1) = 4;
  ga.Repair(matrix, jobs);
  EXPECT_LE(matrix.JobPlacement(0).num_gpus, 2);
}

TEST(GeneticRepairTest, InterferenceAvoidance) {
  GaOptions options = SmallGa();
  options.interference_avoidance = true;
  GeneticOptimizer ga(ClusterSpec::Homogeneous(3, 4), options);
  std::vector<SchedJobInfo> jobs = {MakeJob(1, 64), MakeJob(2, 64)};
  AllocationMatrix matrix(2, 3);
  // Both jobs distributed and sharing node 1.
  matrix.at(0, 0) = 4;
  matrix.at(0, 1) = 2;
  matrix.at(1, 1) = 2;
  matrix.at(1, 2) = 4;
  ga.Repair(matrix, jobs);
  // No node may host two distributed jobs.
  for (size_t n = 0; n < 3; ++n) {
    int distributed = 0;
    for (size_t j = 0; j < 2; ++j) {
      if (matrix.at(j, n) > 0 && matrix.IsDistributed(j)) {
        ++distributed;
      }
    }
    EXPECT_LE(distributed, 1) << "node " << n;
  }
}

TEST(GeneticRepairTest, InterferenceAvoidanceCanBeDisabled) {
  GaOptions options = SmallGa();
  options.interference_avoidance = false;
  GeneticOptimizer ga(ClusterSpec::Homogeneous(3, 4), options);
  std::vector<SchedJobInfo> jobs = {MakeJob(1, 64), MakeJob(2, 64)};
  AllocationMatrix matrix(2, 3);
  matrix.at(0, 0) = 4;
  matrix.at(0, 1) = 2;
  matrix.at(1, 1) = 2;
  matrix.at(1, 2) = 4;
  ga.Repair(matrix, jobs);
  // Shared node survives when avoidance is off (capacity is respected).
  EXPECT_EQ(matrix.at(0, 1), 2);
  EXPECT_EQ(matrix.at(1, 1), 2);
}

TEST(GeneticRepairTest, IdempotentOnFeasibleMatrix) {
  GeneticOptimizer ga(ClusterSpec::Homogeneous(2, 4), SmallGa());
  std::vector<SchedJobInfo> jobs = {MakeJob(1, 8), MakeJob(2, 8)};
  AllocationMatrix matrix(2, 2);
  matrix.at(0, 0) = 4;
  matrix.at(1, 1) = 4;
  AllocationMatrix copy = matrix;
  ga.Repair(matrix, jobs);
  EXPECT_EQ(matrix, copy);
}

TEST(GeneticCrossoverTest, RowsComeFromParents) {
  GeneticOptimizer ga(ClusterSpec::Homogeneous(2, 4), SmallGa());
  AllocationMatrix a(3, 2);
  AllocationMatrix b(3, 2);
  for (size_t j = 0; j < 3; ++j) {
    a.at(j, 0) = 1;
    b.at(j, 1) = 2;
  }
  const AllocationMatrix child = ga.Crossover(a, b);
  for (size_t j = 0; j < 3; ++j) {
    const bool from_a = child.at(j, 0) == 1 && child.at(j, 1) == 0;
    const bool from_b = child.at(j, 0) == 0 && child.at(j, 1) == 2;
    EXPECT_TRUE(from_a || from_b) << "row " << j;
  }
}

TEST(GeneticMutateTest, StaysWithinNodeRange) {
  GeneticOptimizer ga(ClusterSpec::Homogeneous(3, 4), SmallGa());
  AllocationMatrix matrix(4, 3);
  for (int trial = 0; trial < 50; ++trial) {
    ga.Mutate(matrix);
    for (size_t j = 0; j < 4; ++j) {
      for (size_t n = 0; n < 3; ++n) {
        EXPECT_GE(matrix.at(j, n), 0);
        EXPECT_LE(matrix.at(j, n), 4);
      }
    }
  }
}

TEST(GeneticOptimizeTest, EmptyJobsYieldEmptyMatrix) {
  GeneticOptimizer ga(ClusterSpec::Homogeneous(2, 4), SmallGa());
  const auto result = ga.Optimize({});
  EXPECT_EQ(result.best.num_jobs(), 0u);
  EXPECT_DOUBLE_EQ(result.fitness, 0.0);
}

TEST(GeneticOptimizeTest, SingleJobGetsResourcesUpToCap) {
  GeneticOptimizer ga(ClusterSpec::Homogeneous(4, 4), SmallGa());
  std::vector<SchedJobInfo> jobs = {MakeJob(1, 8)};
  const auto result = ga.Optimize(jobs);
  const Placement placement = result.best.JobPlacement(0);
  EXPECT_GE(placement.num_gpus, 4);  // Scalable job should be given GPUs.
  EXPECT_LE(placement.num_gpus, 8);  // But never beyond the exploration cap.
  EXPECT_TRUE(result.best.WithinCapacity(ga.cluster()));
}

TEST(GeneticOptimizeTest, ResultAlwaysFeasible) {
  GeneticOptimizer ga(ClusterSpec::Homogeneous(4, 4), SmallGa(11));
  std::vector<SchedJobInfo> jobs;
  for (uint64_t id = 1; id <= 6; ++id) {
    jobs.push_back(MakeJob(id, 1 << (id % 5)));
  }
  const auto result = ga.Optimize(jobs);
  EXPECT_TRUE(result.best.WithinCapacity(ga.cluster()));
  for (size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_LE(result.best.JobPlacement(j).num_gpus, jobs[j].max_gpus_cap);
  }
}

TEST(GeneticOptimizeTest, FitnessNeverBelowIncumbent) {
  // The incumbent allocation is seeded into the population, so the GA can
  // never return something worse than leaving allocations unchanged.
  GeneticOptimizer ga(ClusterSpec::Homogeneous(4, 4), SmallGa(13));
  std::vector<SchedJobInfo> jobs = {MakeJob(1, 16), MakeJob(2, 16)};
  jobs[0].current_allocation = {4, 0, 0, 0};
  jobs[1].current_allocation = {0, 4, 0, 0};
  AllocationMatrix incumbent(2, 4);
  incumbent.SetRow(0, jobs[0].current_allocation);
  incumbent.SetRow(1, jobs[1].current_allocation);
  const double incumbent_fitness = FitnessScorer(jobs, ga.cluster(), 0.25).Fitness(incumbent);
  const auto result = ga.Optimize(jobs);
  EXPECT_GE(result.fitness, incumbent_fitness - 1e-9);
}

TEST(GeneticOptimizeTest, PersistedPopulationTracksJobChurn) {
  GeneticOptimizer ga(ClusterSpec::Homogeneous(2, 4), SmallGa(17));
  std::vector<SchedJobInfo> round1 = {MakeJob(1, 8), MakeJob(2, 8)};
  ga.Optimize(round1);
  // Job 1 leaves; job 3 arrives.
  std::vector<SchedJobInfo> round2 = {MakeJob(2, 8), MakeJob(3, 8)};
  const auto result = ga.Optimize(round2);
  EXPECT_EQ(result.best.num_jobs(), 2u);
  EXPECT_TRUE(result.best.WithinCapacity(ga.cluster()));
}

TEST(GeneticOptimizeTest, DeterministicGivenSeed) {
  std::vector<SchedJobInfo> jobs = {MakeJob(1, 8), MakeJob(2, 8), MakeJob(3, 8)};
  GeneticOptimizer ga1(ClusterSpec::Homogeneous(4, 4), SmallGa(42));
  GeneticOptimizer ga2(ClusterSpec::Homogeneous(4, 4), SmallGa(42));
  const auto r1 = ga1.Optimize(jobs);
  const auto r2 = ga2.Optimize(jobs);
  EXPECT_EQ(r1.best, r2.best);
  EXPECT_DOUBLE_EQ(r1.fitness, r2.fitness);
}

TEST(GeneticOptimizeTest, PrefersScalableJobs) {
  // Job 1 has an enormous noise scale (scales well); job 2 has phi = 0 (more
  // GPUs help little because larger batches are statistically worthless).
  GaOptions options = SmallGa(19);
  options.generations = 30;
  GeneticOptimizer ga(ClusterSpec::Homogeneous(2, 4), options);
  std::vector<SchedJobInfo> jobs = {MakeJob(1, 8, 1e6), MakeJob(2, 8, 0.0)};
  const auto result = ga.Optimize(jobs);
  EXPECT_GT(result.best.JobPlacement(0).num_gpus, result.best.JobPlacement(1).num_gpus);
}

TEST(GeneticOptimizeTest, SetClusterResetsPopulation) {
  GeneticOptimizer ga(ClusterSpec::Homogeneous(2, 4), SmallGa(23));
  std::vector<SchedJobInfo> jobs = {MakeJob(1, 8)};
  ga.Optimize(jobs);
  ga.SetCluster(ClusterSpec::Homogeneous(4, 4));
  const auto result = ga.Optimize(jobs);
  EXPECT_EQ(result.best.num_nodes(), 4u);
  EXPECT_TRUE(result.best.WithinCapacity(ga.cluster()));
}

}  // namespace
}  // namespace pollux
