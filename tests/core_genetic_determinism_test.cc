// The scheduling contract of the parallel GA: the allocation matrix and
// fitness PolluxSched computes must be BIT-identical regardless of how many
// ThreadPool workers evaluated the population. (EXPECT_EQ on doubles is exact
// equality, i.e. bitwise for non-NaN values.)

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/genetic.h"
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
  info.speedups = SpeedupTable(TypicalModel(phi), TypicalLimits(), 32);
  info.max_gpus_cap = cap;
  return info;
}

// A few job mixes of different sizes/scalability, including running jobs
// (restart penalties) and capped jobs.
std::vector<SchedJobInfo> JobMix(int mix) {
  std::vector<SchedJobInfo> jobs;
  switch (mix) {
    case 0:  // Small homogeneous mix.
      for (uint64_t id = 1; id <= 4; ++id) {
        jobs.push_back(MakeJob(id, 8));
      }
      break;
    case 1:  // Heterogeneous caps and scalability.
      for (uint64_t id = 1; id <= 10; ++id) {
        jobs.push_back(MakeJob(id, 1 << (id % 5), id % 3 == 0 ? 1e5 : 500.0));
      }
      break;
    default:  // Larger mix with incumbents holding GPUs.
      for (uint64_t id = 1; id <= 24; ++id) {
        jobs.push_back(MakeJob(id, 8, 100.0 * static_cast<double>(id)));
      }
      jobs[0].current_allocation = {4, 0, 0, 0, 0, 0, 0, 0};
      jobs[1].current_allocation = {0, 4, 0, 0, 0, 0, 0, 0};
      jobs[2].current_allocation = {0, 0, 2, 2, 0, 0, 0, 0};
      break;
  }
  return jobs;
}

GaOptions BaseOptions(uint64_t seed) {
  GaOptions options;
  options.population_size = 16;
  options.generations = 10;
  options.seed = seed;
  return options;
}

// Runs `rounds` consecutive scheduling rounds (exercising the persisted
// population) and returns the last result.
GeneticOptimizer::Result RunRounds(GeneticOptimizer& ga, const std::vector<SchedJobInfo>& jobs,
                                   int rounds) {
  GeneticOptimizer::Result result;
  for (int r = 0; r < rounds; ++r) {
    result = ga.Optimize(jobs);
  }
  return result;
}

TEST(GeneticDeterminismTest, BitIdenticalAcrossThreadCounts) {
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  for (uint64_t seed : {7u, 42u, 12345u}) {
    for (int mix = 0; mix < 3; ++mix) {
      const auto jobs = JobMix(mix);
      GaOptions serial = BaseOptions(seed);
      serial.threads = 1;
      GeneticOptimizer ga1(ClusterSpec::Homogeneous(8, 4), serial);
      const auto baseline = RunRounds(ga1, jobs, 2);

      for (int threads : {4, hardware > 0 ? hardware : 2}) {
        GaOptions parallel = BaseOptions(seed);
        parallel.threads = threads;
        GeneticOptimizer gan(ClusterSpec::Homogeneous(8, 4), parallel);
        const auto result = RunRounds(gan, jobs, 2);
        EXPECT_EQ(result.best, baseline.best)
            << "seed " << seed << " mix " << mix << " threads " << threads;
        EXPECT_EQ(result.fitness, baseline.fitness)
            << "seed " << seed << " mix " << mix << " threads " << threads;
        EXPECT_EQ(result.utility, baseline.utility)
            << "seed " << seed << " mix " << mix << " threads " << threads;
      }
    }
  }
}

TEST(GeneticDeterminismTest, AutoThreadCountMatchesSerial) {
  const auto jobs = JobMix(1);
  GaOptions serial = BaseOptions(99);
  GeneticOptimizer ga1(ClusterSpec::Homogeneous(8, 4), serial);
  GaOptions automatic = BaseOptions(99);
  automatic.threads = 0;  // hardware_concurrency
  GeneticOptimizer ga0(ClusterSpec::Homogeneous(8, 4), automatic);
  const auto a = ga1.Optimize(jobs);
  const auto b = ga0.Optimize(jobs);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.fitness, b.fitness);
}

TEST(GeneticDeterminismTest, RepeatedRunsOfSameOptimizerConfigAgree) {
  // Same seed + same thread count run twice from scratch: identical, i.e. the
  // pool introduces no hidden state across Optimize calls.
  const auto jobs = JobMix(1);
  for (int threads : {1, 4}) {
    GaOptions options = BaseOptions(77);
    options.threads = threads;
    GeneticOptimizer ga_a(ClusterSpec::Homogeneous(8, 4), options);
    GeneticOptimizer ga_b(ClusterSpec::Homogeneous(8, 4), options);
    const auto a = RunRounds(ga_a, jobs, 3);
    const auto b = RunRounds(ga_b, jobs, 3);
    EXPECT_EQ(a.best, b.best) << "threads " << threads;
    EXPECT_EQ(a.fitness, b.fitness) << "threads " << threads;
  }
}

}  // namespace
}  // namespace pollux
