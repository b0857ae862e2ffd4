// The scheduling contract of the parallel GA: the allocation matrix and
// fitness PolluxSched computes must be BIT-identical regardless of how many
// ThreadPool workers evaluated the population. (EXPECT_EQ on doubles is exact
// equality, i.e. bitwise for non-NaN values.)

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/genetic.h"
#include "core/speedup_table.h"
#include "core/types.h"

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

SchedJobInfo MakeJob(uint64_t id, int cap, double phi = 1000.0, double rack_link_factor = 1.0) {
  SchedJobInfo info;
  info.job_id = id;
  info.speedups = SpeedupTable(TypicalModel(phi), TypicalLimits(), 32, rack_link_factor);
  info.max_gpus_cap = cap;
  return info;
}

// A few job mixes of different sizes/scalability, including running jobs
// (restart penalties) and capped jobs. A rack link factor above 1 gives every
// table the cross-rack regime a topology cluster reads.
std::vector<SchedJobInfo> JobMix(int mix, double rack_link_factor = 1.0) {
  std::vector<SchedJobInfo> jobs;
  switch (mix) {
    case 0:  // Small homogeneous mix.
      for (uint64_t id = 1; id <= 4; ++id) {
        jobs.push_back(MakeJob(id, 8, 1000.0, rack_link_factor));
      }
      break;
    case 1:  // Heterogeneous caps and scalability.
      for (uint64_t id = 1; id <= 10; ++id) {
        jobs.push_back(
            MakeJob(id, 1 << (id % 5), id % 3 == 0 ? 1e5 : 500.0, rack_link_factor));
      }
      break;
    default:  // Larger mix with incumbents holding GPUs.
      for (uint64_t id = 1; id <= 24; ++id) {
        jobs.push_back(MakeJob(id, 8, 100.0 * static_cast<double>(id), rack_link_factor));
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

// ---------------------------------------------------------------------------
// Golden digests. Every value below was recorded with the rescanning repair
// kernel (one reservoir pass over the whole column per capacity decrement,
// two full-matrix passes per interference sweep) and the per-row
// JobPlacement fitness path. Each digest folds in every repaired cell, every
// fitness double's bits and the generator state after each call, so a change
// to any draw's order or span, any decision or any rounding moves it.

class Digest {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddDouble(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  void AddMatrix(const AllocationMatrix& matrix) {
    Add(matrix.num_jobs());
    Add(matrix.num_nodes());
    for (size_t j = 0; j < matrix.num_jobs(); ++j) {
      for (size_t n = 0; n < matrix.num_nodes(); ++n) {
        Add(static_cast<uint64_t>(static_cast<int64_t>(matrix.at(j, n))));
      }
    }
  }
  void AddRng(const Rng::State& state) {
    for (uint64_t word : state.words) {
      Add(word);
    }
    AddDouble(state.cached_normal);
    Add(state.has_cached_normal ? 1 : 0);
  }
  std::string Hex() const {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(hash_));
    return hex;
  }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// 2 racks x 2 nodes x 4 GPUs; rack 0 holds the a100 nodes, rack 1 the t4s.
ClusterSpec SmallTopology() {
  TopologySpec spec;
  spec.num_racks = 2;
  spec.nodes_per_rack = 2;
  spec.gpus_per_node = 4;
  spec.rack_link_factor = 2.5;
  std::string error;
  EXPECT_TRUE(ParseGpuMix("a100:0.5,t4:0.5", &spec, &error)) << error;
  return spec.ToCluster();
}

// 2 racks x 4 nodes x 4 GPUs with the same a100/t4 split, shaped like the
// flat 8x4 cluster so the JobMix current allocations fit it.
ClusterSpec WideTopology() {
  TopologySpec spec;
  spec.num_racks = 2;
  spec.nodes_per_rack = 4;
  spec.gpus_per_node = 4;
  spec.rack_link_factor = 2.5;
  std::string error;
  EXPECT_TRUE(ParseGpuMix("a100:0.5,t4:0.5", &spec, &error)) << error;
  return spec.ToCluster();
}

// Repairs 50 seeded random matrices per case, most with rows above their
// caps and columns above node capacity, on one optimizer (so the master
// generator runs on across matrices) and digests each result with the
// generator state after it.
std::string RepairDigest(const ClusterSpec& cluster, size_t num_jobs, double density,
                         bool interference, uint64_t seed) {
  GaOptions options = BaseOptions(seed);
  options.interference_avoidance = interference;
  GeneticOptimizer ga(cluster, options);
  Rng gen(seed * 7919 + 1);
  Digest digest;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<SchedJobInfo> jobs(num_jobs);
    for (auto& job : jobs) {
      job.max_gpus_cap = static_cast<int>(gen.UniformInt(0, 8));
    }
    AllocationMatrix matrix(num_jobs, cluster.gpus_per_node.size());
    for (size_t j = 0; j < num_jobs; ++j) {
      for (size_t n = 0; n < matrix.num_nodes(); ++n) {
        if (gen.Bernoulli(density)) {
          matrix.at(j, n) = static_cast<int>(gen.UniformInt(1, cluster.gpus_per_node[n]));
        }
      }
    }
    ga.Repair(matrix, jobs);
    digest.AddMatrix(matrix);
    digest.AddRng(ga.GetState().rng);
  }
  return digest.Hex();
}

TEST(GeneticGoldenTest, RepairMatchesRecordedDigests) {
  const ClusterSpec flat = ClusterSpec::Homogeneous(16, 4);
  const ClusterSpec topology = SmallTopology();
  EXPECT_EQ(RepairDigest(flat, 15, 0.35, true, 1), "2b9648cd504ac7a6");
  EXPECT_EQ(RepairDigest(flat, 15, 0.35, false, 2), "82a6552f8e5d32de");
  EXPECT_EQ(RepairDigest(topology, 6, 0.6, true, 3), "cd6fdca4b8aca2cd");
  EXPECT_EQ(RepairDigest(topology, 6, 0.6, false, 4), "03e1f603a9167c1b");
}

// Scores 100 seeded random matrices per job mix: unrepaired (columns over
// capacity, rows past the table's max K), so every regime and the clamp are
// read, plus rows that exactly match or differ from a current allocation.
std::string ScoreDigest(const ClusterSpec& cluster, int mix, uint64_t seed) {
  const double link = cluster.HasTopology() ? cluster.rack_link_factor : 1.0;
  std::vector<SchedJobInfo> jobs = JobMix(mix, link);
  // A current allocation shorter than the node count reads as zero-padded.
  jobs.back().current_allocation = {1, 0, 2};
  const FitnessScorer scorer(jobs, cluster, 0.25);
  Rng gen(seed);
  Digest digest;
  const size_t nodes = cluster.gpus_per_node.size();
  for (int trial = 0; trial < 100; ++trial) {
    AllocationMatrix matrix(jobs.size(), nodes);
    for (size_t j = 0; j < jobs.size(); ++j) {
      if (gen.Bernoulli(0.2)) {
        matrix.SetRow(j, jobs[j].current_allocation);
        continue;
      }
      for (size_t n = 0; n < nodes; ++n) {
        if (gen.Bernoulli(0.4)) {
          matrix.at(j, n) = static_cast<int>(gen.UniformInt(1, 12));
        }
      }
    }
    digest.AddDouble(scorer.Fitness(matrix));
    digest.AddDouble(scorer.Utility(matrix));
  }
  return digest.Hex();
}

TEST(GeneticGoldenTest, FitnessMatchesRecordedDigests) {
  const ClusterSpec flat = ClusterSpec::Homogeneous(8, 4);
  const ClusterSpec topology = WideTopology();
  EXPECT_EQ(ScoreDigest(flat, 0, 5), "80e07e51d54a59bd");
  EXPECT_EQ(ScoreDigest(flat, 1, 6), "68dfcd9839ca7d6e");
  EXPECT_EQ(ScoreDigest(flat, 2, 7), "8338ae3f918c291d");
  EXPECT_EQ(ScoreDigest(topology, 0, 8), "7cd56b46bfa6e4b5");
  EXPECT_EQ(ScoreDigest(topology, 1, 9), "f120ce3e372caa69");
  EXPECT_EQ(ScoreDigest(topology, 2, 10), "52dc1e21fb71f5a6");
}

// Two Optimize rounds (the second breeds from the persisted population):
// digests the best matrix, its fitness and utility, the persisted population
// and the master generator state after each round.
std::string OptimizeDigest(const ClusterSpec& cluster, int mix, uint64_t seed) {
  const double link = cluster.HasTopology() ? cluster.rack_link_factor : 1.0;
  const std::vector<SchedJobInfo> jobs = JobMix(mix, link);
  GeneticOptimizer ga(cluster, BaseOptions(seed));
  Digest digest;
  for (int round = 0; round < 2; ++round) {
    const GeneticOptimizer::Result result = ga.Optimize(jobs);
    digest.AddMatrix(result.best);
    digest.AddDouble(result.fitness);
    digest.AddDouble(result.utility);
    const GeneticOptimizer::State state = ga.GetState();
    for (const AllocationMatrix& matrix : state.population) {
      digest.AddMatrix(matrix);
    }
    digest.AddRng(state.rng);
  }
  return digest.Hex();
}

TEST(GeneticGoldenTest, OptimizeMatchesRecordedDigests) {
  const ClusterSpec flat = ClusterSpec::Homogeneous(8, 4);
  const ClusterSpec topology = WideTopology();
  EXPECT_EQ(OptimizeDigest(flat, 0, 7), "2633a2009cc09071");
  EXPECT_EQ(OptimizeDigest(flat, 1, 42), "9e1724d10d2124b5");
  EXPECT_EQ(OptimizeDigest(flat, 2, 12345), "63a43d044d594145");
  EXPECT_EQ(OptimizeDigest(topology, 0, 7), "df228230dfe86685");
  EXPECT_EQ(OptimizeDigest(topology, 1, 42), "05f6e75eae8c2c22");
  EXPECT_EQ(OptimizeDigest(topology, 2, 12345), "3e6d670a96cc5834");
}

}  // namespace
}  // namespace pollux
