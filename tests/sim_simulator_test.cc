#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "baselines/tiresias.h"
#include "bench/common.h"
#include "obs/metrics.h"
#include "sim/pollux_policy.h"
#include "sim_result_csv.h"
#include "workload/trace_gen.h"

namespace pollux {
namespace {

JobSpec MakeJob(uint64_t id, ModelKind model, double submit, int gpus, long batch) {
  JobSpec spec;
  spec.job_id = id;
  spec.model = model;
  spec.submit_time = submit;
  spec.requested_gpus = gpus;
  spec.batch_size = batch;
  return spec;
}

SchedConfig FastSchedConfig(uint64_t seed = 3) {
  SchedConfig config;
  config.ga.population_size = 16;
  config.ga.generations = 8;
  config.ga.seed = seed;
  return config;
}

SimOptions FastSimOptions(int nodes = 2, uint64_t seed = 1) {
  SimOptions options;
  options.cluster = ClusterSpec::Homogeneous(nodes, 4);
  options.seed = seed;
  options.tick = 1.0;
  return options;
}

TEST(SimulatorTest, SingleJobCompletesUnderPollux) {
  const SimOptions options = FastSimOptions();
  PolluxPolicy policy(options.cluster, FastSchedConfig());
  std::vector<JobSpec> trace = {MakeJob(0, ModelKind::kResNet18Cifar10, 0.0, 4, 512)};
  Simulator sim(options, trace, &policy);
  const SimResult result = sim.Run();
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_FALSE(result.timed_out);
  EXPECT_TRUE(result.jobs[0].completed);
  EXPECT_GT(result.jobs[0].Jct(), 0.0);
  EXPECT_GT(result.jobs[0].gpu_time, 0.0);
  EXPECT_GT(result.jobs[0].avg_goodput, 0.0);
  EXPECT_LE(result.jobs[0].avg_goodput, result.jobs[0].avg_throughput + 1e-9);
  EXPECT_GE(result.jobs[0].start_time, result.jobs[0].submit_time);
  EXPECT_EQ(result.makespan, result.jobs[0].finish_time);
}

TEST(SimulatorTest, DeterministicGivenSeed) {
  std::vector<JobSpec> trace = {MakeJob(0, ModelKind::kResNet18Cifar10, 0.0, 4, 512),
                                MakeJob(1, ModelKind::kNeuMFMovieLens, 100.0, 2, 1024)};
  auto run = [&]() {
    const SimOptions options = FastSimOptions(2, 9);
    PolluxPolicy policy(options.cluster, FastSchedConfig(4));
    Simulator sim(options, trace, &policy);
    return sim.Run();
  };
  const SimResult a = run();
  const SimResult b = run();
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].finish_time, b.jobs[i].finish_time);
    EXPECT_EQ(a.jobs[i].num_restarts, b.jobs[i].num_restarts);
  }
}

TEST(SimulatorTest, ModelErrorHistogramRepeatsAtAnyThreadsAndMovesNoBytes) {
  // model.iter_time_log_err compares each placed job's fresh theta_sys with
  // the hidden ground truth. It is recorded in the serial phase of a report
  // refresh, so its sum repeats bit for bit at any width, and turning the
  // registry on moves no output byte.
  std::vector<JobSpec> trace;
  for (uint64_t id = 0; id < 4; ++id) {
    const ModelKind model =
        id % 2 == 0 ? ModelKind::kResNet18Cifar10 : ModelKind::kNeuMFMovieLens;
    trace.push_back(MakeJob(id, model, 120.0 * static_cast<double>(id), 2, 512));
  }
  auto run = [&](int threads) {
    SimOptions options = FastSimOptions(2, 21);
    options.tick = 10.0;
    options.sched_threads = threads;
    PolluxPolicy policy(options.cluster, FastSchedConfig(7));
    return RenderJobsCsv(Simulator(options, trace, &policy).Run());
  };
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::Histogram* err = registry.GetHistogram("model.iter_time_log_err");
  registry.Reset();
  const std::string plain = run(1);
  EXPECT_EQ(err->count(), 0u);

  registry.SetEnabled(true);
  const std::string serial = run(1);
  const uint64_t count = err->count();
  const double sum = err->sum();
  registry.Reset();
  const std::string parallel = run(4);
  const uint64_t parallel_count = err->count();
  const double parallel_sum = err->sum();
  registry.SetEnabled(false);
  registry.Reset();

  EXPECT_GT(count, 0u);
  EXPECT_GT(sum, 0.0);
  EXPECT_EQ(parallel_count, count);
  EXPECT_EQ(parallel_sum, sum);
  EXPECT_EQ(serial, plain);
  EXPECT_EQ(parallel, plain);
}

TEST(SimulatorTest, TimelineNeverOvercommitsCluster) {
  const SimOptions options = FastSimOptions(2, 11);
  PolluxPolicy policy(options.cluster, FastSchedConfig(5));
  std::vector<JobSpec> trace;
  for (uint64_t id = 0; id < 4; ++id) {
    trace.push_back(MakeJob(id, ModelKind::kNeuMFMovieLens, 60.0 * static_cast<double>(id), 2,
                            2048));
  }
  Simulator sim(options, trace, &policy);
  const SimResult result = sim.Run();
  EXPECT_FALSE(result.timed_out);
  for (const auto& sample : result.timeline) {
    EXPECT_LE(sample.gpus_in_use, options.cluster.TotalGpus());
    EXPECT_GE(sample.mean_efficiency, 0.0);
    EXPECT_LE(sample.mean_efficiency, 1.0 + 1e-9);
    EXPECT_GE(sample.utility, 0.0);
    EXPECT_LE(sample.utility, 1.0 + 1e-9);
  }
}

TEST(SimulatorTest, PolluxJobExperiencesRestartsAsItScalesOut) {
  // A single scalable job starts on one GPU and doubles its footprint as the
  // exploration cap grows; each reallocation is a checkpoint-restart.
  const SimOptions options = FastSimOptions(2, 13);
  PolluxPolicy policy(options.cluster, FastSchedConfig(6));
  std::vector<JobSpec> trace = {MakeJob(0, ModelKind::kResNet18Cifar10, 0.0, 1, 128)};
  Simulator sim(options, trace, &policy);
  const SimResult result = sim.Run();
  EXPECT_GE(result.jobs[0].num_restarts, 1);
}

TEST(SimulatorTest, LargerRestartDelayNeverHelps) {
  std::vector<JobSpec> trace = {MakeJob(0, ModelKind::kResNet18Cifar10, 0.0, 1, 128)};
  auto run = [&](double delay) {
    SimOptions options = FastSimOptions(2, 17);
    options.restart_delay = delay;
    PolluxPolicy policy(options.cluster, FastSchedConfig(7));
    Simulator sim(options, trace, &policy);
    return sim.Run().jobs[0].Jct();
  };
  EXPECT_LE(run(0.0), run(300.0) + 1e-6);
}

TEST(SimulatorTest, InterferenceSlowsSharedDistributedJobs) {
  // Two 6-GPU jobs on a 3-node x 4-GPU cluster must share a node, making
  // both distributed jobs interfere.
  std::vector<JobSpec> trace = {MakeJob(0, ModelKind::kResNet18Cifar10, 0.0, 6, 1024),
                                MakeJob(1, ModelKind::kResNet18Cifar10, 0.0, 6, 1024)};
  auto run = [&](double slowdown) {
    SimOptions options = FastSimOptions(3, 19);
    options.interference_slowdown = slowdown;
    TiresiasPolicy policy;
    Simulator sim(options, trace, &policy);
    return sim.Run();
  };
  const SimResult clean = run(0.0);
  const SimResult interfered = run(0.5);
  ASSERT_TRUE(clean.jobs[0].completed);
  ASSERT_TRUE(interfered.jobs[0].completed);
  EXPECT_GT(interfered.JctSummary().mean, 1.2 * clean.JctSummary().mean);
}

TEST(SimulatorTest, TiresiasHonorsRequestedGpuCounts) {
  SimOptions options = FastSimOptions(2, 23);
  TiresiasPolicy policy;
  std::vector<JobSpec> trace = {MakeJob(0, ModelKind::kResNet18Cifar10, 0.0, 3, 512)};
  Simulator sim(options, trace, &policy);
  const SimResult result = sim.Run();
  EXPECT_TRUE(result.jobs[0].completed);
  // gpu_time / run duration ~= 3 GPUs held.
  const double held =
      result.jobs[0].gpu_time / (result.jobs[0].finish_time - result.jobs[0].start_time);
  EXPECT_NEAR(held, 3.0, 0.3);
}

TEST(SimulatorTest, JobsSubmittedLaterStartLater) {
  SimOptions options = FastSimOptions(2, 29);
  TiresiasPolicy policy;
  std::vector<JobSpec> trace = {MakeJob(0, ModelKind::kNeuMFMovieLens, 0.0, 2, 1024),
                                MakeJob(1, ModelKind::kNeuMFMovieLens, 1800.0, 2, 1024)};
  Simulator sim(options, trace, &policy);
  const SimResult result = sim.Run();
  EXPECT_GE(result.jobs[1].start_time, 1800.0);
  EXPECT_TRUE(result.jobs[1].completed);
}

// Regression: first-match once left a running job on GPUs that an earlier
// job's in-place growth had taken, when no node had room to re-place it. On
// this run the invariant checker aborted at t=15000 with 33 of 32 GPUs in
// use. Equivalent to
//   bench_hyperscale --nodes=8 --jobs=60 --duration_hours=6 --seed=1 --gen-trace=t.csv
//   pollux_simulate --trace=t.csv --nodes=8 --sched-mode=first-match --tick=60
//       --sched_interval=300 --report_interval=120 --seed=2 --check-invariants
TEST(FirstMatchRegressionTest, EightNodeHyperscaleTraceNeverOvercommits) {
  HyperTraceOptions trace_options;
  trace_options.num_nodes = 8;
  trace_options.num_jobs = 60;
  trace_options.duration = 6.0 * 3600.0;
  trace_options.seed = 1;
  const std::vector<JobSpec> trace = GenerateHyperscaleTrace(trace_options);
  BenchSimConfig config;
  config.nodes = 8;
  config.sched_mode = SchedMode::kFirstMatch;
  config.tick = 60.0;
  config.sched_interval = 300.0;
  config.report_interval = 120.0;
  config.seed = 2;
  config.check_invariants = true;  // Aborts on any capacity violation.
  const SimResult result = RunImportedTrace("pollux", config, trace);
  EXPECT_FALSE(result.timed_out);
  ASSERT_EQ(result.jobs.size(), trace.size());
  for (const auto& sample : result.timeline) {
    EXPECT_LE(sample.gpus_in_use, sample.total_gpus) << "t=" << sample.time;
  }
}

}  // namespace
}  // namespace pollux
