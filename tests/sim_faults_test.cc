// Fault injection and graceful degradation (the robustness subsystem):
// deterministic fault streams, node crash -> eviction -> re-queue with no job
// ever lost, straggler-inflated observations rejected by the robust fitter,
// report loss -> staleness clamping, checkpoint-restart retries with capped
// backoff, and the scheduler's known-feasible fallback when the GA result is
// unusable (infeasible or over its wall-clock budget).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/agent.h"
#include "core/model_fitter.h"
#include "core/sched.h"
#include "obs/metrics.h"
#include "sim/fault_injector.h"
#include "sim/netmodel.h"
#include "sim/pollux_policy.h"
#include "sim/simulator.h"
#include "tests/sim_result_csv.h"
#include "workload/trace_gen.h"

namespace pollux {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector unit tests.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, NextTransitionTimeIsInfiniteWhenAllFaultsDisabled) {
  FaultOptions options;  // Every knob zero.
  FaultInjector injector(options, 4, 42);
  EXPECT_TRUE(std::isinf(injector.NextTransitionTime()));
  EXPECT_TRUE(injector.Poll(1e12).empty());
  EXPECT_EQ(injector.PollSchedulerCrashes(1e12), 0);
  // Bernoulli-only fault classes never arm a transition either: the event
  // engine must not schedule fault polls for them.
  options.report_drop_rate = 0.5;
  options.restart_fail_rate = 0.5;
  FaultInjector bernoulli_only(options, 4, 42);
  EXPECT_TRUE(std::isinf(bernoulli_only.NextTransitionTime()));
  EXPECT_TRUE(bernoulli_only.Poll(1e12).empty());
  EXPECT_EQ(bernoulli_only.PollSchedulerCrashes(1e12), 0);
}

TEST(FaultInjectorTest, NextTransitionTimeZeroMtbfDisablesEachClassIndependently) {
  FaultOptions node_only;
  node_only.mtbf_node = 500.0;
  FaultInjector nodes(node_only, 2, 7);
  EXPECT_TRUE(std::isfinite(nodes.NextTransitionTime()));
  EXPECT_EQ(nodes.PollSchedulerCrashes(1e12), 0);

  FaultOptions sched_only;
  sched_only.mtbf_sched = 500.0;
  FaultInjector sched(sched_only, 2, 7);
  EXPECT_TRUE(std::isfinite(sched.NextTransitionTime()));
  EXPECT_TRUE(sched.Poll(1e12).empty());
  EXPECT_GT(sched.PollSchedulerCrashes(1e6), 0);
}

TEST(FaultInjectorTest, NextTransitionTimeTracksEarliestArmedTransition) {
  FaultOptions options;
  options.mtbf_node = 300.0;
  options.repair_time = 60.0;
  options.mtbf_sched = 700.0;
  FaultInjector injector(options, 4, 11);
  const double next = injector.NextTransitionTime();
  ASSERT_TRUE(std::isfinite(next));
  ASSERT_GT(next, 0.0);
  // Nothing fires strictly before the armed time...
  EXPECT_TRUE(injector.Poll(std::nextafter(next, 0.0)).empty());
  EXPECT_EQ(injector.PollSchedulerCrashes(std::nextafter(next, 0.0)), 0);
  // ...polling exactly at it consumes it (node transition or sched crash)...
  const size_t node_fires = injector.Poll(next).size();
  const int sched_fires = injector.PollSchedulerCrashes(next);
  EXPECT_GE(node_fires + static_cast<size_t>(sched_fires), 1u);
  // ...and the armed time then moves strictly past the consumed one.
  EXPECT_GT(injector.NextTransitionTime(), next);
}

TEST(FaultInjectorTest, DegenerateTinyMtbfTerminatesAndAlternates) {
  FaultOptions options;
  options.mtbf_node = 1e-3;   // Crash almost immediately, always.
  options.repair_time = 1e-3;  // Clamped internally so retries terminate.
  FaultInjector injector(options, 1, 3);
  const auto transitions = injector.Poll(30.0);
  ASSERT_FALSE(transitions.empty());
  bool failed = false;
  for (const auto& transition : transitions) {
    EXPECT_EQ(transition.node, 0);
    EXPECT_NE(transition.failed, failed);  // Strict crash/repair alternation.
    failed = transition.failed;
  }
  EXPECT_EQ(injector.NodeFailed(0), failed);
  EXPECT_GT(injector.NextTransitionTime(), 30.0);
}

TEST(FaultInjectorTest, TransitionExactlyOnTickBoundaryFiresOnceInclusively) {
  FaultOptions options;
  options.mtbf_node = 100.0;
  options.repair_time = 25.0;
  FaultInjector injector(options, 1, 5);
  FaultInjector::State state = injector.GetState();
  state.nodes[0].next_transition = 10.0;  // Exactly on the 1 s tick grid.
  injector.SetState(state);
  // The tick *before* the boundary sees nothing; the boundary tick fires it
  // (Poll is inclusive, matching the simulator's "due at exactly t" handling).
  EXPECT_TRUE(injector.Poll(9.0).empty());
  const auto fired = injector.Poll(10.0);
  ASSERT_FALSE(fired.empty());
  EXPECT_EQ(fired[0].node, 0);
  EXPECT_TRUE(fired[0].failed);
  // Re-polling the same boundary replays nothing.
  EXPECT_TRUE(injector.Poll(10.0).empty());
}

TEST(FaultInjectorTest, SchedulerCrashBoundaryIsInclusiveAndRearms) {
  FaultOptions options;
  options.mtbf_sched = 400.0;
  FaultInjector injector(options, 1, 13);
  FaultInjector::State state = injector.GetState();
  state.next_sched_crash = 60.0;  // Exactly on a scheduling-round boundary.
  injector.SetState(state);
  EXPECT_EQ(injector.PollSchedulerCrashes(59.0), 0);
  EXPECT_GE(injector.PollSchedulerCrashes(60.0), 1);
  EXPECT_EQ(injector.PollSchedulerCrashes(60.0), 0);
  EXPECT_GT(injector.NextTransitionTime(), 60.0);
}

TEST(FaultInjectorTest, SchedulerCrashStreamDoesNotPerturbNodeStreams) {
  FaultOptions node_only;
  node_only.mtbf_node = 200.0;
  node_only.repair_time = 50.0;
  FaultOptions with_sched = node_only;
  with_sched.mtbf_sched = 500.0;
  FaultInjector a(node_only, 4, 42);
  FaultInjector b(with_sched, 4, 42);
  for (double t : {250.0, 1000.0, 4000.0}) {
    const auto ta = a.Poll(t);
    const auto tb = b.Poll(t);
    ASSERT_EQ(ta.size(), tb.size()) << "t=" << t;
    for (size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(ta[i].node, tb[i].node);
      EXPECT_EQ(ta[i].failed, tb[i].failed);
    }
  }
  EXPECT_GT(b.PollSchedulerCrashes(1e6), 0);
}

TEST(FaultInjectorTest, LazyGridPollingMatchesPerTickPolling) {
  // The simulator polls faults only at the tick-grid point covering
  // NextTransitionTime. That must see the same transitions in the same order
  // with the same RNG draws as polling every tick.
  FaultOptions options;
  options.mtbf_node = 150.0;
  options.repair_time = 40.0;
  options.mtbf_sched = 400.0;
  const double tick = 1.0;
  const double horizon = 2000.0;
  FaultInjector dense(options, 3, 9);
  FaultInjector lazy(options, 3, 9);
  std::vector<FaultInjector::NodeTransition> dense_log;
  std::vector<FaultInjector::NodeTransition> lazy_log;
  int dense_crashes = 0;
  int lazy_crashes = 0;
  for (double t = tick; t <= horizon; t += tick) {
    for (const auto& transition : dense.Poll(t)) {
      dense_log.push_back(transition);
    }
    dense_crashes += dense.PollSchedulerCrashes(t);
  }
  while (true) {
    const double next = lazy.NextTransitionTime();
    if (!std::isfinite(next)) {
      break;
    }
    const double grid = std::ceil(next / tick) * tick;
    if (grid > horizon) {
      break;
    }
    for (const auto& transition : lazy.Poll(grid)) {
      lazy_log.push_back(transition);
    }
    lazy_crashes += lazy.PollSchedulerCrashes(grid);
  }
  ASSERT_EQ(lazy_log.size(), dense_log.size());
  for (size_t i = 0; i < dense_log.size(); ++i) {
    EXPECT_EQ(lazy_log[i].node, dense_log[i].node) << i;
    EXPECT_EQ(lazy_log[i].failed, dense_log[i].failed) << i;
  }
  EXPECT_EQ(lazy_crashes, dense_crashes);
}

TEST(FaultOptionsTest, DisabledByDefaultAndProfilesParse) {
  FaultOptions options;
  EXPECT_FALSE(options.enabled());

  EXPECT_TRUE(FaultProfileByName("none", &options));
  EXPECT_FALSE(options.enabled());
  EXPECT_TRUE(FaultProfileByName("light", &options));
  EXPECT_TRUE(options.enabled());
  EXPECT_GT(options.mtbf_node, 0.0);
  EXPECT_TRUE(FaultProfileByName("heavy", &options));
  EXPECT_TRUE(options.enabled());
  EXPECT_FALSE(FaultProfileByName("catastrophic", &options));
}

TEST(FaultInjectorTest, TransitionsAreDeterministicPerSeed) {
  FaultOptions options;
  options.mtbf_node = 200.0;
  options.repair_time = 50.0;
  FaultInjector a(options, 4, 42);
  FaultInjector b(options, 4, 42);
  for (double t : {100.0, 500.0, 1000.0, 5000.0}) {
    const auto ta = a.Poll(t);
    const auto tb = b.Poll(t);
    ASSERT_EQ(ta.size(), tb.size()) << "t=" << t;
    for (size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(ta[i].node, tb[i].node);
      EXPECT_EQ(ta[i].failed, tb[i].failed);
    }
  }
}

TEST(FaultInjectorTest, PollTogglesPerNodeStateInOrder) {
  FaultOptions options;
  options.mtbf_node = 100.0;
  options.repair_time = 20.0;
  FaultInjector injector(options, 3, 7);
  std::vector<bool> failed(3, false);
  const auto transitions = injector.Poll(5000.0);
  ASSERT_FALSE(transitions.empty());
  for (const auto& transition : transitions) {
    ASSERT_GE(transition.node, 0);
    ASSERT_LT(transition.node, 3);
    // Each transition flips that node's state.
    EXPECT_NE(transition.failed, failed[static_cast<size_t>(transition.node)]);
    failed[static_cast<size_t>(transition.node)] = transition.failed;
  }
  for (int n = 0; n < 3; ++n) {
    EXPECT_EQ(injector.NodeFailed(n), failed[static_cast<size_t>(n)]);
  }
  // Polling the same instant again replays nothing.
  EXPECT_TRUE(injector.Poll(5000.0).empty());
}

TEST(FaultInjectorTest, StragglersSlowOnlyJobsTouchingThem) {
  FaultOptions all;
  all.straggler_frac = 1.0;
  all.straggler_slowdown = 2.0;
  FaultInjector everywhere(all, 2, 1);
  EXPECT_DOUBLE_EQ(everywhere.JobSlowdown({4, 0}), 2.0);
  EXPECT_DOUBLE_EQ(everywhere.JobSlowdown({0, 0}), 1.0);

  FaultOptions none;
  none.straggler_frac = 0.0;
  none.report_drop_rate = 0.01;  // Keep enabled() true.
  FaultInjector nowhere(none, 2, 1);
  EXPECT_DOUBLE_EQ(nowhere.JobSlowdown({4, 4}), 1.0);
}

TEST(FaultInjectorTest, RestartFailureRateIsClampedSoRetriesTerminate) {
  FaultOptions options;
  options.restart_fail_rate = 1.0;  // Clamped to 0.95 internally.
  FaultInjector injector(options, 1, 9);
  int failures = 0;
  while (injector.RestartFails() && failures < 10000) {
    ++failures;
  }
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, 10000);
}

TEST(FaultInjectorTest, ResizeKeepsSurvivorsAndAddsFreshNodes) {
  FaultOptions options;
  options.mtbf_node = 100.0;
  options.repair_time = 1e9;  // Crashes never repair within the test.
  FaultInjector injector(options, 2, 3);
  injector.Poll(1000.0);
  const bool node0 = injector.NodeFailed(0);
  const bool node1 = injector.NodeFailed(1);
  injector.OnClusterResize(4, 1000.0);
  EXPECT_EQ(injector.NodeFailed(0), node0);
  EXPECT_EQ(injector.NodeFailed(1), node1);
  EXPECT_FALSE(injector.NodeFailed(2));  // New nodes start healthy.
  EXPECT_FALSE(injector.NodeFailed(3));
  injector.OnClusterResize(1, 1000.0);
  EXPECT_EQ(injector.num_failed_nodes(), node0 ? 1 : 0);
}

// ---------------------------------------------------------------------------
// Robust estimation: MAD outlier rejection and the divergence guard.
// ---------------------------------------------------------------------------

ThroughputParams FitterGroundTruth() {
  ThroughputParams params;
  params.alpha_grad = 0.04;
  params.beta_grad = 3e-4;
  params.alpha_sync_local = 0.02;
  params.beta_sync_local = 0.001;
  params.alpha_sync_node = 0.08;
  params.beta_sync_node = 0.004;
  params.gamma = 1.8;
  return params;
}

std::vector<ThroughputObservation> CleanObservations(const ThroughputParams& truth) {
  std::vector<ThroughputObservation> data;
  for (int k : {1, 2, 4, 8}) {
    for (int n : {1, 2}) {
      if (n == 2 && k < 2) {
        continue;
      }
      for (long m : {128L, 512L, 2048L}) {
        ThroughputObservation obs;
        obs.placement = Placement{k, n};
        obs.batch_size = m;
        obs.iter_time = IterTime(truth, obs.placement, static_cast<double>(m));
        data.push_back(obs);
      }
    }
  }
  return data;
}

TEST(RobustFitterTest, MadRejectionRemovesStragglerInflatedObservations) {
  const auto truth = FitterGroundTruth();
  auto data = CleanObservations(truth);
  // A straggler node inflates a handful of configurations well above the
  // surface the rest of the data agrees on.
  for (size_t i : {2u, 9u, 15u}) {
    data[i].iter_time *= 2.5;
  }
  FitOptions options;
  options.max_gpus_seen = 8;
  options.max_nodes_seen = 2;
  options.multi_starts = 4;

  const FitResult naive = FitThroughputParams(data, options);
  EXPECT_EQ(naive.outliers_rejected, 0);

  options.outlier_mad_threshold = 3.5;
  const FitResult robust = FitThroughputParams(data, options);
  EXPECT_GE(robust.outliers_rejected, 1);
  EXPECT_LE(robust.outliers_rejected, 3);
  // The refit on survivors explains the clean surface better than the naive
  // fit that had to compromise with the inflated points.
  const auto clean = CleanObservations(truth);
  EXPECT_LT(ThroughputRmsle(robust.params, clean), ThroughputRmsle(naive.params, clean));
}

TEST(RobustFitterTest, CleanDataIsNotRejected) {
  const auto data = CleanObservations(FitterGroundTruth());
  FitOptions options;
  options.max_gpus_seen = 8;
  options.max_nodes_seen = 2;
  options.outlier_mad_threshold = 3.5;
  const FitResult fit = FitThroughputParams(data, options);
  EXPECT_EQ(fit.outliers_rejected, 0);
}

TEST(RobustAgentTest, DivergenceGuardKeepsPreviousTheta) {
  AgentConfig config;
  config.robust_fitting = true;
  config.outlier_mad_threshold = 0.0;  // Isolate the guard from rejection.
  config.max_fit_rmsle = 1e-9;         // Any real fit residual trips it.
  BatchLimits limits;
  limits.min_batch = 64;
  limits.max_batch_total = 8192;
  limits.max_batch_per_gpu = 1024;
  PolluxAgent agent(1, 128, 0.1, limits, config);
  const ThroughputParams prior = agent.model().params();
  agent.NotifyAllocation(Placement{2, 1});
  // Inconsistent telemetry: identical configurations with wildly different
  // iteration times cannot be fit below the (absurdly strict) threshold.
  agent.RecordIteration(Placement{1, 1}, 128, 0.1);
  agent.RecordIteration(Placement{2, 1}, 256, 5.0);
  agent.RecordIteration(Placement{2, 1}, 512, 0.01);
  agent.RecordIteration(Placement{1, 1}, 1024, 3.0);
  (void)agent.MakeReport();
  EXPECT_GE(agent.fits_rejected(), 1);
  // The model still carries the prior instead of the diverged fit.
  EXPECT_DOUBLE_EQ(agent.model().params().beta_grad, prior.beta_grad);
  EXPECT_DOUBLE_EQ(agent.model().params().gamma, prior.gamma);
}

TEST(RobustAgentTest, ReasonableFitsAreAcceptedUnderDefaultGuard) {
  AgentConfig config;
  config.robust_fitting = true;  // Default max_fit_rmsle = 1.5.
  BatchLimits limits;
  limits.min_batch = 64;
  limits.max_batch_total = 8192;
  limits.max_batch_per_gpu = 1024;
  PolluxAgent agent(1, 128, 0.1, limits, config);
  agent.NotifyAllocation(Placement{4, 1});
  const auto truth = FitterGroundTruth();
  for (const auto& obs : CleanObservations(truth)) {
    if (obs.placement.num_nodes == 1 && obs.placement.num_gpus <= 4) {
      agent.RecordIteration(obs.placement, obs.batch_size, obs.iter_time);
    }
  }
  (void)agent.MakeReport();
  EXPECT_EQ(agent.fits_rejected(), 0);
}

// ---------------------------------------------------------------------------
// Scheduler fallback: feasibility validation, projection, wall-clock budget.
// ---------------------------------------------------------------------------

GoodputModel SchedModel(double phi = 1000.0) {
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

SchedJobReport SchedReport(uint64_t id, int cap = 16) {
  SchedJobReport report;
  report.agent.job_id = id;
  report.agent.model = SchedModel();
  report.agent.limits.min_batch = 128;
  report.agent.limits.max_batch_total = 16384;
  report.agent.limits.max_batch_per_gpu = 1024;
  report.agent.max_gpus_cap = cap;
  return report;
}

SchedConfig SchedSmallConfig() {
  SchedConfig config;
  config.ga.population_size = 16;
  config.ga.generations = 10;
  config.ga.seed = 5;
  return config;
}

TEST(SchedFallbackTest, AllocationsFeasibleDetectsViolations) {
  const ClusterSpec cluster{{4, 0, 2}};  // Node 1 is failed (masked to zero).
  EXPECT_TRUE(PolluxSched::AllocationsFeasible(cluster, {}));
  EXPECT_TRUE(PolluxSched::AllocationsFeasible(cluster, {{1, {4, 0, 0}}, {2, {0, 0, 2}}}));
  // Over-committed node.
  EXPECT_FALSE(PolluxSched::AllocationsFeasible(cluster, {{1, {3, 0, 0}}, {2, {2, 0, 0}}}));
  // GPUs on the failed node.
  EXPECT_FALSE(PolluxSched::AllocationsFeasible(cluster, {{1, {0, 1, 0}}}));
  // Negative entries and rows wider than the cluster.
  EXPECT_FALSE(PolluxSched::AllocationsFeasible(cluster, {{1, {-1, 0, 0}}}));
  EXPECT_FALSE(PolluxSched::AllocationsFeasible(cluster, {{1, {1, 0, 0, 1}}}));
}

TEST(SchedFallbackTest, TinyBudgetFallsBackToProjectedAllocations) {
  PolluxSched normal(ClusterSpec::Homogeneous(2, 4), SchedSmallConfig());
  EXPECT_FALSE(normal.Schedule({SchedReport(1)}).empty());
  EXPECT_EQ(normal.fallback_rounds(), 0u);

  SchedConfig config = SchedSmallConfig();
  config.round_time_budget = 1e-12;  // Any real round overruns this.
  PolluxSched sched(ClusterSpec::Homogeneous(2, 4), config);
  SchedJobReport report = SchedReport(1);
  report.current_allocation = {2, 1};
  const auto allocations = sched.Schedule({report});
  EXPECT_GE(sched.fallback_rounds(), 1u);
  // The fallback is exactly the current allocation (it fits the cluster).
  ASSERT_EQ(allocations.size(), 1u);
  EXPECT_EQ(allocations.at(1), (std::vector<int>{2, 1}));
}

TEST(SchedFallbackTest, ProjectionDropsFailedNodesAndTrimsToCapacity) {
  const ClusterSpec degraded{{0, 4}};  // Node 0 crashed.
  PolluxSched sched(degraded, SchedSmallConfig());
  SchedJobReport a = SchedReport(1);
  a.current_allocation = {2, 2};
  SchedJobReport b = SchedReport(2);
  b.current_allocation = {0, 3};
  const auto projected = sched.ProjectOntoCluster({a, b});
  EXPECT_EQ(projected.at(1), (std::vector<int>{0, 2}));
  // Job 2 is trimmed to the remaining capacity on the surviving node.
  EXPECT_EQ(projected.at(2), (std::vector<int>{0, 2}));
  EXPECT_TRUE(PolluxSched::AllocationsFeasible(degraded, projected));
}

TEST(SchedFallbackTest, StaleReportClampsJobToItsCurrentSize) {
  PolluxSched sched(ClusterSpec::Homogeneous(2, 4), SchedSmallConfig());
  SchedJobReport report = SchedReport(1, /*cap=*/16);
  report.current_allocation = {1, 0};
  report.report_age = 600.0;  // Far past the default stale_report_age.
  const auto allocations = sched.Schedule({report});
  int total = 0;
  for (int g : allocations.at(1)) {
    total += g;
  }
  // A stale job is never grown past its current single GPU.
  EXPECT_LE(total, 1);

  // The same job with fresh telemetry expands onto the idle cluster.
  report.report_age = 0.0;
  PolluxSched fresh(ClusterSpec::Homogeneous(2, 4), SchedSmallConfig());
  const auto grown = fresh.Schedule({report});
  int grown_total = 0;
  for (int g : grown.at(1)) {
    grown_total += g;
  }
  EXPECT_GT(grown_total, 1);
}

// ---------------------------------------------------------------------------
// End-to-end simulator runs under injected faults.
// ---------------------------------------------------------------------------

std::vector<JobSpec> FaultTrace(uint64_t seed, int num_jobs = 10) {
  TraceOptions options;
  options.num_jobs = num_jobs;
  options.duration = 1800.0;
  options.max_gpus = 8;
  options.seed = seed;
  auto jobs = GenerateTrace(options);
  for (auto& job : jobs) {
    // Keep runtimes short so the fault sweep stays fast.
    if (job.model != ModelKind::kResNet18Cifar10 && job.model != ModelKind::kNeuMFMovieLens) {
      job.model = ModelKind::kNeuMFMovieLens;
      job.batch_size = 2048;
      job.requested_gpus = std::min(job.requested_gpus, 4);
    }
  }
  return jobs;
}

SimResult RunFaultSim(const FaultOptions& faults, uint64_t seed, const NetOptions& net = {},
                      int sched_threads = 1) {
  SimOptions options;
  options.cluster = ClusterSpec::Homogeneous(2, 4);
  options.seed = seed;
  options.faults = faults;
  options.net = net;
  options.sched_threads = sched_threads;
  options.check_invariants = true;
  SchedConfig sched_config;
  sched_config.ga.population_size = 12;
  sched_config.ga.generations = 6;
  sched_config.ga.seed = seed;
  if (net.enabled()) {
    sched_config.lease_intervals = net.lease_intervals;
    sched_config.lease_grace = net.lease_grace;
    sched_config.degraded_coverage = net.degraded_coverage;
  }
  PolluxPolicy policy(options.cluster, sched_config);
  return Simulator(options, FaultTrace(seed), &policy).Run();
}

int CountEvents(const SimResult& result, SimEventKind kind) {
  int count = 0;
  for (const auto& event : result.events) {
    count += event.kind == kind ? 1 : 0;
  }
  return count;
}

TEST(SimFaultsTest, NodeCrashEvictsRequeuesAndLosesNoJob) {
  FaultOptions faults;
  faults.mtbf_node = 1500.0;
  faults.repair_time = 120.0;
  const SimResult result = RunFaultSim(faults, 1);
  EXPECT_FALSE(result.timed_out);
  EXPECT_GE(CountEvents(result, SimEventKind::kNodeFail), 1);
  // Every eviction is logged, and evicted jobs were re-queued and finished:
  // no job is ever lost.
  int evictions = 0;
  ASSERT_EQ(result.jobs.size(), 10u);
  for (const auto& job : result.jobs) {
    EXPECT_TRUE(job.completed) << "job " << job.job_id;
    evictions += job.num_evictions;
  }
  EXPECT_EQ(evictions, CountEvents(result, SimEventKind::kEvict));
  EXPECT_GE(evictions, 1);
}

TEST(SimFaultsTest, DeterministicPerSeedUnderFaults) {
  FaultOptions faults;
  faults.mtbf_node = 1500.0;
  faults.repair_time = 120.0;
  faults.straggler_frac = 0.5;
  faults.report_drop_rate = 0.2;
  faults.restart_fail_rate = 0.3;
  const SimResult a = RunFaultSim(faults, 2);
  const SimResult b = RunFaultSim(faults, 2);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].finish_time, b.jobs[i].finish_time);
    EXPECT_EQ(a.jobs[i].gpu_time, b.jobs[i].gpu_time);
    EXPECT_EQ(a.jobs[i].num_evictions, b.jobs[i].num_evictions);
    EXPECT_EQ(a.jobs[i].num_restart_failures, b.jobs[i].num_restart_failures);
    EXPECT_EQ(a.jobs[i].backoff_seconds, b.jobs[i].backoff_seconds);
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(static_cast<int>(a.events[i].kind), static_cast<int>(b.events[i].kind));
    EXPECT_EQ(a.events[i].job_id, b.events[i].job_id);
  }
}

// The report refresh runs the agents' theta_sys fits and batch-size tuning on
// a pool as wide as SimOptions::sched_threads. With report drops, a lossy net
// and robust fits on straggler data all active, the jobs and events CSVs must
// not depend on the pool width, and the wide run must really use the pool
// (the GA runs single-threaded here, so every pool task is a refresh task).
TEST(SimFaultsTest, RefreshIsByteIdenticalAtOneAndFourThreads) {
  FaultOptions faults;
  faults.mtbf_node = 1500.0;
  faults.repair_time = 120.0;
  faults.straggler_frac = 0.5;
  faults.report_drop_rate = 0.2;
  NetOptions net;
  ASSERT_TRUE(NetProfileByName("flaky", &net));

  const SimResult serial = RunFaultSim(faults, 2, net, /*sched_threads=*/1);
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter* const tasks = registry.GetCounter("threadpool.tasks");
  registry.SetEnabled(true);
  const uint64_t tasks_before = tasks->value();
  const SimResult pooled = RunFaultSim(faults, 2, net, /*sched_threads=*/4);
  const uint64_t tasks_after = tasks->value();
  registry.SetEnabled(false);

  EXPECT_GT(tasks_after, tasks_before);
  EXPECT_GE(CountEvents(serial, SimEventKind::kReportDrop), 1);
  EXPECT_EQ(RenderJobsCsv(pooled), RenderJobsCsv(serial));
  EXPECT_EQ(RenderEventsCsv(pooled), RenderEventsCsv(serial));
}

TEST(SimFaultsTest, DroppedReportsAreLoggedAndJobsStillFinish) {
  FaultOptions faults;
  faults.report_drop_rate = 1.0;  // Every periodic report is lost.
  const SimResult result = RunFaultSim(faults, 3);
  EXPECT_FALSE(result.timed_out);
  EXPECT_GE(CountEvents(result, SimEventKind::kReportDrop), 1);
  for (const auto& job : result.jobs) {
    EXPECT_TRUE(job.completed) << "job " << job.job_id;
  }
}

TEST(SimFaultsTest, RestartRetriesAccumulateBackoff) {
  FaultOptions faults;
  faults.restart_fail_rate = 0.6;
  const SimResult result = RunFaultSim(faults, 4);
  EXPECT_FALSE(result.timed_out);
  int failures = 0;
  double backoff = 0.0;
  for (const auto& job : result.jobs) {
    EXPECT_TRUE(job.completed) << "job " << job.job_id;
    failures += job.num_restart_failures;
    backoff += job.backoff_seconds;
    // Backoff only accrues alongside failures, starting at the initial value.
    if (job.num_restart_failures > 0) {
      EXPECT_GE(job.backoff_seconds, faults.restart_backoff_init);
    } else {
      EXPECT_DOUBLE_EQ(job.backoff_seconds, 0.0);
    }
  }
  EXPECT_GE(failures, 1);
  EXPECT_GT(backoff, 0.0);
  EXPECT_EQ(failures, CountEvents(result, SimEventKind::kRestartFailure));
}

TEST(SimFaultsTest, ZeroFaultKnobsAreByteIdenticalToPlainRuns) {
  // All knobs zero: no injector is constructed, so the trace must be
  // byte-identical to a run that never mentions faults — including with the
  // invariant checker enabled (observation must not perturb the system).
  SimOptions plain;
  plain.cluster = ClusterSpec::Homogeneous(2, 4);
  plain.seed = 1;
  SchedConfig sched_config;
  sched_config.ga.population_size = 12;
  sched_config.ga.generations = 6;
  sched_config.ga.seed = 1;
  PolluxPolicy policy_a(plain.cluster, sched_config);
  const SimResult a = Simulator(plain, FaultTrace(1), &policy_a).Run();

  SimOptions checked = plain;
  checked.faults = FaultOptions{};  // Explicit zeros.
  checked.check_invariants = true;
  PolluxPolicy policy_b(checked.cluster, sched_config);
  const SimResult b = Simulator(checked, FaultTrace(1), &policy_b).Run();

  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].finish_time, b.jobs[i].finish_time);
    EXPECT_EQ(a.jobs[i].gpu_time, b.jobs[i].gpu_time);
    EXPECT_EQ(a.jobs[i].num_restarts, b.jobs[i].num_restarts);
    EXPECT_EQ(a.jobs[i].num_evictions, 0);
    EXPECT_EQ(b.jobs[i].num_evictions, 0);
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(static_cast<int>(a.events[i].kind), static_cast<int>(b.events[i].kind));
  }
}

}  // namespace
}  // namespace pollux
