// Microbenchmarks (google-benchmark) for the hot paths that bound
// PolluxSched's 60-second scheduling budget: goodput evaluation, batch-size
// optimization, speedup-table construction, genetic-algorithm rounds, online
// model fitting, the event-queue engine primitives, and the binary codec that
// every pollux_schedd checkpoint and wire frame goes through.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "core/genetic.h"
#include "core/gns.h"
#include "core/goodput.h"
#include "core/model_fitter.h"
#include "core/speedup_table.h"
#include "service/tenant.h"
#include "sim/checkpoint.h"
#include "sim/engine/event_queue.h"
#include "util/rng.h"
#include "workload/trace_gen.h"

namespace pollux {
namespace {

GoodputModel TypicalModel() {
  ThroughputParams params{0.05, 2e-4, 0.03, 0.002, 0.1, 0.005, 2.0};
  return GoodputModel(params, 1000.0, 128);
}

BatchLimits TypicalLimits() { return BatchLimits{128, 16384, 1024}; }

void BM_GoodputEval(benchmark::State& state) {
  const GoodputModel model = TypicalModel();
  double batch = 512.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.GoodputAt(Placement{8, 2}, batch));
    batch = batch < 8192.0 ? batch + 1.0 : 512.0;
  }
}
BENCHMARK(BM_GoodputEval);

void BM_OptimizeBatchSize(benchmark::State& state) {
  const GoodputModel model = TypicalModel();
  const BatchLimits limits = TypicalLimits();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.OptimizeBatchSize(Placement{8, 2}, limits));
  }
}
BENCHMARK(BM_OptimizeBatchSize);

// One table build: a batch-size optimization per grid point and regime.
void BM_SpeedupTableBuild(benchmark::State& state) {
  const GoodputModel model = TypicalModel();
  const BatchLimits limits = TypicalLimits();
  const int max_gpus = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SpeedupTable table(model, limits, max_gpus);
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_SpeedupTableBuild)->ArgName("gpus")->Arg(8)->Arg(64);

// One GA scheduling round, parameterized over job count and worker threads.
// threads > 1 exercises the ThreadPool path (same allocations, see
// core_genetic_determinism_test).
void BM_GeneticRound(benchmark::State& state) {
  const int num_jobs = static_cast<int>(state.range(0));
  std::vector<SchedJobInfo> jobs;
  for (int j = 0; j < num_jobs; ++j) {
    SchedJobInfo info;
    info.job_id = static_cast<uint64_t>(j);
    info.speedups = SpeedupTable(TypicalModel(), TypicalLimits(), 16);
    info.max_gpus_cap = 16;
    jobs.push_back(std::move(info));
  }
  GaOptions options;
  options.population_size = 40;
  options.generations = 1;  // Cost per generation.
  options.threads = static_cast<int>(state.range(1));
  GeneticOptimizer ga(ClusterSpec::Homogeneous(16, 4), options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ga.Optimize(jobs));
  }
}
BENCHMARK(BM_GeneticRound)
    ->ArgNames({"jobs", "threads"})
    ->Args({10, 1})
    ->Args({40, 1})
    ->Args({160, 1})
    ->Args({160, 2})
    ->Args({160, 4})
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// One round's worth of GA offspring shaped like perfbench sim-exact-160: 15
// jobs on 16x4 GPUs, every job holding GPUs on its own node, exploration caps
// at twice the GPUs held, and tables sized as PolluxSched sizes them. The
// offspring are crossed and mutated from perturbed incumbents but not yet
// repaired, which is what RepairWith sees inside a generation.
struct GaRoundFixture {
  GaRoundFixture() : ga(ClusterSpec::Homogeneous(16, 4), GaOptions{}) {
    const ClusterSpec& cluster = ga.cluster();
    AllocationMatrix incumbent(15, 16);
    for (size_t j = 0; j < 15; ++j) {
      const int held = j % 3 == 0 ? 4 : (j % 3 == 1 ? 2 : 1);
      SchedJobInfo info;
      info.job_id = j;
      info.max_gpus_cap = 2 * held;
      info.speedups = SpeedupTable(TypicalModel(), TypicalLimits(),
                                   std::min(cluster.TotalGpus(), info.max_gpus_cap));
      info.current_allocation.assign(16, 0);
      info.current_allocation[j] = held;
      incumbent.SetRow(j, info.current_allocation);
      jobs.push_back(std::move(info));
    }
    std::vector<AllocationMatrix> parents(40, incumbent);
    for (AllocationMatrix& parent : parents) {
      ga.Mutate(parent);
      ga.Repair(parent, jobs);
    }
    for (size_t i = 0; i < 256; ++i) {
      AllocationMatrix child = ga.Crossover(parents[i % 40], parents[(i * 7 + 3) % 40]);
      ga.Mutate(child);
      offspring.push_back(std::move(child));
    }
  }
  GeneticOptimizer ga;
  std::vector<SchedJobInfo> jobs;
  std::vector<AllocationMatrix> offspring;
};

// Repair of one offspring (capacity, exploration caps, interference).
void BM_GaRepair(benchmark::State& state) {
  GaRoundFixture round;
  size_t i = 0;
  for (auto _ : state) {
    AllocationMatrix child = round.offspring[i];
    round.ga.Repair(child, round.jobs);
    benchmark::DoNotOptimize(child);
    i = (i + 1) % round.offspring.size();
  }
}
BENCHMARK(BM_GaRepair);

// Fitness (Eqn. 14) of one repaired offspring; the scorer is built once per
// round, outside the timed loop.
void BM_GaFitness(benchmark::State& state) {
  GaRoundFixture round;
  for (AllocationMatrix& child : round.offspring) {
    round.ga.Repair(child, round.jobs);
  }
  const FitnessScorer scorer(round.jobs, round.ga.cluster(), 0.25);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.Fitness(round.offspring[i]));
    i = (i + 1) % round.offspring.size();
  }
}
BENCHMARK(BM_GaFitness);

// One full scheduling round on the GaRoundFixture shape: 25 generations of
// 40 offspring, as PolluxSched runs them on sim-exact-160, at 1/2/4 threads.
// Each iteration starts from the population the previous one persisted.
void BM_GaRound(benchmark::State& state) {
  GaRoundFixture round;
  GaOptions options;
  options.population_size = 40;
  options.generations = 25;
  options.threads = static_cast<int>(state.range(0));
  GeneticOptimizer ga(round.ga.cluster(), options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ga.Optimize(round.jobs));
  }
}
BENCHMARK(BM_GaRound)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// UniformInt over the small spans the GA draws (reservoir picks, node and
// GPU-count choices): 1 to 16 values.
void BM_RngUniformInt(benchmark::State& state) {
  Rng rng(11);
  int64_t hi = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.UniformInt(1, hi));
    hi = hi < 16 ? hi + 1 : 1;
  }
}
BENCHMARK(BM_RngUniformInt);

void BM_ThroughputFit(benchmark::State& state) {
  ThroughputParams truth{0.04, 3e-4, 0.02, 0.001, 0.08, 0.004, 1.8};
  std::vector<ThroughputObservation> observations;
  for (int k : {1, 2, 4, 8, 16}) {
    for (long m : {128L, 256L, 512L, 1024L}) {
      ThroughputObservation obs;
      obs.placement = Placement{k, k > 4 ? 2 : 1};
      obs.batch_size = m;
      obs.iter_time = IterTime(truth, obs.placement, static_cast<double>(m));
      observations.push_back(obs);
    }
  }
  FitOptions options;
  options.max_gpus_seen = 16;
  options.max_nodes_seen = 4;
  options.multi_starts = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitThroughputParams(observations, options));
  }
}
BENCHMARK(BM_ThroughputFit);

// One refit shaped like a sim-hyper-5k agent's: a 1-GPU observation plus
// single-node multi-GPU ones on 4-GPU nodes, so the cross-node parameters are
// pinned; two extra starts and no outlier pass, as the agent runs it.
void BM_ThroughputFitHyper(benchmark::State& state) {
  ThroughputParams truth{0.04, 3e-4, 0.02, 0.001, 0.08, 0.004, 1.8};
  std::vector<ThroughputObservation> observations;
  for (const auto& [k, m] : {std::pair{1, 128L}, {2, 256L}, {4, 512L}, {4, 1024L}}) {
    ThroughputObservation obs;
    obs.placement = Placement{k, 1};
    obs.batch_size = m;
    obs.iter_time = IterTime(truth, obs.placement, static_cast<double>(m));
    observations.push_back(obs);
  }
  FitOptions options;
  options.max_gpus_seen = 4;
  options.max_nodes_seen = 1;
  options.multi_starts = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitThroughputParams(observations, options));
  }
}
BENCHMARK(BM_ThroughputFitHyper);

void BM_GnsEstimate(benchmark::State& state) {
  Rng rng(7);
  std::vector<std::vector<double>> grads(8, std::vector<double>(1024));
  for (auto& grad : grads) {
    for (double& g : grad) {
      g = rng.Normal(0.0, 1.0);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateGnsFromReplicas(grads, 1024.0));
  }
}
BENCHMARK(BM_GnsEstimate);

// Event-queue primitives: bulk heap throughput over a random event schedule.
void BM_EventQueuePushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(123);
  std::vector<double> times(static_cast<size_t>(n));
  for (double& t : times) {
    t = rng.Uniform(0.0, 86400.0);
  }
  for (auto _ : state) {
    EventQueue<int> queue;
    for (int i = 0; i < n; ++i) {
      queue.Push(times[static_cast<size_t>(i)], i % 5, i);
    }
    double last = -1.0;
    while (!queue.empty()) {
      last = queue.Pop().time;
    }
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1000)->Arg(100000);

// Steady state of the simulator loop: recurring timers pop and immediately
// re-arm, so the queue stays small while churn is constant.
void BM_EventQueueSteadyState(benchmark::State& state) {
  EventQueue<int> queue;
  Rng rng(7);
  for (int i = 0; i < 64; ++i) {
    queue.Push(rng.Uniform(0.0, 60.0), i % 5, i);
  }
  for (auto _ : state) {
    const auto entry = queue.Pop();
    queue.Push(entry.time + rng.Uniform(1.0, 60.0), entry.priority, entry.payload);
    benchmark::DoNotOptimize(queue.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSteadyState);

// Whole-run simulator cost on a scheduler-light policy, where the event
// loop and job advance dominate the wall clock.
void BM_SimFifoTrace(benchmark::State& state) {
  BenchSimConfig config;
  config.nodes = 4;
  config.gpus_per_node = 4;
  config.jobs = 20;
  config.duration_hours = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunBenchPolicy("fifo", config));
  }
}
BENCHMARK(BM_SimFifoTrace)->Unit(benchmark::kMillisecond);

void BM_TraceGeneration(benchmark::State& state) {
  TraceOptions options;
  options.num_jobs = 160;
  for (auto _ : state) {
    options.seed += 1;
    benchmark::DoNotOptimize(GenerateTrace(options));
  }
}
BENCHMARK(BM_TraceGeneration);

// CRC-32 over one pollux_schedd tenant checkpoint's worth of bytes (2 x 1024
// jobs on 64x4 GPUs write about 217 kB per tenant per round).
void BM_Crc32(benchmark::State& state) {
  Rng rng(5);
  std::string bytes(217 * 1024, '\0');
  for (char& byte : bytes) byte = static_cast<char>(rng.UniformInt(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32);

// Encoding one first-match tenant with 1024 placed jobs on 64x4 GPUs: the
// payload of every per-round daemon checkpoint.
void BM_TenantSnapshotEncode(benchmark::State& state) {
  service::TenantSetup setup;
  setup.tenant_id = 1;
  setup.cluster.gpus_per_node.assign(64, 4);
  setup.sched.mode = SchedMode::kFirstMatch;
  service::TenantDomain tenant(setup);
  Rng rng(7);
  for (uint64_t job = 1; job <= 1024; ++job) {
    AgentReport agent;
    agent.job_id = job;
    ThroughputParams params = TypicalModel().params();
    params.alpha_grad = rng.Uniform(0.02, 0.08);
    agent.model = GoodputModel(params, rng.Uniform(500.0, 2000.0), 128);
    agent.limits = TypicalLimits();
    agent.max_gpus_cap = 1 << static_cast<int>(rng.Uniform(0.0, 4.0));
    tenant.SubmitJob(agent, 0.0);
  }
  service::RoundDecisions decisions;
  tenant.RunRound(0, &decisions);
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string snapshot = tenant.EncodeSnapshot();
    bytes = snapshot.size();
    benchmark::DoNotOptimize(snapshot.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_TenantSnapshotEncode);

}  // namespace
}  // namespace pollux

// Hand-rolled BENCHMARK_MAIN(): google-benchmark rejects unknown flags, so
// --metrics-out/--trace-out are peeled off argv before Initialize() and the
// remaining flags are forwarded untouched.
int main(int argc, char** argv) {
  const pollux::ObsFlagValues obs_paths = pollux::ExtractObsFlagsFromArgv(&argc, argv);
  pollux::ObsSession obs(obs_paths.metrics_out, obs_paths.trace_out);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
