// Microbenchmarks (google-benchmark) for the hot paths that bound
// PolluxSched's 60-second scheduling budget: goodput evaluation, batch-size
// optimization, speedup-table construction, genetic-algorithm rounds, online
// model fitting, and the event-queue engine primitives.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/common.h"
#include "core/eval_cache.h"
#include "core/genetic.h"
#include "core/gns.h"
#include "core/goodput.h"
#include "core/model_fitter.h"
#include "core/speedup_table.h"
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

// memo=1 measures the steady state PolluxSched sees on autoscaler utility
// probes and unchanged-model rounds: the table is rebuilt for a model whose
// fingerprint is already cached, so every golden-section search is replaced
// by a hash probe.
void BM_SpeedupTableBuild(benchmark::State& state) {
  const GoodputModel model = TypicalModel();
  const BatchLimits limits = TypicalLimits();
  const int max_gpus = static_cast<int>(state.range(0));
  const bool memo = state.range(1) != 0;
  EvalCache cache;
  for (auto _ : state) {
    SpeedupTable table(model, limits, max_gpus, memo ? &cache : nullptr,
                       /*job_id=*/1, /*progress_bucket=*/0);
    benchmark::DoNotOptimize(table);
  }
  state.counters["hit_rate"] = cache.Stats().HitRate();
}
BENCHMARK(BM_SpeedupTableBuild)
    ->ArgNames({"gpus", "memo"})
    ->Args({8, 0})
    ->Args({64, 0})
    ->Args({64, 1});

// One GA scheduling round, parameterized over job count, worker threads, and
// the speedup memoization cache. threads > 1 exercises the ThreadPool path
// (same allocations, see core_genetic_determinism_test); hit_rate reports
// how much of the speedup evaluation the cache absorbed.
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
  options.memoize = state.range(2) != 0;
  GeneticOptimizer ga(ClusterSpec::Homogeneous(16, 4), options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ga.Optimize(jobs));
  }
  state.counters["hit_rate"] = ga.cache_stats().HitRate();
}
BENCHMARK(BM_GeneticRound)
    ->ArgNames({"jobs", "threads", "memo"})
    ->Args({10, 1, 1})
    ->Args({40, 1, 1})
    ->Args({160, 1, 0})
    ->Args({160, 1, 1})
    ->Args({160, 2, 1})
    ->Args({160, 4, 1})
    ->MeasureProcessCPUTime()
    ->UseRealTime();

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
