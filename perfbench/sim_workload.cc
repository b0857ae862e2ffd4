// Simulator workloads: sim-exact-160 (the paper-shaped Philly trace under
// exact-mode Pollux, GA-bound) and sim-hyper-5k (a hyperscale trace under
// first-match Pollux, fitting-bound).
//
// Layers are timed from outside: trace generation around
// GenerateTrace/GenerateHyperscaleTrace, the scheduling layer through a
// decorator around the Scheduler interface, and the whole run around
// Simulator::Run. Everything the simulator decides is written out so run.py
// can check it.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "sim/pollux_policy.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace perfbench {
namespace {

using pollux::ClusterSpec;
using pollux::JobSpec;
using pollux::Scheduler;
using pollux::SchedulerContext;

// Forwards every Scheduler call to the wrapped policy and times Schedule,
// and the wall time of each scheduling interval: from one call's start to
// the next (the first from Start()), covering agent refresh and fitting, job
// advance and the call itself. The simulator reads the Pollux utility gauge
// for its timeline through a dynamic_cast, so timeline utility reads 0
// behind this decorator; decisions are unaffected.
class TimedScheduler : public Scheduler {
 public:
  explicit TimedScheduler(Scheduler* inner) : inner_(inner) {}

  void Start() { last_start_ = WallSeconds(); }

  std::map<uint64_t, std::vector<int>> Schedule(const SchedulerContext& context) override {
    const double start = WallSeconds();
    interval_ms_.push_back((start - last_start_) * 1e3);
    last_start_ = start;
    auto decisions = inner_->Schedule(context);
    call_ms_.push_back((WallSeconds() - start) * 1e3);
    jobs_seen_ += static_cast<int64_t>(context.jobs.size());
    return decisions;
  }
  bool adapts_batch_size() const override { return inner_->adapts_batch_size(); }
  bool throughput_only_batch() const override { return inner_->throughput_only_batch(); }
  void OnClusterChanged(const ClusterSpec& cluster) override { inner_->OnClusterChanged(cluster); }
  void SaveState(std::string* blob) const override { inner_->SaveState(blob); }
  bool LoadState(const std::string& blob) override { return inner_->LoadState(blob); }
  void ResetControlState() override { inner_->ResetControlState(); }
  const char* name() const override { return inner_->name(); }

  const std::vector<double>& call_ms() const { return call_ms_; }
  const std::vector<double>& interval_ms() const { return interval_ms_; }
  int64_t jobs_seen() const { return jobs_seen_; }

 private:
  Scheduler* inner_;
  std::vector<double> call_ms_;
  std::vector<double> interval_ms_;
  double last_start_ = 0.0;
  int64_t jobs_seen_ = 0;
};

struct SimSpec {
  bool hyperscale = false;
  pollux::TraceOptions trace;
  pollux::HyperTraceOptions hyper;
  pollux::SimOptions sim;
  pollux::SchedConfig sched;
};

// Workloads run single-process with two worker threads; allocations are
// identical at any thread count.
constexpr int kThreads = 2;

// Each simulator workload replays one trace, generated here from this fixed
// trace seed; the workload seed drives the simulator's observation and
// gradient-noise streams and the GA. Across trace seeds the job mix alone
// moves run time by about +-25% (a few long ImageNet-class jobs set the
// makespan), which would swamp the layer changes this benchmark must
// resolve; across noise seeds on one trace it moves by about 5%.
constexpr uint64_t kTraceSeed = 1;

SimSpec MakeSpec(const HarnessArgs& args) {
  SimSpec spec;
  int nodes = 0;
  double duration_h = 0.0;
  if (args.workload == "sim-exact-160") {
    nodes = args.tiny ? 4 : 16;
    duration_h = args.tiny ? 1.0 : 8.0;
    // The trace MakeBenchTrace builds for the bench defaults.
    spec.trace.num_jobs = args.tiny ? 12 : 160;
    spec.trace.duration = duration_h * 3600.0;
    spec.trace.gpus_per_node = 4;
    spec.trace.max_gpus = nodes * 4;
    spec.trace.seed = kTraceSeed;
    spec.sched.ga.population_size = args.tiny ? 10 : 40;
    spec.sched.ga.generations = args.tiny ? 5 : 25;
    spec.sched.mode = pollux::SchedMode::kExact;
  } else {
    spec.hyperscale = true;
    nodes = args.tiny ? 16 : 500;
    duration_h = args.tiny ? 6.0 : 96.0;
    spec.hyper.num_nodes = nodes;
    spec.hyper.gpus_per_node = 4;
    spec.hyper.num_jobs = args.tiny ? 60 : 5000;
    spec.hyper.duration = duration_h * 3600.0;
    spec.hyper.seed = kTraceSeed;
    spec.hyper.threads = kThreads;
    spec.sim.tick = 60.0;
    spec.sim.sched_interval = 300.0;
    spec.sim.report_interval = 120.0;
    spec.sched.mode = pollux::SchedMode::kFirstMatch;
  }
  spec.sim.cluster = ClusterSpec::Homogeneous(nodes, 4);
  spec.sim.gpus_per_node = 4;
  spec.sim.max_time = std::max(spec.sim.max_time, 2.0 * duration_h * 3600.0);
  spec.sim.seed = args.seed;
  spec.sim.sched_threads = kThreads;
  spec.sched.ga.seed = args.seed;
  spec.sched.ga.threads = kThreads;
  spec.sched.report_interval = spec.sim.report_interval;
  return spec;
}

// One repetition's inputs, built by the timed set-up.
struct Prepared {
  std::vector<int64_t> trace_ids;
  std::unique_ptr<pollux::PolluxPolicy> policy;
  std::unique_ptr<TimedScheduler> timed;
  std::unique_ptr<pollux::Simulator> sim;
  double trace_gen_s = 0.0;
  double setup_s = 0.0;
};

Prepared Setup(const SimSpec& spec) {
  Prepared prepared;
  const double start = WallSeconds();
  std::vector<JobSpec> trace = spec.hyperscale ? pollux::GenerateHyperscaleTrace(spec.hyper)
                                               : pollux::GenerateTrace(spec.trace);
  prepared.trace_gen_s = WallSeconds() - start;
  prepared.policy = std::make_unique<pollux::PolluxPolicy>(spec.sim.cluster, spec.sched);
  prepared.timed = std::make_unique<TimedScheduler>(prepared.policy.get());
  prepared.trace_ids.reserve(trace.size());
  for (const JobSpec& job : trace) prepared.trace_ids.push_back(static_cast<int64_t>(job.job_id));
  prepared.sim =
      std::make_unique<pollux::Simulator>(spec.sim, std::move(trace), prepared.timed.get());
  prepared.setup_s = WallSeconds() - start;
  return prepared;
}

void WriteRep(const Prepared& prepared, const pollux::SimResult& result, double run_s,
              double cpu_s, bool traced, JsonWriter& json) {
  json.BeginObject();
  json.Key("traced");
  json.Bool(traced);
  json.Key("run_s");
  json.Number(run_s);
  json.Key("cpu_s");
  json.Number(cpu_s);
  json.Key("trace_gen_s");
  json.Number(prepared.trace_gen_s);
  json.Key("sched_call_ms");
  json.NumberArray(prepared.timed->call_ms());
  json.Key("round_ms");
  json.NumberArray(prepared.timed->interval_ms());
  json.Key("sched_jobs_seen");
  json.Int(prepared.timed->jobs_seen());
  json.Key("timed_out");
  json.Bool(result.timed_out);
  json.Key("trace_ids");
  json.BeginArray();
  for (int64_t id : prepared.trace_ids) json.Int(id);
  json.EndArray();
  // [job_id, submit, start, finish, restarts, completed]
  json.Key("jobs");
  json.BeginArray();
  for (const pollux::JobResult& job : result.jobs) {
    json.BeginArray();
    json.Int(static_cast<int64_t>(job.job_id));
    json.Number(job.submit_time);
    json.Number(job.start_time);
    json.Number(job.finish_time);
    json.Int(job.num_restarts);
    json.Bool(job.completed);
    json.EndArray();
  }
  json.EndArray();
  // [time, total_gpus, gpus_in_use]
  json.Key("timeline");
  json.BeginArray();
  for (const pollux::ClusterSample& sample : result.timeline) {
    json.BeginArray();
    json.Number(sample.time);
    json.Int(sample.total_gpus);
    json.Int(sample.gpus_in_use);
    json.EndArray();
  }
  json.EndArray();
  if (traced) {
    json.Key("ledger");
    json.BeginObject();
    WriteLedger(json);
    json.EndObject();
  }
  json.EndObject();
}

}  // namespace

bool RunSimWorkload(const HarnessArgs& args, JsonWriter& json) {
  const SimSpec spec = MakeSpec(args);
  json.Key("cluster_gpus");
  json.Int(spec.sim.cluster.TotalGpus());
  std::vector<double> setup_s;
  json.Key("reps");
  json.BeginArray();
  const double phase_start = WallSeconds();
  for (int rep = 0;; ++rep) {
    // A traced run is one plain repetition followed by one instrumented one.
    const bool traced = args.trace && rep == 1;
    for (int i = ExtraSetups(setup_s.size()); i > 0; --i) setup_s.push_back(Setup(spec).setup_s);
    Prepared prepared = Setup(spec);
    setup_s.push_back(prepared.setup_s);
    if (traced) SetObservability(true);
    const double cpu_start = ProcessCpuSeconds();
    const double start = WallSeconds();
    prepared.timed->Start();
    const pollux::SimResult result = prepared.sim->Run();
    const double run_s = WallSeconds() - start;
    const double cpu_s = ProcessCpuSeconds() - cpu_start;
    if (traced) SetObservability(false);
    WriteRep(prepared, result, run_s, cpu_s, traced, json);
    if (args.trace ? rep == 1 : !AnotherRep(args, rep + 1, WallSeconds() - phase_start, run_s)) {
      break;
    }
  }
  json.EndArray();
  while (static_cast<int>(setup_s.size()) < kSetups) {
    setup_s.push_back(Setup(spec).setup_s);
  }
  json.Key("setup_s");
  json.NumberArray(setup_s);
  return true;
}

}  // namespace perfbench
