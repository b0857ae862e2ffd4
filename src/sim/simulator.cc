#include "sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "core/throughput_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/engine/event_queue.h"
#include "sim/engine/progress_integrator.h"
#include "sim/engine/sim_clock.h"
#include "sim/engine/timers.h"
#include "sim/pollux_policy.h"
#include "util/logging.h"

namespace pollux {
namespace {

constexpr double kProgressEpsilon = 1e-6;

// Sim-time trace tracks (pid kSimPid): jobs use their job id, nodes are
// offset so the two id spaces can't collide; the scheduler control plane gets
// its own track above both, and rack-scoped partition spans above that.
constexpr uint64_t kNodeTrackBase = uint64_t{1} << 40;
constexpr uint64_t kSchedTrack = kNodeTrackBase * 2;
constexpr uint64_t kRackTrackBase = kNodeTrackBase * 3;

struct SimMetrics {
  obs::Counter* engine_events;
  obs::Gauge* engine_events_per_s;
  obs::Gauge* run_wall_s;
  obs::Counter* events_by_kind[15];
  obs::Gauge* failed_nodes;
  obs::Gauge* masked_gpus;
  obs::Counter* net_sent;
  obs::Counter* net_delivered;
  obs::Counter* net_lost;
  obs::Counter* net_duplicated;
  obs::Counter* net_retries;
  obs::Counter* net_dup_reports;
  obs::Counter* net_decisions_suppressed;
  obs::Counter* net_decisions_bounced;
  obs::Counter* net_partitions;
  obs::Gauge* net_in_flight;
  obs::Histogram* net_delivery_delay;
  obs::Gauge* avg_goodput;
  obs::Gauge* avg_throughput;
  obs::Gauge* avg_efficiency;
  obs::Gauge* avg_jct_s;
  obs::Gauge* makespan_s;
  obs::Counter* checkpoint_writes;
  obs::Counter* checkpoint_resumes;
  obs::Counter* sched_crashes;
  obs::Counter* warm_restores;
  obs::Counter* cold_resets;
  obs::Counter* agents_reset;
  obs::Histogram* iter_time_log_err;

  static const SimMetrics& Get() {
    static const SimMetrics metrics;
    return metrics;
  }

 private:
  SimMetrics() {
    auto& registry = obs::MetricsRegistry::Global();
    engine_events = registry.GetCounter("sim.engine.events");
    engine_events_per_s = registry.GetGauge("sim.engine.events_per_s");
    run_wall_s = registry.GetGauge("sim.run_wall_s");
    for (int kind = 0; kind <= static_cast<int>(SimEventKind::kDecisionBounce); ++kind) {
      events_by_kind[kind] = registry.GetCounter(
          std::string("sim.events.") + SimEventKindName(static_cast<SimEventKind>(kind)));
    }
    failed_nodes = registry.GetGauge("sim.failed_nodes");
    masked_gpus = registry.GetGauge("sim.masked_gpus");
    net_sent = registry.GetCounter("net.messages_sent");
    net_delivered = registry.GetCounter("net.messages_delivered");
    net_lost = registry.GetCounter("net.messages_lost");
    net_duplicated = registry.GetCounter("net.messages_duplicated");
    net_retries = registry.GetCounter("net.retries");
    net_dup_reports = registry.GetCounter("net.dup_reports");
    net_decisions_suppressed = registry.GetCounter("net.decisions_suppressed");
    net_decisions_bounced = registry.GetCounter("net.decisions_bounced");
    net_partitions = registry.GetCounter("net.partitions");
    net_in_flight = registry.GetGauge("net.in_flight");
    net_delivery_delay = registry.GetHistogram("net.delivery_delay_s");
    avg_goodput = registry.GetGauge("sim.avg_goodput");
    avg_throughput = registry.GetGauge("sim.avg_throughput");
    avg_efficiency = registry.GetGauge("sim.avg_efficiency");
    avg_jct_s = registry.GetGauge("sim.avg_jct_s");
    makespan_s = registry.GetGauge("sim.makespan_s");
    checkpoint_writes = registry.GetCounter("sim.checkpoint.writes");
    checkpoint_resumes = registry.GetCounter("sim.checkpoint.resumes");
    sched_crashes = registry.GetCounter("sim.recovery.scheduler_crashes");
    warm_restores = registry.GetCounter("sim.recovery.warm_restores");
    cold_resets = registry.GetCounter("sim.recovery.cold_resets");
    agents_reset = registry.GetCounter("sim.recovery.agents_reset");
    iter_time_log_err = registry.GetHistogram("model.iter_time_log_err");
  }
};

Placement PlacementOf(const std::vector<int>& row) {
  Placement placement;
  for (int gpus : row) {
    if (gpus > 0) {
      placement.num_gpus += gpus;
      ++placement.num_nodes;
    }
  }
  return placement;
}

// The node hosting a job's rank-0 agent process (first node with GPUs), or -1
// for queued jobs whose agent is co-located with the scheduler.
int AgentHostNode(const std::vector<int>& alloc) {
  for (size_t n = 0; n < alloc.size(); ++n) {
    if (alloc[n] > 0) {
      return static_cast<int>(n);
    }
  }
  return -1;
}

}  // namespace

const char* SimEventKindName(SimEventKind kind) {
  switch (kind) {
    case SimEventKind::kSubmit:
      return "submit";
    case SimEventKind::kStart:
      return "start";
    case SimEventKind::kReallocate:
      return "reallocate";
    case SimEventKind::kPreempt:
      return "preempt";
    case SimEventKind::kComplete:
      return "complete";
    case SimEventKind::kClusterResize:
      return "cluster_resize";
    case SimEventKind::kNodeFail:
      return "node_fail";
    case SimEventKind::kNodeRepair:
      return "node_repair";
    case SimEventKind::kEvict:
      return "evict";
    case SimEventKind::kRestartFailure:
      return "restart_failure";
    case SimEventKind::kReportDrop:
      return "report_drop";
    case SimEventKind::kSchedCrash:
      return "sched_crash";
    case SimEventKind::kNetPartition:
      return "net_partition";
    case SimEventKind::kNetHeal:
      return "net_heal";
    case SimEventKind::kDecisionBounce:
      return "decision_bounce";
  }
  return "?";
}

struct Simulator::Job {
  Job(const JobSpec& job_spec, const ModelProfile& model_profile, bool adaptive_batch,
      Rng job_rng, AgentConfig agent_config)
      : spec(job_spec),
        profile(&model_profile),
        agent(job_spec.job_id, model_profile.base_batch_size, model_profile.base_lr,
              model_profile.Limits(), agent_config),
        rng(job_rng),
        batch(adaptive_batch ? model_profile.base_batch_size
                             : std::max(job_spec.batch_size, model_profile.base_batch_size)) {}

  JobSpec spec;
  const ModelProfile* profile;
  PolluxAgent agent;
  Rng rng;

  std::vector<int> alloc;  // GPUs per node; empty until first allocation.
  Placement placement;
  long batch;
  double progress = 0.0;  // Reference examples completed.
  bool finished = false;
  double restart_until = 0.0;
  double start_time = -1.0;
  double finish_time = -1.0;
  double gpu_time = 0.0;
  int restarts = 0;
  int evictions = 0;
  int restart_failures = 0;
  double backoff_seconds = 0.0;
  bool has_report = false;
  // Time the report the scheduler last received was *produced* (drops don't
  // update it; under the network model delivery lags production, so report
  // age includes transit time).
  double last_report_time = -1.0;
  AgentReport report;
  // Highest per-channel sequence numbers delivered so far: older or duplicate
  // reports/decisions that arrive out of order are discarded.
  uint64_t report_seq = 0;
  uint64_t decision_seq = 0;

  // Time integrals while running.
  double run_seconds = 0.0;
  double eff_integral = 0.0;
  double tput_integral = 0.0;
  double goodput_integral = 0.0;

  double TotalExamples() const { return profile->TotalExamples(); }
  double ProgressFraction() const {
    return std::clamp(progress / TotalExamples(), 0.0, 1.0);
  }
  bool Running(double now) const {
    return !finished && placement.num_gpus > 0 && now >= restart_until;
  }
};

Simulator::Simulator(SimOptions options, std::vector<JobSpec> trace, Scheduler* scheduler,
                     ClusterAutoscaler* autoscaler)
    : options_(std::move(options)),
      cluster_(options_.cluster),
      base_cluster_(options_.cluster),
      scheduler_(scheduler),
      autoscaler_(autoscaler),
      rng_(options_.seed),
      trace_(std::move(trace)),
      refresh_pool_(std::make_unique<ThreadPool>(
          options_.sched_threads <= 0 ? -1 : options_.sched_threads)) {
  std::sort(trace_.begin(), trace_.end(),
            [](const JobSpec& a, const JobSpec& b) { return a.submit_time < b.submit_time; });
  if (options_.faults.enabled()) {
    // The injector draws from streams derived from (seed ^ salt), so the
    // main simulation stream (job noise forks) is untouched.
    faults_ = std::make_unique<FaultInjector>(options_.faults, cluster_.NumNodes(),
                                              options_.seed ^ 0xFA017ULL);
  }
  if (options_.net.enabled()) {
    // Distinct salt: the network model's streams never collide with the
    // fault injector's even under identical seeds.
    net_ = std::make_unique<NetModel>(options_.net, cluster_.NumNodes(),
                                      options_.seed ^ 0x5E7A11ULL);
    last_heard_.assign(cluster_.gpus_per_node.size(), 0.0);
  }
}

Simulator::~Simulator() = default;

void Simulator::Emit(SimEvent event) {
  // Jobs advance one at a time across a span, so raw emission order
  // interleaves jobs arbitrarily; events are buffered and flushed sorted by
  // time once per queue dispatch, which keeps the log monotone. The stable
  // sort keeps same-instant events in handler order. Every Emit happens
  // inside RunEvent, which flushes before it returns or snapshots.
  pending_events_.push_back(event);
}

void Simulator::FlushPendingEvents() {
  if (pending_events_.empty()) {
    return;
  }
  std::stable_sort(pending_events_.begin(), pending_events_.end(),
                   [](const SimEvent& a, const SimEvent& b) { return a.time < b.time; });
  // Every lifecycle event reaches the log here, so the structured log and the
  // per-kind counters can never disagree.
  const bool metrics_on = obs::MetricsRegistry::Global().enabled();
  for (const SimEvent& event : pending_events_) {
    if (metrics_on) {
      SimMetrics::Get().events_by_kind[static_cast<int>(event.kind)]->Add();
    }
    result_.events.push_back(event);
  }
  pending_events_.clear();
}

void Simulator::ActivateSubmissions(double now) {
  AgentConfig agent_config;
  if (options_.faults.enabled()) {
    // Under fault injection the agents run their robust-estimation path:
    // straggler-inflated iteration times are MAD-rejected before the RMSLE
    // fit and diverged fits keep the previous theta_sys.
    agent_config.robust_fitting = true;
  }
  while (next_submission_ < trace_.size() && trace_[next_submission_].submit_time <= now) {
    const JobSpec& spec = trace_[next_submission_];
    jobs_.push_back(std::make_unique<Job>(spec, GetModelProfile(spec.model),
                                          scheduler_->adapts_batch_size(), rng_.Fork(),
                                          agent_config));
    active_.push_back(jobs_.size() - 1);
    Emit(SimEvent{spec.submit_time, SimEventKind::kSubmit, spec.job_id, 0, 0});
    ++next_submission_;
  }
}

void Simulator::CompactActive() const {
  size_t kept = 0;
  for (size_t idx : active_) {
    if (!jobs_[idx]->finished) {
      active_[kept++] = idx;
    }
  }
  active_.resize(kept);
}

void Simulator::RefreshReports(double now) {
  TRACE_SCOPE("sim.refresh_reports");
  const bool metrics_on = obs::MetricsRegistry::Global().enabled();
  CompactActive();

  // Per-job phase: reads and writes only the job's own agent and Job (each
  // fit seeds its Rng from agent-local state), so slots run in any order on
  // any thread.
  const bool adapts_batch = scheduler_->adapts_batch_size();
  const bool throughput_only = scheduler_->throughput_only_batch();
  fresh_reports_.resize(active_.size());
  const auto refresh_job = [&](size_t slot) {
    Job& job = *jobs_[active_[slot]];
    fresh_reports_[slot] = job.agent.MakeReport();
    if (adapts_batch && job.placement.num_gpus > 0) {
      if (throughput_only) {
        // Or et al.: throughput increases with batch size, so the largest
        // feasible batch is "optimal" under a throughput-only model.
        job.batch = job.agent.limits().MaxFeasible(job.placement.num_gpus);
      } else {
        const auto choice = job.agent.TuneBatchSize(job.placement);
        if (choice.batch_size > 0) {
          job.batch = choice.batch_size;
        }
      }
    }
  };
  refresh_pool_->ParallelFor(0, active_.size(), refresh_job);

  // Serial phase, in active order: every shared RNG draw and Emit.
  for (size_t slot = 0; slot < active_.size(); ++slot) {
    Job* const job = jobs_[active_[slot]].get();
    AgentReport& fresh = fresh_reports_[slot];
    if (metrics_on && job->placement.num_gpus > 0) {
      // Model error against the hidden ground truth: how far the fresh
      // theta_sys puts the placed job's iteration time, in log space.
      const double predicted = IterTime(fresh.model.params(), job->placement,
                                        static_cast<double>(job->batch));
      const double truth = TrueJobIterTime(*job);
      if (predicted > 0.0 && truth > 0.0) {
        SimMetrics::Get().iter_time_log_err->Record(
            std::fabs(std::log(predicted) - std::log(truth)));
      }
    }
    // The agent always refreshes locally; the *delivery* to the scheduler
    // can be lost. A dropped report leaves the scheduler holding the
    // previous one, whose age keeps growing.
    const bool dropped = faults_ != nullptr && options_.faults.report_drop_rate > 0.0 &&
                         faults_->DropReport();
    if (dropped) {
      Emit(SimEvent{now, SimEventKind::kReportDrop, job->spec.job_id, 0, 0});
    } else if (net_ != nullptr) {
      // The report travels as a sequence-numbered message; the agent retries
      // lost attempts with capped jittered backoff at send time. A message
      // whose every attempt is lost counts as a drop, like a fault-injected
      // one.
      const NetModel::SendOutcome outcome =
          net_->SendReport(job->spec.job_id, AgentHostNode(job->alloc), fresh, now);
      if (metrics_on) {
        const SimMetrics& metrics = SimMetrics::Get();
        metrics.net_sent->Add();
        metrics.net_retries->Add(static_cast<uint64_t>(outcome.attempts - 1));
        if (outcome.duplicated) {
          metrics.net_duplicated->Add();
        }
        if (!outcome.delivered) {
          metrics.net_lost->Add();
        }
      }
      if (!outcome.delivered) {
        Emit(SimEvent{now, SimEventKind::kReportDrop, job->spec.job_id, 0, 0});
      }
    } else {
      job->report = std::move(fresh);
      job->has_report = true;
      job->last_report_time = now;
    }
  }
  if (net_ != nullptr) {
    // Liveness heartbeats from every physically-up node, once per report
    // interval. RNG-free by contract: blocked under partition, delivered
    // after the base latency otherwise.
    for (size_t n = 0; n < cluster_.gpus_per_node.size(); ++n) {
      if (cluster_.gpus_per_node[n] > 0) {
        net_->SendHeartbeat(static_cast<int>(n), now);
      }
    }
  }
}

std::vector<JobSnapshot> Simulator::BuildSnapshots(double now) {
  std::vector<JobSnapshot> snapshots;
  CompactActive();
  snapshots.reserve(active_.size());
  for (size_t active_idx : active_) {
    Job* const job = jobs_[active_idx].get();
    if (!job->has_report) {
      job->report = job->agent.MakeReport();
      job->has_report = true;
      job->last_report_time = now;
    }
    JobSnapshot snapshot;
    snapshot.job_id = job->spec.job_id;
    snapshot.spec = &job->spec;
    snapshot.profile = job->profile;
    snapshot.agent = job->report;
    snapshot.gpu_time = job->gpu_time;
    if (job->placement.num_gpus > 0) {
      snapshot.allocation = job->alloc;
    }
    snapshot.submit_time = job->spec.submit_time;
    snapshot.batch_size = job->batch;
    const double efficiency =
        job->profile->TrueEfficiency(job->batch, job->ProgressFraction());
    const double per_iteration = static_cast<double>(job->batch) * efficiency;
    snapshot.oracle_remaining_iterations =
        per_iteration > 0.0 ? (job->TotalExamples() - job->progress) / per_iteration : 0.0;
    snapshot.oracle_single_gpu_remaining =
        snapshot.oracle_remaining_iterations *
        job->profile->TrueIterTime(Placement{1, 1}, job->batch);
    snapshot.report_age = job->last_report_time >= 0.0 ? now - job->last_report_time : 0.0;
    snapshot.report_seq = job->report_seq;
    snapshots.push_back(std::move(snapshot));
  }
  return snapshots;
}

void Simulator::ApplyAllocation(Job& job, const std::vector<int>& row, double now) {
  std::vector<int> new_row = row;
  new_row.resize(cluster_.gpus_per_node.size(), 0);
  std::vector<int> old_row = job.alloc;
  old_row.resize(cluster_.gpus_per_node.size(), 0);
  if (new_row == old_row) {
    return;
  }
  const Placement new_placement = PlacementOf(new_row);
  if (job.placement.num_gpus > 0) {
    ++job.restarts;  // Had resources: must checkpoint before moving.
  }
  Emit(SimEvent{
      now, new_placement.num_gpus > 0 ? SimEventKind::kReallocate : SimEventKind::kPreempt,
      job.spec.job_id, new_placement.num_gpus, new_placement.num_nodes});
  job.alloc = std::move(new_row);
  job.placement = new_placement;
  if (new_placement.num_gpus > 0) {
    double delay = options_.restart_delay;
    if (faults_ != nullptr && options_.faults.restart_fail_rate > 0.0) {
      // Checkpoint-restore attempts can fail; each failure costs the full
      // restart delay plus a capped exponentially growing backoff before the
      // retry. Drawn from a dedicated stream, so determinism per seed holds.
      double backoff = options_.faults.restart_backoff_init;
      while (faults_->RestartFails()) {
        ++job.restart_failures;
        Emit(SimEvent{now, SimEventKind::kRestartFailure, job.spec.job_id,
                                      job.restart_failures, 0});
        job.backoff_seconds += backoff;
        delay += backoff + options_.restart_delay;
        backoff = std::min(2.0 * backoff, options_.faults.restart_backoff_cap);
      }
    }
    job.restart_until = now + delay;
    job.agent.NotifyAllocation(new_placement);
    if (scheduler_->adapts_batch_size()) {
      if (scheduler_->throughput_only_batch()) {
        job.batch = job.agent.limits().MaxFeasible(new_placement.num_gpus);
      } else {
        const auto choice = job.agent.TuneBatchSize(new_placement);
        if (choice.batch_size > 0) {
          job.batch = choice.batch_size;
        }
      }
    }
  }
}

void Simulator::RunSchedulingRound(double now) {
  TRACE_SCOPE("sim.sched_round");
  CompactActive();
  if (active_.empty()) {
    // Entirely empty round: nothing submitted-and-unfinished, so there is
    // nothing to snapshot, no decision to make, and no event to emit. Skip
    // the whole round body (including the O(nodes) lease-view rebuild) while
    // the fixed round cadence keeps firing. Schedulers see no difference:
    // with zero jobs every policy returns zero decisions, and PolluxSched's
    // empty-round early-return does not count toward sched.rounds.
    return;
  }
  SchedulerContext context;
  context.now = now;
  context.cluster = &SchedulerVisible(net_ != nullptr ? SchedulerClusterView(now) : cluster_);
  context.jobs = BuildSnapshots(now);
  const auto decisions = scheduler_->Schedule(context);
  CompactActive();
  for (size_t active_idx : active_) {
    Job* const job = jobs_[active_idx].get();
    const auto it = decisions.find(job->spec.job_id);
    if (it == decisions.end()) {
      continue;
    }
    if (net_ == nullptr) {
      ApplyAllocation(*job, it->second, now);
      continue;
    }
    // Under the network model only *changed* rows travel: a decision message
    // per job per change, not per round (no-op decisions would only add
    // suppression noise at the receiver).
    std::vector<int> new_row = it->second;
    new_row.resize(cluster_.gpus_per_node.size(), 0);
    std::vector<int> old_row = job->alloc;
    old_row.resize(cluster_.gpus_per_node.size(), 0);
    if (new_row != old_row) {
      SendDecision(*job, new_row, now);
    }
  }
}

void Simulator::SendDecision(Job& job, const std::vector<int>& row, double now) {
  const NetModel::SendOutcome outcome =
      net_->SendDecision(job.spec.job_id, AgentHostNode(job.alloc), row, now);
  if (obs::MetricsRegistry::Global().enabled()) {
    const SimMetrics& metrics = SimMetrics::Get();
    metrics.net_sent->Add();
    metrics.net_retries->Add(static_cast<uint64_t>(outcome.attempts - 1));
    if (outcome.duplicated) {
      metrics.net_duplicated->Add();
    }
    if (!outcome.delivered) {
      // The decision never reaches the agent; the scheduler self-corrects
      // next round when the job's snapshot still shows the old allocation.
      metrics.net_lost->Add();
    }
  }
}

const ClusterSpec& Simulator::SchedulerClusterView(double now) {
  if (options_.net.naive_masking || options_.net.lease_intervals <= 0) {
    // Instant-masking baseline: the scheduler sees the physically masked
    // capacity immediately, as if liveness were free and perfect.
    return cluster_;
  }
  // Lease view: the scheduler only distrusts a node after its lease expires —
  // lease_intervals heartbeat periods plus transit slack, so a healthy node
  // is never masked spuriously. Until then a crashed node still looks alive
  // (decisions placed there bounce at apply time); conversely a repaired node
  // is readmitted at its first heartbeat delivery.
  sched_view_ = base_cluster_;
  const double lease = options_.net.lease_intervals * options_.report_interval +
                       2.0 * (options_.net.latency + options_.net.jitter) + options_.tick;
  for (size_t n = 0; n < sched_view_.gpus_per_node.size(); ++n) {
    const double heard = n < last_heard_.size() ? last_heard_[n] : 0.0;
    if (now - heard > lease) {
      sched_view_.gpus_per_node[n] = 0;
    }
  }
  return sched_view_;
}

const ClusterSpec& Simulator::SchedulerVisible(const ClusterSpec& physical) {
  if (!options_.scheduler_topology_blind || !physical.HasTopology()) {
    return physical;
  }
  blind_view_ = physical.WithoutTopology();
  return blind_view_;
}

void Simulator::RunAutoscaling(double now) {
  SchedulerContext context;
  context.now = now;
  context.cluster = &cluster_;
  context.jobs = BuildSnapshots(now);
  const int current = cluster_.NumNodes();
  const int target = autoscaler_->DecideNodes(context, current, options_.gpus_per_node);
  if (target == current || target <= 0) {
    return;
  }
  Log(LogLevel::kInfo) << "autoscale at t=" << now << ": " << current << " -> " << target
                       << " nodes";
  Emit(SimEvent{now, SimEventKind::kClusterResize, 0, 0, target});
  base_cluster_ = ClusterSpec::Homogeneous(target, options_.gpus_per_node);
  if (options_.cluster.HasTopology()) {
    // Preserve the topology annotations through the resize: racks keep the
    // configured arity and new nodes repeat the original per-node GPU-type
    // pattern, so a grown cluster adds whole racks of the same mix instead
    // of silently degrading to the flat model.
    const ClusterSpec& proto = options_.cluster;
    int nodes_per_rack = 0;
    for (int rack : proto.rack_of_node) {
      nodes_per_rack += rack == 0 ? 1 : 0;
    }
    nodes_per_rack = std::max(nodes_per_rack, 1);
    const size_t proto_nodes = proto.rack_of_node.size();
    base_cluster_.rack_link_factor = proto.rack_link_factor;
    base_cluster_.rack_of_node.resize(static_cast<size_t>(target));
    base_cluster_.gpu_type_of_node.resize(static_cast<size_t>(target));
    base_cluster_.node_gpu_scale.resize(static_cast<size_t>(target));
    for (int n = 0; n < target; ++n) {
      const size_t src = proto_nodes > 0 ? static_cast<size_t>(n) % proto_nodes : 0;
      base_cluster_.rack_of_node[static_cast<size_t>(n)] = n / nodes_per_rack;
      base_cluster_.gpu_type_of_node[static_cast<size_t>(n)] =
          src < proto.gpu_type_of_node.size() ? proto.gpu_type_of_node[src] : 0;
      base_cluster_.node_gpu_scale[static_cast<size_t>(n)] =
          src < proto.node_gpu_scale.size() ? proto.node_gpu_scale[src] : 1.0;
    }
  }
  cluster_ = base_cluster_;
  if (faults_ != nullptr) {
    faults_->OnClusterResize(target, now);
    for (int n = 0; n < target; ++n) {
      if (faults_->NodeFailed(n)) {
        cluster_.gpus_per_node[static_cast<size_t>(n)] = 0;
      }
    }
  }
  if (net_ != nullptr) {
    net_->OnClusterResize(target, now);
    // Newly provisioned nodes start with a fresh lease (heard "now"), not an
    // expired one from before they existed.
    last_heard_.resize(static_cast<size_t>(target), now);
  }
  scheduler_->OnClusterChanged(SchedulerVisible(cluster_));
  for (auto& job : jobs_) {
    if (job->finished || job->alloc.empty()) {
      continue;
    }
    bool lost_gpus = false;
    for (size_t n = static_cast<size_t>(target); n < job->alloc.size(); ++n) {
      if (job->alloc[n] > 0) {
        lost_gpus = true;
      }
    }
    job->alloc.resize(static_cast<size_t>(target), 0);
    if (lost_gpus) {
      // The job's replicas on released nodes are gone; it checkpoints and
      // waits for the next scheduling round.
      job->alloc.assign(static_cast<size_t>(target), 0);
      job->placement = Placement{};
      ++job->restarts;
    }
  }
}

void Simulator::ProcessFaults(double now) {
  if (faults_ == nullptr) {
    return;
  }
  if (options_.faults.mtbf_sched > 0.0) {
    // Scheduler crashes are polled before node transitions, so a crash and
    // a node transition due at the same poll always recover in that order.
    const int crashes = faults_->PollSchedulerCrashes(now);
    for (int crash = 0; crash < crashes; ++crash) {
      RecoverScheduler(now);
    }
  }
  const auto transitions = faults_->Poll(now);
  for (const auto& transition : transitions) {
    const size_t node = static_cast<size_t>(transition.node);
    if (node >= cluster_.gpus_per_node.size()) {
      continue;  // Node was released by the autoscaler in the meantime.
    }
    if (transition.failed) {
      Emit(SimEvent{now, SimEventKind::kNodeFail, 0, 0, transition.node});
      obs::TraceRecorder::Global().EmitSimInstant(
          "node_fail", kNodeTrackBase + static_cast<uint64_t>(transition.node), now);
      cluster_.gpus_per_node[node] = 0;
      // Synchronous data-parallel jobs cannot survive losing replicas: every
      // job touching the node checkpoints (at its last 30 s checkpoint) and
      // re-queues for the next scheduling round.
      for (auto& job : jobs_) {
        if (job->finished || node >= job->alloc.size() || job->alloc[node] <= 0) {
          continue;
        }
        ++job->evictions;
        job->alloc.assign(job->alloc.size(), 0);
        job->placement = Placement{};
        Emit(
                    SimEvent{now, SimEventKind::kEvict, job->spec.job_id, 0, transition.node});
        obs::TraceRecorder::Global().EmitSimInstant("evict", job->spec.job_id, now);
      }
    } else {
      Emit(SimEvent{now, SimEventKind::kNodeRepair, 0, 0, transition.node});
      obs::TraceRecorder::Global().EmitSimInstant(
          "node_repair", kNodeTrackBase + static_cast<uint64_t>(transition.node), now);
      cluster_.gpus_per_node[node] = base_cluster_.gpus_per_node[node];
    }
  }
  if (obs::MetricsRegistry::Global().enabled() && faults_ != nullptr) {
    const SimMetrics& metrics = SimMetrics::Get();
    metrics.failed_nodes->Set(static_cast<double>(faults_->num_failed_nodes()));
    metrics.masked_gpus->Set(
        static_cast<double>(base_cluster_.TotalGpus() - cluster_.TotalGpus()));
  }
  if (!transitions.empty() &&
      !(net_ != nullptr && !options_.net.naive_masking && options_.net.lease_intervals > 0)) {
    // Failed nodes are masked out of the schedulers' capacity model (the GA
    // mutates/repairs against zero-capacity columns; consolidated placement
    // sees zero free GPUs there). Under lease-based liveness the scheduler
    // must NOT learn of the transition instantly — it only finds out through
    // missed heartbeats, via SchedulerClusterView at the next round.
    scheduler_->OnClusterChanged(SchedulerVisible(cluster_));
  }
}

void Simulator::RecoverScheduler(double now) {
  const bool warm = options_.faults.sched_recovery == SchedRecovery::kWarm;
  Emit(SimEvent{now, SimEventKind::kSchedCrash, 0, 0, 0});
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  if (recorder.enabled()) {
    recorder.SetTrackName(obs::TraceRecorder::kSimPid, kSchedTrack, "scheduler");
    recorder.EmitSimInstant(warm ? "sched_crash (warm)" : "sched_crash (cold)", kSchedTrack,
                            now);
  }
  const bool metrics_on = obs::MetricsRegistry::Global().enabled();
  if (metrics_on) {
    SimMetrics::Get().sched_crashes->Add();
  }
  if (warm) {
    // Warm recovery: the restarted scheduler process reloads the latest
    // control-plane snapshot — in simulation, an in-memory round trip through
    // the same serialization the on-disk checkpoints use. Lossless, so the
    // run continues byte-identically to one without the crash.
    std::string blob;
    scheduler_->SaveState(&blob);
    if (!scheduler_->LoadState(blob)) {
      Log(LogLevel::kError) << "warm scheduler recovery rejected its own state at t=" << now;
    }
    if (metrics_on) {
      SimMetrics::Get().warm_restores->Add();
    }
    return;
  }
  // Cold recovery: no snapshot survives the crash. The scheduler rebuilds its
  // queues/population from scratch and every unfinished job's agent process
  // restarts with no fitted model or observation history — jobs keep running
  // on their current allocation and batch size while the models refit.
  scheduler_->ResetControlState();
  AgentConfig agent_config;
  if (options_.faults.enabled()) {
    agent_config.robust_fitting = true;
  }
  uint64_t reset = 0;
  for (auto& job : jobs_) {
    if (job->finished) {
      continue;
    }
    job->agent = PolluxAgent(job->spec.job_id, job->profile->base_batch_size,
                             job->profile->base_lr, job->profile->Limits(), agent_config);
    if (job->placement.num_gpus > 0) {
      job->agent.NotifyAllocation(job->placement);
    }
    job->has_report = false;
    job->last_report_time = -1.0;
    job->report = AgentReport{};
    ++reset;
  }
  if (metrics_on) {
    SimMetrics::Get().cold_resets->Add();
    SimMetrics::Get().agents_reset->Add(reset);
  }
  Log(LogLevel::kInfo) << "scheduler crash at t=" << now << ": cold recovery reset " << reset
                       << " agents";
}

void Simulator::ProcessNet(double now) {
  if (net_ == nullptr) {
    return;
  }
  const bool metrics_on = obs::MetricsRegistry::Global().enabled();
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  for (const auto& transition : net_->PollTransitions(now)) {
    const std::pair<int, int> key{transition.rack ? 1 : 0, transition.index};
    const uint64_t track = transition.rack
                               ? kRackTrackBase + static_cast<uint64_t>(transition.index)
                               : kNodeTrackBase + static_cast<uint64_t>(transition.index);
    if (transition.down) {
      Emit(SimEvent{now, SimEventKind::kNetPartition, 0, transition.rack ? 1 : 0,
                    transition.index});
      partition_started_[key] = transition.time;
      if (metrics_on) {
        SimMetrics::Get().net_partitions->Add();
      }
      if (recorder.enabled() && transition.rack) {
        recorder.SetTrackName(obs::TraceRecorder::kSimPid, track,
                              "rack " + std::to_string(transition.index));
      }
    } else {
      Emit(SimEvent{now, SimEventKind::kNetHeal, 0, transition.rack ? 1 : 0,
                    transition.index});
      const auto it = partition_started_.find(key);
      if (it != partition_started_.end()) {
        if (recorder.enabled()) {
          recorder.EmitSimSpan(transition.rack ? "rack_partition" : "net_partition", track,
                               it->second, transition.time - it->second);
        }
        partition_started_.erase(it);
      }
    }
  }
  // Deliveries. Heartbeats and reports apply in delivery order; decisions
  // delivered at the same instant apply releases (shrinks) before grows, so
  // a GA rebalance whose messages land together does not spuriously bounce
  // the growing job on capacity the shrinking job is about to release.
  const std::vector<NetModel::Message> due = net_->PopDue(now + 1e-9);
  std::vector<const NetModel::Message*> grows;
  for (const auto& message : due) {
    if (message.kind == NetModel::MsgKind::kDecision) {
      long current = 0;
      for (const auto& job : jobs_) {
        if (job->spec.job_id == message.job_id && !job->finished) {
          current = job->placement.num_gpus;
          break;
        }
      }
      if (PlacementOf(message.row).num_gpus > current) {
        grows.push_back(&message);
        continue;
      }
    }
    DeliverNetMessage(message, now);
  }
  for (const NetModel::Message* message : grows) {
    DeliverNetMessage(*message, now);
  }
  if (metrics_on) {
    SimMetrics::Get().net_in_flight->Set(static_cast<double>(net_->InFlight()));
  }
}

void Simulator::DeliverNetMessage(const NetModel::Message& message, double now) {
  const bool metrics_on = obs::MetricsRegistry::Global().enabled();
  if (message.kind == NetModel::MsgKind::kHeartbeat) {
    if (message.node >= 0 && static_cast<size_t>(message.node) < last_heard_.size()) {
      last_heard_[static_cast<size_t>(message.node)] = now;
    }
    return;
  }
  if (metrics_on) {
    const SimMetrics& metrics = SimMetrics::Get();
    metrics.net_delivered->Add();
    metrics.net_delivery_delay->Record(now - message.sent_at);
  }
  Job* target = nullptr;
  for (auto& job : jobs_) {
    if (job->spec.job_id == message.job_id) {
      target = job.get();
      break;
    }
  }
  if (target == nullptr || target->finished) {
    return;  // The job completed while the message was in flight.
  }
  if (message.kind == NetModel::MsgKind::kReport) {
    if (message.payload_seq <= target->report_seq) {
      // Duplicate, or overtaken by a newer report that arrived first.
      if (metrics_on) {
        SimMetrics::Get().net_dup_reports->Add();
      }
      return;
    }
    target->report_seq = message.payload_seq;
    target->report = message.report;
    target->has_report = true;
    // Age counts from production, so transit delay ages the report too.
    target->last_report_time = message.sent_at;
    return;
  }
  // Allocation decision.
  if (message.payload_seq <= target->decision_seq) {
    // A duplicate copy, or a stale decision overtaken by a newer one.
    if (metrics_on) {
      SimMetrics::Get().net_decisions_suppressed->Add();
    }
    return;
  }
  target->decision_seq = message.payload_seq;
  // The decision was computed against the scheduler's (possibly lease-stale)
  // view; re-validate against the *physical* masked capacity at apply time.
  // Rows that no longer fit — the node crashed or was released while the
  // message was in flight, or the lease view overstated capacity — bounce:
  // the job keeps its current allocation and the scheduler retries from
  // fresher telemetry next round.
  std::vector<int> row = message.row;
  row.resize(cluster_.gpus_per_node.size(), 0);
  bool feasible = true;
  for (size_t n = cluster_.gpus_per_node.size(); n < message.row.size(); ++n) {
    if (message.row[n] > 0) {
      feasible = false;  // Targets a node the autoscaler released.
    }
  }
  if (feasible) {
    std::vector<long> usage(cluster_.gpus_per_node.size(), 0);
    for (const auto& job : jobs_) {
      if (job->finished || job.get() == target) {
        continue;
      }
      for (size_t n = 0; n < job->alloc.size() && n < usage.size(); ++n) {
        usage[n] += job->alloc[n];
      }
    }
    for (size_t n = 0; n < row.size(); ++n) {
      if (row[n] > 0 && usage[n] + row[n] > cluster_.gpus_per_node[n]) {
        feasible = false;
        break;
      }
    }
  }
  if (!feasible) {
    Emit(SimEvent{now, SimEventKind::kDecisionBounce, message.job_id,
                  PlacementOf(message.row).num_gpus, 0});
    if (metrics_on) {
      SimMetrics::Get().net_decisions_bounced->Add();
    }
    return;
  }
  ApplyAllocation(*target, row, now);
}

bool Simulator::JobSuffersInterference(const Job& job) const {
  if (options_.interference_slowdown <= 0.0 || job.placement.num_nodes < 2) {
    return false;
  }
  for (size_t n = 0; n < job.alloc.size(); ++n) {
    if (job.alloc[n] <= 0) {
      continue;
    }
    for (const auto& other : jobs_) {
      if (other.get() == &job || other->finished || other->placement.num_nodes < 2) {
        continue;
      }
      if (n < other->alloc.size() && other->alloc[n] > 0) {
        return true;
      }
    }
  }
  return false;
}

double Simulator::TrueJobIterTime(const Job& job) const {
  if (!cluster_.HasTopology()) {
    return job.profile->TrueIterTime(job.placement, job.batch);
  }
  // Summarize the row as (K, N, R) against the physical topology and find
  // the slowest GPU generation in the gang (synchronous data parallelism
  // paces every replica at the slowest one).
  std::vector<char> rack_seen(static_cast<size_t>(cluster_.NumRacks()), 0);
  RackPlacement placement;
  double scale = 1.0;
  bool any = false;
  for (size_t n = 0; n < job.alloc.size(); ++n) {
    if (job.alloc[n] <= 0) {
      continue;
    }
    placement.num_gpus += job.alloc[n];
    ++placement.num_nodes;
    const int rack = cluster_.RackOf(static_cast<int>(n));
    if (rack >= 0 && static_cast<size_t>(rack) < rack_seen.size() && !rack_seen[rack]) {
      rack_seen[static_cast<size_t>(rack)] = 1;
      ++placement.num_racks;
    }
    const double node_scale = cluster_.GpuScaleOf(static_cast<int>(n));
    scale = any ? std::min(scale, node_scale) : node_scale;
    any = true;
  }
  if (!any) {
    return job.profile->TrueIterTime(job.placement, job.batch);
  }
  return job.profile->TrueRackIterTime(placement, job.batch, cluster_.rack_link_factor, scale);
}

void Simulator::StepJob(Job& job, double now, double iter_time, double slow) {
  const double tick = options_.tick;
  const double throughput = static_cast<double>(job.batch) / iter_time * slow;
  const double efficiency = job.profile->TrueEfficiency(job.batch, job.ProgressFraction());
  const double rate = throughput * efficiency;
  const double remaining = job.TotalExamples() - job.progress;
  const double progress_before = job.progress;
  double step = tick;
  bool completes = false;
  if (rate * tick >= remaining - kProgressEpsilon) {
    step = remaining / rate;
    completes = true;
  }
  job.progress += rate * step;
  job.gpu_time += job.placement.num_gpus * step;
  job.run_seconds += step;
  job.eff_integral += efficiency * step;
  job.tput_integral += throughput * step;
  job.goodput_integral += rate * step;

  // Profiling: the agent observes the iteration time (inflated by any
  // interference) with multiplicative measurement noise, plus one gradient
  // moment sample per tick.
  const double observed_iter =
      iter_time / slow * std::exp(job.rng.Normal(0.0, options_.observation_noise));
  job.agent.RecordIteration(job.placement, job.batch, observed_iter);
  const double phi = job.profile->gns.PhiAt(job.ProgressFraction());
  GnsSample sample;
  sample.cov_trace = phi * std::exp(job.rng.Normal(0.0, options_.gns_noise));
  sample.grad_sqnorm = std::exp(job.rng.Normal(0.0, options_.gns_noise));
  job.agent.RecordGradientStats(sample);

  if (completes) {
    job.finished = true;
    // Exact completion time: re-solve the last step across any GNS
    // breakpoints it crosses. Progress and the integrals above stay on the
    // Euler step; only the recorded completion instant is refined.
    job.finish_time =
        now + SolveCompletionTime(*job.profile, job.batch, throughput, progress_before, tick);
    // Release the dense per-node row outright (not just zero it): at 10^5
    // jobs x 10^4 nodes the completed rows would otherwise pin gigabytes.
    // PlacementOf(empty) and every reader treat an empty row as "no GPUs".
    job.alloc.clear();
    job.alloc.shrink_to_fit();
    job.placement = Placement{};
    Emit(SimEvent{job.finish_time, SimEventKind::kComplete, job.spec.job_id, 0, 0});
  }
}

void Simulator::AdvanceJobSpan(Job& job, double from, double to) {
  if (job.finished || job.placement.num_gpus <= 0) {
    return;
  }
  const double tick = options_.tick;
  double now = from;
  if (job.restart_until > now) {
    // Skip the checkpoint-restart wait entirely: the job resumes at the
    // first tick boundary at or after restart_until (exact comparison, no
    // slack).
    const double resume = SimClock(tick).GridCeil(job.restart_until);
    if (resume >= to) {
      return;
    }
    now = std::max(now, resume);
  }
  if (job.start_time < 0.0) {
    job.start_time = now;
    Emit(SimEvent{now, SimEventKind::kStart, job.spec.job_id, job.placement.num_gpus,
                  job.placement.num_nodes});
  }
  // Placement, batch, and fault state are all event-bound, so these factors
  // are invariant across the span and hoisted out of the per-tick loop.
  // Interference is not (it reads other jobs' state mid-tick): this path is
  // only taken when interference injection is off.
  double slow = 1.0;
  if (faults_ != nullptr) {
    // A straggler node inflates the whole job's iteration time (synchronous
    // training paces at the slowest replica).
    slow /= faults_->JobSlowdown(job.alloc);
  }
  const double iter_time = TrueJobIterTime(job);
  if (iter_time <= 0.0) {
    return;
  }
  for (; now < to && !job.finished; now += tick) {
    StepJob(job, now, iter_time, slow);
  }
}

void Simulator::AdvanceSpan(double from, double to) {
  if (to <= from) {
    return;
  }
  if (options_.interference_slowdown <= 0.0) {
    CompactActive();
    for (size_t active_idx : active_) {
      AdvanceJobSpan(*jobs_[active_idx], from, to);
    }
    return;
  }
  // Interference couples jobs within a tick (a completion mid-tick speeds up
  // its node neighbors the same tick), so the jobs advance interleaved, one
  // tick at a time, with every factor recomputed each tick.
  for (double now = from; now < to; now += options_.tick) {
    CompactActive();
    for (size_t active_idx : active_) {
      Job& job = *jobs_[active_idx];
      if (!job.Running(now)) {
        continue;
      }
      if (job.start_time < 0.0) {
        job.start_time = now;
        Emit(SimEvent{now, SimEventKind::kStart, job.spec.job_id, job.placement.num_gpus,
                      job.placement.num_nodes});
      }
      double slow = JobSuffersInterference(job) ? 1.0 - options_.interference_slowdown : 1.0;
      if (faults_ != nullptr) {
        slow /= faults_->JobSlowdown(job.alloc);
      }
      const double iter_time = TrueJobIterTime(job);
      if (iter_time > 0.0) {
        StepJob(job, now, iter_time, slow);
      }
    }
  }
}

void Simulator::RecordTimelineSample(double now) {
  ClusterSample sample;
  sample.time = now;
  sample.nodes = cluster_.NumNodes();
  sample.total_gpus = cluster_.TotalGpus();
  double eff_sum = 0.0;
  CompactActive();
  for (size_t active_idx : active_) {
    const Job* const job = jobs_[active_idx].get();
    if (job->placement.num_gpus <= 0) {
      continue;
    }
    ++sample.running_jobs;
    sample.gpus_in_use += job->placement.num_gpus;
    eff_sum += job->profile->TrueEfficiency(job->batch, job->ProgressFraction());
    sample.max_batch_size = std::max(sample.max_batch_size, job->batch);
  }
  if (sample.running_jobs > 0) {
    sample.mean_efficiency = eff_sum / sample.running_jobs;
  }
  if (const auto* pollux = dynamic_cast<const PolluxPolicy*>(scheduler_)) {
    sample.utility = pollux->sched().last_utility();
  }
  result_.timeline.push_back(sample);
}

void Simulator::CheckInvariants(double now) {
  const auto fail = [&](const char* what) {
    std::fprintf(stderr, "simulator invariant violated at t=%.1f: %s\n", now, what);
    std::abort();
  };
  // 1. GPU capacity: per-node usage never exceeds the effective (fault-
  // masked) capacity, and no allocation survives on a failed node.
  std::vector<long> usage(cluster_.gpus_per_node.size(), 0);
  for (const auto& job : jobs_) {
    if (job->finished) {
      continue;
    }
    for (size_t n = 0; n < job->alloc.size(); ++n) {
      if (job->alloc[n] < 0) {
        fail("negative GPU allocation");
      }
      if (n < usage.size()) {
        usage[n] += job->alloc[n];
      } else if (job->alloc[n] > 0) {
        fail("allocation on a node outside the cluster");
      }
    }
  }
  for (size_t n = 0; n < usage.size(); ++n) {
    if (usage[n] > cluster_.gpus_per_node[n]) {
      fail("node capacity exceeded");
    }
  }
  // 2. No job lost or double-completed: every activated job is tracked, its
  // progress is within bounds, and finished implies released resources.
  for (const auto& job : jobs_) {
    if (job->progress < -kProgressEpsilon ||
        job->progress > job->TotalExamples() * (1.0 + 1e-9) + kProgressEpsilon) {
      fail("job progress out of bounds");
    }
    if (job->finished && job->placement.num_gpus != 0) {
      fail("finished job still holds GPUs");
    }
  }
  // 3. Event log monotonicity, and no job completes twice. The log is
  // flushed sorted by time, so it is held to non-decreasing order (up to
  // 1e-9 of rounding). Only events appended since the last check are
  // scanned.
  for (; checked_events_ < result_.events.size(); ++checked_events_) {
    const SimEvent& event = result_.events[checked_events_];
    if (event.time + 1e-9 < max_event_time_) {
      fail("event log not monotone in time");
    }
    max_event_time_ = std::max(max_event_time_, event.time);
    if (event.kind == SimEventKind::kComplete) {
      for (const auto& job : jobs_) {
        if (job->spec.job_id == event.job_id && !job->finished) {
          fail("completion event for an unfinished job");
        }
      }
      for (size_t e = 0; e < checked_events_; ++e) {
        if (result_.events[e].kind == SimEventKind::kComplete &&
            result_.events[e].job_id == event.job_id) {
          fail("job completed twice");
        }
      }
    }
  }
}

bool Simulator::AllJobsFinished() const {
  if (next_submission_ < trace_.size()) {
    return false;
  }
  CompactActive();
  return active_.empty();
}

double Simulator::RunEvent() {
  const SimClock clock(options_.tick);
  // Same-instant events dispatch in this fixed handler order: submissions
  // arrive before faults strike, the network delivers before reports are
  // cut, and the scheduler sees this instant's reports before autoscaling
  // and checkpoints act on its decisions.
  enum : int {
    kSubmission = 0,
    kFaultPoll = 1,
    kNet = 2,
    kReport = 3,
    kSched = 4,
    kAutoscale = 5,
    kCheckpoint = 6,
  };
  EventQueue<int> queue;
  RecurringTimer report_timer(0.0, options_.report_interval);
  RecurringTimer sched_timer(0.0, options_.sched_interval);
  RecurringTimer autoscale_timer(options_.autoscale_interval, options_.autoscale_interval);
  const bool checkpointing =
      options_.checkpoint_every > 0.0 && !options_.checkpoint_dir.empty();
  RecurringTimer ckpt_timer(options_.checkpoint_every, options_.checkpoint_every);
  double resume_from = 0.0;
  uint64_t dispatched = 0;
  if (loop_.valid) {
    // Resuming: restore every timer's (threshold, last_fire) so the handler
    // schedule continues exactly where the interrupted run left off, and the
    // dispatch count so sim.engine.events covers the whole logical run.
    resume_from = loop_.now;
    report_timer.RestoreState(loop_.report_threshold, loop_.report_last);
    sched_timer.RestoreState(loop_.sched_threshold, loop_.sched_last);
    autoscale_timer.RestoreState(loop_.autoscale_threshold, loop_.autoscale_last);
    ckpt_timer.RestoreState(loop_.ckpt_threshold, loop_.ckpt_last);
    dispatched = loop_.engine_events;
    loop_.valid = false;
  }
  queue.Push(report_timer.NextFireTime(clock), kReport, kReport);
  queue.Push(sched_timer.NextFireTime(clock), kSched, kSched);
  if (autoscaler_ != nullptr) {
    queue.Push(autoscale_timer.NextFireTime(clock), kAutoscale, kAutoscale);
  }
  if (checkpointing) {
    queue.Push(ckpt_timer.NextFireTime(clock), kCheckpoint, kCheckpoint);
  }
  // Fresh runs enqueue the whole trace (next_submission_ is 0); resumed runs
  // only the not-yet-activated suffix.
  for (size_t i = next_submission_; i < trace_.size(); ++i) {
    queue.Push(clock.GridCeil(trace_[i].submit_time), kSubmission, kSubmission);
  }
  // Fault polls are armed lazily at the grid point covering the injector's
  // earliest pending transition. Poll only draws RNG when a transition
  // actually fires, so polling at exactly those instants draws the same
  // sequence as polling every tick would. Stale queued polls (re-armed
  // earlier by a resize) are harmless no-ops.
  double armed_fault_poll = std::numeric_limits<double>::infinity();
  const auto arm_fault_poll = [&] {
    if (faults_ == nullptr) {
      return;
    }
    const double at = clock.GridCeil(faults_->NextTransitionTime());
    if (std::isfinite(at) && at < armed_fault_poll) {
      queue.Push(at, kFaultPoll, kFaultPoll);
      armed_fault_poll = at;
    }
  };
  arm_fault_poll();
  // Net events (partition transitions + message deliveries) are armed the
  // same lazy way. Transitions land on the exact grid ceiling (Partitioned()
  // compares without slack); deliveries take the 1e-9 grid slack, matching
  // ProcessNet's PopDue(now + 1e-9) scan.
  double armed_net = std::numeric_limits<double>::infinity();
  const auto arm_net = [&] {
    if (net_ == nullptr) {
      return;
    }
    double at = clock.GridCeil(net_->NextTransitionTime());
    const double delivery = net_->NextDeliveryTime();
    if (std::isfinite(delivery)) {
      at = std::min(at, clock.GridCeilSlack(delivery));
    }
    if (std::isfinite(at) && at < armed_net) {
      queue.Push(at, kNet, kNet);
      armed_net = at;
    }
  };
  arm_net();

  bool checkpoint_due = false;
  const auto dispatch_at = [&](double t) {
    while (!queue.empty() && queue.Top().time == t) {
      const int what = queue.Pop().payload;
      if (what == kCheckpoint) {
        // Checkpoints are invisible to the simulation: excluded from the
        // dispatch count (so sim.engine.events matches a run without them)
        // and deferred until after this instant's flush/invariants so the
        // snapshot captures a consistent post-dispatch state.
        checkpoint_due = true;
        ckpt_timer.Fired(t);
        queue.Push(ckpt_timer.NextFireTime(clock), kCheckpoint, kCheckpoint);
        continue;
      }
      ++dispatched;
      switch (what) {
        case kSubmission:
          ActivateSubmissions(t);
          break;
        case kFaultPoll:
          if (t >= armed_fault_poll) {
            armed_fault_poll = std::numeric_limits<double>::infinity();
          }
          ProcessFaults(t);
          arm_fault_poll();
          break;
        case kNet:
          if (t >= armed_net) {
            armed_net = std::numeric_limits<double>::infinity();
          }
          ProcessNet(t);
          arm_net();
          break;
        case kReport:
          RefreshReports(t);
          // Reports and heartbeats just entered the channel; arm their
          // delivery instants.
          arm_net();
          report_timer.Fired(t);
          queue.Push(report_timer.NextFireTime(clock), kReport, kReport);
          break;
        case kSched:
          RunSchedulingRound(t);
          // Decision messages may now be in flight.
          arm_net();
          RecordTimelineSample(t);
          sched_timer.Fired(t);
          queue.Push(sched_timer.NextFireTime(clock), kSched, kSched);
          break;
        case kAutoscale:
          RunAutoscaling(t);
          // The resize may have added nodes whose first transition precedes
          // the currently armed poll (fault or partition track).
          arm_fault_poll();
          arm_net();
          autoscale_timer.Fired(t);
          queue.Push(autoscale_timer.NextFireTime(clock), kAutoscale, kAutoscale);
          break;
        default:
          break;
      }
    }
  };

  double advanced_to = resume_from;
  double final_now = -1.0;
  while (!queue.empty()) {
    const double t = queue.Top().time;
    if (t >= options_.max_time) {
      break;  // Handlers only run while now < max_time.
    }
    const double span_start = advanced_to;
    AdvanceSpan(span_start, t);
    advanced_to = t;
    if (AllJobsFinished()) {
      // The run ends at the first tick boundary at or after the last
      // completion, right after running any handlers due at that instant;
      // node_seconds only counts the time before it.
      double t_end = span_start;
      for (const auto& job : jobs_) {
        t_end = std::max(t_end, clock.GridCeil(job->finish_time));
      }
      result_.node_seconds += cluster_.NumNodes() * (t_end - span_start);
      if (t_end == t) {
        dispatch_at(t);
      }
      FlushPendingEvents();
      final_now = t_end;
      break;
    }
    result_.node_seconds += cluster_.NumNodes() * (t - span_start);
    dispatch_at(t);
    FlushPendingEvents();
    if (options_.check_invariants) {
      CheckInvariants(t);
    }
    if (checkpoint_due) {
      checkpoint_due = false;
      loop_.valid = true;
      loop_.now = t;
      loop_.report_threshold = report_timer.threshold();
      loop_.report_last = report_timer.last_fire();
      loop_.sched_threshold = sched_timer.threshold();
      loop_.sched_last = sched_timer.last_fire();
      loop_.autoscale_threshold = autoscale_timer.threshold();
      loop_.autoscale_last = autoscale_timer.last_fire();
      loop_.ckpt_threshold = ckpt_timer.threshold();
      loop_.ckpt_last = ckpt_timer.last_fire();
      loop_.engine_events = dispatched;
      WritePeriodicSnapshot(t);
      loop_.valid = false;
      if (options_.halt_after_checkpoint > 0.0 &&
          t + 1e-9 >= options_.halt_after_checkpoint) {
        engine_events_ = dispatched;
        SimMetrics::Get().engine_events->Add(dispatched);
        result_.halted = true;
        return t;
      }
    }
  }
  if (final_now < 0.0) {
    // Horizon reached (or, defensively, an empty queue): advance jobs up to
    // the first tick boundary at or after max_time before stopping.
    const double t_final = clock.GridCeil(options_.max_time);
    AdvanceSpan(advanced_to, t_final);
    result_.node_seconds += cluster_.NumNodes() * (t_final - advanced_to);
    FlushPendingEvents();
    final_now = t_final;
  }
  engine_events_ = dispatched;
  SimMetrics::Get().engine_events->Add(dispatched);
  return final_now;
}

namespace {

// The config echo at the head of kTagSimCore: a snapshot resumed under a
// different seed, tick, or trace cannot silently produce a diverged run.
struct RunEcho {
  uint64_t seed = 0;
  double tick = 0.0;
  uint64_t trace_size = 0;
  bool operator==(const RunEcho&) const = default;
};

template <class Io>
void Fields(Io& io, RunEcho& echo) {
  io.U64(echo.seed);
  io.F64(echo.tick);
  io.U64(echo.trace_size);
}

// kTagTopology, once per cluster copy: a presence flag, then the rack link
// factor and the per-node annotations.
template <class Io>
void TopologyFields(Io& io, ClusterSpec& cluster) {
  bool annotated = cluster.HasTopology();
  io.Bool(annotated);
  if (annotated) {
    io.FiniteF64(cluster.rack_link_factor);
    NodeAnnotationFields(io, cluster);
  } else if constexpr (Io::kDecode) {
    cluster.rack_link_factor = 1.0;
    cluster.rack_of_node.clear();
    cluster.gpu_type_of_node.clear();
    cluster.node_gpu_scale.clear();
  }
}

template <class Io>
void Fields(Io& io, FaultInjector::State& state) {
  for (Rng::State* rng : {&state.report_rng, &state.restart_rng, &state.sched_rng}) {
    Fields(io, *rng);
  }
  io.F64(state.next_sched_crash);
  io.List(state.nodes, kMaxCount, [](auto& list_io, FaultInjector::State::Node& node) {
    Fields(list_io, node.rng);
    list_io.Bool(node.failed);
    list_io.Bool(node.straggler);
    list_io.F64(node.next_transition);
  });
  io.U64(state.nodes_created);
}

template <class Io>
void Fields(Io& io, NetModel::State& state) {
  for (auto* channels : {&state.report_channels, &state.decision_channels}) {
    io.List(*channels, kMaxLargeCount, [](auto& list_io, NetModel::State::Channel& channel) {
      list_io.U64(channel.job_id);
      Fields(list_io, channel.rng);
      list_io.F64(channel.burst_until);
      list_io.U64(channel.next_seq);
    });
  }
  for (auto* tracks : {&state.node_tracks, &state.rack_tracks}) {
    io.List(*tracks, kMaxCount, [](auto& list_io, NetModel::State::Track& track) {
      Fields(list_io, track.rng);
      list_io.Bool(track.head_down);
      list_io.F64(track.tail_time);
      list_io.List(track.pending, kMaxLargeCount,
                   [](auto& flip_io, double& flip) { flip_io.F64(flip); });
    });
  }
  io.List(state.messages, kMaxLargeCount, [](auto& list_io, NetModel::Message& message) {
    list_io.Enum(message.kind, NetModel::MsgKind::kHeartbeat);
    list_io.F64(message.deliver_at);
    list_io.U64(message.seq);
    list_io.U64(message.job_id);
    list_io.I64(message.node);
    list_io.U64(message.payload_seq);
    list_io.F64(message.sent_at);
    Fields(list_io, message.report);
    list_io.IntVec(message.row);
  });
  io.U64(state.next_msg_seq);
  io.U64(state.node_tracks_created);
  io.U64(state.rack_tracks_created);
}

// kTagResult: the event log, the timeline, and node-second accounting.
template <class Io>
void ResultFields(Io& io, SimResult& result) {
  io.List(result.events, kUncapped, [](auto& list_io, SimEvent& event) {
    list_io.F64(event.time);
    list_io.Enum(event.kind, SimEventKind::kDecisionBounce);
    list_io.U64(event.job_id);
    list_io.I64(event.gpus);
    list_io.I64(event.nodes);
  });
  io.List(result.timeline, kUncapped, [](auto& list_io, ClusterSample& sample) {
    list_io.F64(sample.time);
    for (int* count : {&sample.nodes, &sample.total_gpus, &sample.gpus_in_use,
                       &sample.running_jobs}) {
      list_io.I64(*count);
    }
    list_io.F64(sample.mean_efficiency);
    list_io.F64(sample.utility);
    list_io.I64(sample.max_batch_size);
  });
  io.F64(result.node_seconds);
}

bool LoadFail(std::string* error, const std::string& path, const std::string& message) {
  if (error != nullptr) {
    *error = path + ": " + message;
  }
  return false;
}

}  // namespace

template <class Io>
void Simulator::CoreFields(Io& io) {
  io.IntVec(cluster_.gpus_per_node);
  io.IntVec(base_cluster_.gpus_per_node);
  StateFields(io, rng_);
  io.U64(next_submission_);
  io.U64(checked_events_);
  io.F64(max_event_time_);
}

template <class Io>
void Simulator::JobFields(Io& io, Job& job) {
  StateFields(io, job.agent);
  StateFields(io, job.rng);
  io.IntVec(job.alloc);
  if constexpr (Io::kDecode) job.placement = PlacementOf(job.alloc);
  io.I64(job.batch);
  io.F64(job.progress);
  io.Bool(job.finished);
  for (double* time : {&job.restart_until, &job.start_time, &job.finish_time, &job.gpu_time}) {
    io.F64(*time);
  }
  for (int* count : {&job.restarts, &job.evictions, &job.restart_failures}) io.I64(*count);
  io.F64(job.backoff_seconds);
  io.Bool(job.has_report);
  io.F64(job.last_report_time);
  Fields(io, job.report);
  io.U64(job.report_seq);
  io.U64(job.decision_seq);
  io.F64(job.run_seconds);
  io.F64(job.eff_integral);
  io.F64(job.tput_integral);
  io.F64(job.goodput_integral);
}

template <class Io>
void Simulator::NetFields(Io& io, NetModel::State& state) {
  Fields(io, state);
  io.List(last_heard_, kMaxCount, [](auto& list_io, double& heard) { list_io.F64(heard); });
  io.Map(partition_started_, kMaxCount, [](auto& map_io, std::pair<int, int>& key, double& start) {
    map_io.U32(key.first);
    map_io.I64(key.second);
    map_io.F64(start);
  });
}

template <class Io>
void Simulator::LoopFields(Io& io) {
  io.Bool(loop_.valid);
  for (double* value : {&loop_.now, &loop_.report_threshold, &loop_.report_last,
                        &loop_.sched_threshold, &loop_.sched_last, &loop_.autoscale_threshold,
                        &loop_.autoscale_last, &loop_.ckpt_threshold, &loop_.ckpt_last}) {
    io.F64(*value);
  }
  io.U64(loop_.engine_events);
}

bool Simulator::SaveSnapshot(const std::string& path, std::string* error) {
  std::map<uint32_t, std::string> sections;
  sections[kTagExtra] = EncodeSnapshotExtra(snapshot_extra_);
  const auto encode = [&sections](uint32_t tag, const auto& fields) {
    BinWriter out;
    fields(out);
    sections[tag] = std::move(out).str();
  };
  encode(kTagSimCore, [this](BinWriter& out) {
    out.Put(RunEcho{options_.seed, options_.tick, trace_.size()});
    CoreFields(out);
  });
  encode(kTagJobs, [this](BinWriter& out) {
    out.PutU64(jobs_.size());
    for (const auto& job : jobs_) {
      out.PutU64(job->spec.job_id);
      JobFields(out, *job);
    }
  });
  encode(kTagFaults, [this](BinWriter& out) {
    out.PutBool(faults_ != nullptr);
    if (faults_ != nullptr) {
      FaultInjector::State state = faults_->GetState();
      Fields(out, state);
    }
  });
  encode(kTagNet, [this](BinWriter& out) {
    out.PutBool(net_ != nullptr);
    if (net_ != nullptr) {
      NetModel::State state = net_->GetState();
      NetFields(out, state);
    }
  });
  scheduler_->SaveState(&sections[kTagScheduler]);
  // Both cluster copies. The section is written even for flat runs (two false
  // flags) so save -> load -> save is byte-identical; it matters after an
  // autoscale resize, where the annotation vectors no longer match the
  // construction-time options.
  encode(kTagTopology, [this](BinWriter& out) {
    TopologyFields(out, cluster_);
    TopologyFields(out, base_cluster_);
  });
  encode(kTagResult, [this](BinWriter& out) { ResultFields(out, result_); });
  encode(kTagLoop, [this](BinWriter& out) { LoopFields(out); });

  SnapshotMeta meta;
  meta.sim_time = loop_.now;
  meta.engine = "sim";
  meta.policy = snapshot_extra_.policy;
  meta.seed = options_.seed;
  meta.jobs_submitted = jobs_.size();
  for (const auto& job : jobs_) {
    meta.jobs_finished += job->finished ? 1 : 0;
  }
  meta.events = result_.events.size();
  if (!WriteSnapshotFile(path, sections, meta, error)) {
    return false;
  }
  if (obs::MetricsRegistry::Global().enabled()) {
    SimMetrics::Get().checkpoint_writes->Add();
  }
  return true;
}

bool Simulator::LoadSnapshot(const std::string& path, std::string* error) {
  std::map<uint32_t, std::string> sections;
  if (!ReadSnapshotFile(path, &sections, error, kMinSimSnapshotVersion)) {
    return false;
  }
  for (const uint32_t tag : {kTagSimCore, kTagJobs, kTagFaults, kTagScheduler, kTagResult,
                             kTagLoop, kTagNet, kTagTopology}) {
    if (sections.find(tag) == sections.end()) {
      return LoadFail(error, path, "missing section " + std::to_string(tag));
    }
  }

  {
    BinReader in(sections[kTagSimCore]);
    const RunEcho echo = in.Get<RunEcho>();
    if (!in.ok() || !(echo == RunEcho{options_.seed, options_.tick, trace_.size()})) {
      return LoadFail(error, path,
                      "snapshot was written under an incompatible run configuration "
                      "(seed/tick/trace mismatch)");
    }
    CoreFields(in);
    if (!in.ok() || !in.AtEnd() || next_submission_ > trace_.size()) {
      return LoadFail(error, path, "malformed core section");
    }
  }

  {
    BinReader in(sections[kTagJobs]);
    uint64_t count = 0;
    in.Count(count, kUncapped, 8);  // Each job starts with its u64 id.
    if (!in.ok() || count != next_submission_) {
      return LoadFail(error, path, "job count does not match the submission cursor");
    }
    AgentConfig agent_config;
    if (options_.faults.enabled()) {
      agent_config.robust_fitting = true;
    }
    jobs_.clear();
    for (uint64_t i = 0; i < count && in.ok(); ++i) {
      const JobSpec& spec = trace_[static_cast<size_t>(i)];
      if (in.GetU64() != spec.job_id) {
        return LoadFail(error, path, "job order does not match the trace");
      }
      auto job = std::make_unique<Job>(spec, GetModelProfile(spec.model),
                                       scheduler_->adapts_batch_size(), Rng(0), agent_config);
      JobFields(in, *job);
      jobs_.push_back(std::move(job));
    }
    if (!in.ok() || !in.AtEnd()) {
      return LoadFail(error, path, "malformed job section");
    }
    active_.clear();
    for (size_t i = 0; i < jobs_.size(); ++i) {
      if (!jobs_[i]->finished) {
        active_.push_back(i);
      }
    }
  }

  // Runs a section's field list; true when it decoded the whole payload.
  const auto decode = [&sections](uint32_t tag, const auto& fields) {
    BinReader in(sections[tag]);
    fields(in);
    return in.ok() && in.AtEnd();
  };
  const bool topology_ok = decode(kTagTopology, [this](BinReader& in) {
    TopologyFields(in, cluster_);
    TopologyFields(in, base_cluster_);
  });
  if (!topology_ok) {
    return LoadFail(error, path, "malformed topology section");
  }

  {
    BinReader in(sections[kTagFaults]);
    const bool present = in.GetBool();
    if (present != (faults_ != nullptr)) {
      return LoadFail(error, path, "fault-injection configuration mismatch");
    }
    if (present) {
      FaultInjector::State state;
      Fields(in, state);
      if (!in.ok() || !in.AtEnd()) {
        return LoadFail(error, path, "malformed fault section");
      }
      faults_->SetState(state);
    }
  }

  {
    BinReader in(sections[kTagNet]);
    const bool present = in.GetBool();
    if (present != (net_ != nullptr)) {
      return LoadFail(error, path, "network-model configuration mismatch");
    }
    if (present) {
      NetModel::State state;
      NetFields(in, state);
      if (!in.ok() || !in.AtEnd()) {
        return LoadFail(error, path, "malformed network section");
      }
      net_->SetState(state);
    }
  }

  if (!scheduler_->LoadState(sections[kTagScheduler])) {
    return LoadFail(error, path,
                    std::string("scheduler '") + scheduler_->name() +
                        "' rejected the snapshot's control-plane state");
  }

  if (!decode(kTagResult, [this](BinReader& in) { ResultFields(in, result_); })) {
    return LoadFail(error, path, "malformed result section");
  }
  if (!decode(kTagLoop, [this](BinReader& in) { LoopFields(in); })) {
    return LoadFail(error, path, "malformed loop section");
  }

  if (obs::MetricsRegistry::Global().enabled()) {
    // Replay the restored event log into the per-kind counters so the final
    // sim.events.* exports cover the whole logical run, not just the portion
    // after the resume.
    const SimMetrics& metrics = SimMetrics::Get();
    for (const auto& event : result_.events) {
      metrics.events_by_kind[static_cast<int>(event.kind)]->Add();
    }
    metrics.checkpoint_resumes->Add();
  }
  Log(LogLevel::kInfo) << "resumed from snapshot " << path << " at t=" << loop_.now << " ("
                       << jobs_.size() << " jobs, " << result_.events.size() << " events)";
  return true;
}

void Simulator::WritePeriodicSnapshot(double now) {
  const std::string path = options_.checkpoint_dir + "/" + SnapshotFileName(now);
  std::string error;
  if (!SaveSnapshot(path, &error)) {
    // A missed checkpoint is not fatal; the previous snapshot (if any) still
    // bounds the replay on recovery.
    Log(LogLevel::kWarning) << "checkpoint write failed at t=" << now << ": " << error;
  }
}

SimResult Simulator::Run() {
  const auto wall_start = std::chrono::steady_clock::now();
  const double now = RunEvent();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  if (options_.check_invariants) {
    CheckInvariants(now);
  }
  result_.timed_out = !AllJobsFinished();
  result_.makespan = 0.0;
  for (const auto& job : jobs_) {
    JobResult job_result;
    job_result.job_id = job->spec.job_id;
    job_result.model = job->spec.model;
    job_result.category = job->profile->category;
    job_result.submit_time = job->spec.submit_time;
    job_result.start_time = job->start_time;
    job_result.finish_time = job->finished ? job->finish_time : now;
    job_result.gpu_time = job->gpu_time;
    job_result.num_restarts = job->restarts;
    job_result.num_evictions = job->evictions;
    job_result.num_restart_failures = job->restart_failures;
    job_result.backoff_seconds = job->backoff_seconds;
    job_result.completed = job->finished;
    if (job->run_seconds > 0.0) {
      job_result.avg_efficiency = job->eff_integral / job->run_seconds;
      job_result.avg_throughput = job->tput_integral / job->run_seconds;
      job_result.avg_goodput = job->goodput_integral / job->run_seconds;
    }
    result_.makespan = std::max(result_.makespan, job_result.finish_time);
    result_.jobs.push_back(job_result);
  }
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  if (recorder.enabled()) {
    // One sim-time span per job lifetime (start -> finish, or the horizon
    // for unfinished jobs), each on its own track.
    for (const auto& job : result_.jobs) {
      if (job.start_time < 0.0) {
        continue;
      }
      const uint64_t track = job.job_id;
      recorder.SetTrackName(obs::TraceRecorder::kSimPid, track,
                            "job " + std::to_string(job.job_id));
      recorder.EmitSimSpan(std::string(ModelKindName(job.model)) +
                               (job.completed ? "" : " (unfinished)"),
                           track, job.start_time, job.finish_time - job.start_time);
    }
  }
  if (obs::MetricsRegistry::Global().enabled()) {
    const SimMetrics& metrics = SimMetrics::Get();
    metrics.avg_goodput->Set(result_.AvgJobGoodput());
    metrics.avg_throughput->Set(result_.AvgJobThroughput());
    metrics.avg_efficiency->Set(result_.AvgClusterEfficiency());
    metrics.avg_jct_s->Set(result_.JctSummary().mean);
    metrics.makespan_s->Set(result_.makespan);
    metrics.run_wall_s->Set(wall_seconds);
    if (wall_seconds > 0.0) {
      metrics.engine_events_per_s->Set(static_cast<double>(engine_events_) / wall_seconds);
    }
  }
  return result_;
}

Summary SimResult::JctSummary() const {
  std::vector<double> jcts;
  jcts.reserve(jobs.size());
  for (const auto& job : jobs) {
    jcts.push_back(job.Jct());
  }
  return Summarize(jcts);
}

double SimResult::AvgClusterEfficiency() const {
  double total = 0.0;
  int samples = 0;
  for (const auto& sample : timeline) {
    if (sample.running_jobs > 0) {
      total += sample.mean_efficiency;
      ++samples;
    }
  }
  return samples > 0 ? total / samples : 0.0;
}

double SimResult::AvgUtilization() const {
  double total = 0.0;
  int samples = 0;
  for (const auto& sample : timeline) {
    if (sample.running_jobs > 0 && sample.total_gpus > 0) {
      // gpus_in_use relative to the cluster size at that instant (the
      // denominator matters under autoscaling).
      total += static_cast<double>(sample.gpus_in_use) / sample.total_gpus;
      ++samples;
    }
  }
  return samples > 0 ? total / samples : 0.0;
}

double SimResult::AvgJobThroughput() const {
  double total = 0.0;
  for (const auto& job : jobs) {
    total += job.avg_throughput;
  }
  return jobs.empty() ? 0.0 : total / static_cast<double>(jobs.size());
}

double SimResult::AvgJobGoodput() const {
  double total = 0.0;
  for (const auto& job : jobs) {
    total += job.avg_goodput;
  }
  return jobs.empty() ? 0.0 : total / static_cast<double>(jobs.size());
}

}  // namespace pollux
