// Discrete-event cluster simulator (Sec. 5.3).
//
// The simulator replays a trace of job submissions on a discrete-event loop
// that jumps between scheduled events (reports, scheduling rounds,
// autoscaling, fault transitions, submissions) and advances job progress in
// tick-sized steps across the spans in between, without paying per-tick
// handler overhead during inactivity. Each job's actual speed comes from its
// model profile's hidden ground truth (throughput params + GNS trajectory);
// its PolluxAgent only sees noisy observations and must model the job
// online, exactly as in a real deployment. Reproduced system effects, matching the paper's
// simulator: placement-dependent synchronization time, 30-second
// checkpoint-restart delays on reallocation, and optional network
// interference between distributed jobs sharing a node. Progress is
// accounted in reference examples so both system throughput and statistical
// efficiency determine completion times.

#ifndef POLLUX_SIM_SIMULATOR_H_
#define POLLUX_SIM_SIMULATOR_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/allocation.h"
#include "sim/autoscale.h"
#include "sim/checkpoint.h"
#include "sim/fault_injector.h"
#include "sim/netmodel.h"
#include "sim/scheduler.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "workload/trace_gen.h"

namespace pollux {

struct SimOptions {
  ClusterSpec cluster;
  double tick = 1.0;                   // Simulation step, seconds.
  double sched_interval = 60.0;        // PolluxSched cadence (Sec. 5.1).
  double report_interval = 30.0;       // PolluxAgent cadence (Sec. 5.1).
  double restart_delay = 30.0;         // Checkpoint-restart cost (Sec. 5.3).
  double interference_slowdown = 0.0;  // Fig. 9 injection: 0, 0.25, 0.5.
  double observation_noise = 0.05;     // Lognormal sigma on profiled T_iter.
  double gns_noise = 0.10;             // Lognormal sigma on gradient moments.
  double max_time = 14.0 * 24.0 * 3600.0;
  uint64_t seed = 1;
  // Width of the simulator's report-refresh pool: the agents' theta_sys
  // fits and batch-size tuning for the jobs due a report run on this many
  // threads. The simulated outcome is identical for every value. The
  // scheduling policy's own threads are configured separately (e.g.
  // GaOptions::threads). 1 = single-threaded, 0 = hardware concurrency.
  int sched_threads = 1;

  // Cloud autoscaling (Fig. 10): when an autoscaler is attached, the cluster
  // is resized to its decision every autoscale_interval.
  double autoscale_interval = 300.0;
  int gpus_per_node = 4;

  // Fault injection (node crashes, stragglers, report loss, restart
  // failures). All-zero knobs (the default) mean no injector is constructed
  // and simulated traces are byte-identical to fault-free behavior.
  FaultOptions faults;
  // Control-plane network model (latency/jitter, loss and loss bursts,
  // duplication, reordering, node/rack partitions). All-zero knobs (the
  // default, --net-profile=none) mean no NetModel is constructed: reports and
  // decisions move synchronously and runs are byte-identical to
  // pre-netmodel behavior. When enabled, reports/decisions travel as
  // sequence-numbered in-flight messages and node liveness is lease-based
  // (NetOptions::lease_intervals) unless NetOptions::naive_masking asks for
  // the instant-masking baseline. See DESIGN.md §12.
  NetOptions net;
  // Topology A/B baseline arm (bench_topology): the physical cluster keeps
  // its rack/GPU-type annotations (ground-truth job speeds stay
  // topology-aware) but every cluster the *scheduler* sees is stripped to the
  // flat model, so placement decisions cannot exploit rack locality or GPU
  // generations. No effect when the cluster has no topology annotations.
  bool scheduler_topology_blind = false;
  // Run the simulator's invariant checker (capacity conservation, no
  // lost/double-completed jobs, monotone event log) at every event instant;
  // violations abort. Cheap, but off by default.
  bool check_invariants = false;

  // Crash-consistent checkpointing (DESIGN.md §11): every checkpoint_every
  // simulated seconds, a full snapshot of the run state is written to
  // checkpoint_dir (ckpt-<ms>.bin + .json sidecar). 0 disables. Resuming from
  // a snapshot continues the run byte-identically to an uninterrupted one.
  double checkpoint_every = 0.0;
  std::string checkpoint_dir;
  // Deterministic kill switch for crash-resume testing: stop the run (with
  // SimResult::halted set) right after the first snapshot written at or past
  // this simulated time. 0 disables. Never persisted into snapshots, so a
  // resumed run does not re-halt.
  double halt_after_checkpoint = 0.0;
};

struct JobResult {
  uint64_t job_id = 0;
  ModelKind model = ModelKind::kResNet18Cifar10;
  JobCategory category = JobCategory::kSmall;
  double submit_time = 0.0;
  double start_time = -1.0;
  double finish_time = -1.0;
  double gpu_time = 0.0;
  int num_restarts = 0;
  // Fault accounting: allocations lost to node crashes (disjoint from
  // num_restarts' voluntary reallocations), failed checkpoint-restore
  // attempts, and the total retry backoff the job sat through.
  int num_evictions = 0;
  int num_restart_failures = 0;
  double backoff_seconds = 0.0;
  bool completed = false;
  // Time-averaged statistics while the job was running.
  double avg_efficiency = 0.0;
  double avg_throughput = 0.0;
  double avg_goodput = 0.0;

  double Jct() const { return finish_time - submit_time; }
};

// Structured lifecycle event, for post-hoc analysis and debugging.
enum class SimEventKind {
  kSubmit,          // Job arrived.
  kStart,           // Job ran its first iteration.
  kReallocate,      // Job's allocation changed (gpus/nodes = new placement).
  kPreempt,         // Job's allocation dropped to zero.
  kComplete,        // Job finished.
  kClusterResize,   // Autoscaler changed the node count (nodes = new count).
  kNodeFail,        // Node crashed (nodes = node index).
  kNodeRepair,      // Node came back (nodes = node index).
  kEvict,           // Job lost its allocation to a node crash.
  kRestartFailure,  // One checkpoint-restore attempt failed (gpus = attempt).
  kReportDrop,      // An agent report was lost in transit.
  kSchedCrash,      // Scheduler process crashed and recovered (warm or cold).
  kNetPartition,    // Control-plane partition began (nodes = node index, or
                    // gpus = 1 with nodes = rack index for rack scope).
  kNetHeal,         // Control-plane partition healed (same addressing).
  kDecisionBounce,  // A delivered allocation decision conflicted with the
                    // physical cluster (lease-masked telemetry) and was
                    // rejected at apply time.
};

const char* SimEventKindName(SimEventKind kind);

struct SimEvent {
  double time = 0.0;
  SimEventKind kind = SimEventKind::kSubmit;
  uint64_t job_id = 0;  // Unused for kClusterResize.
  int gpus = 0;
  int nodes = 0;
};

// One sample of cluster-level state, recorded every scheduling interval.
struct ClusterSample {
  double time = 0.0;
  int nodes = 0;
  int total_gpus = 0;
  int gpus_in_use = 0;
  int running_jobs = 0;
  double mean_efficiency = 0.0;  // True statistical efficiency of running jobs.
  double utility = 0.0;          // Pollux policies only; 0 otherwise.
  long max_batch_size = 0;       // Largest batch among running jobs.
};

struct SimResult {
  std::vector<JobResult> jobs;
  std::vector<ClusterSample> timeline;
  std::vector<SimEvent> events;
  double makespan = 0.0;
  double node_seconds = 0.0;  // For cloud cost accounting.
  bool timed_out = false;
  // The run stopped early at SimOptions::halt_after_checkpoint (the snapshot
  // on disk carries the state to resume from).
  bool halted = false;

  Summary JctSummary() const;
  // Time-weighted average of ClusterSample::mean_efficiency over samples with
  // at least one running job.
  double AvgClusterEfficiency() const;
  // Average fraction of cluster GPUs in use over samples with at least one
  // active job.
  double AvgUtilization() const;
  double AvgJobThroughput() const;
  double AvgJobGoodput() const;
};

class Simulator {
 public:
  // `scheduler` must outlive the simulator; `autoscaler` may be null.
  Simulator(SimOptions options, std::vector<JobSpec> trace, Scheduler* scheduler,
            ClusterAutoscaler* autoscaler = nullptr);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimResult Run();

  // Driver payload embedded in every snapshot (policy name, driver config
  // serialization, trace CSV) so a resume can rebuild the run without the
  // original command line. Set before Run() when checkpointing is enabled.
  void SetSnapshotExtra(SnapshotExtra extra) { snapshot_extra_ = std::move(extra); }

  // Writes a full crash-consistent snapshot of the current run state. Returns
  // false (with `error` set) on I/O failure. Call either between Run()s via
  // LoadSnapshot, or rely on SimOptions::checkpoint_every for periodic writes.
  bool SaveSnapshot(const std::string& path, std::string* error);

  // Restores the run state captured by SaveSnapshot. Must be called before
  // Run(), on a simulator constructed with the same configuration, trace, and
  // scheduler type as the one that wrote the snapshot. Returns false (with
  // `error` set) for torn/corrupt/mismatched snapshots; the simulator is not
  // safe to Run() after a failed load.
  bool LoadSnapshot(const std::string& path, std::string* error);

 private:
  struct Job;

  void ActivateSubmissions(double now);
  // Two phases. The per-job phase (MakeReport and the batch-size update,
  // agent- and job-local) runs on refresh_pool_; the serial phase (report
  // drops, net sends, Emit, report delivery) walks the jobs in active order,
  // so every shared RNG draw and event keeps its order at any pool width.
  void RefreshReports(double now);
  // Control-plane network hooks (no-ops when net_ is null): partition
  // transitions + due message deliveries (reports, decisions, heartbeats),
  // the per-round decision send, and the lease view of the cluster the
  // scheduler sees in place of the physical one.
  void ProcessNet(double now);
  void DeliverNetMessage(const NetModel::Message& message, double now);
  void SendDecision(Job& job, const std::vector<int>& row, double now);
  const ClusterSpec& SchedulerClusterView(double now);
  // Applies SimOptions::scheduler_topology_blind: the cluster handed to the
  // scheduler (rounds and OnClusterChanged) with annotations stripped when
  // the blind A/B arm is on; `physical` itself otherwise.
  const ClusterSpec& SchedulerVisible(const ClusterSpec& physical);
  void RunSchedulingRound(double now);
  void RunAutoscaling(double now);
  void ProcessFaults(double now);
  // Ground-truth iteration time for the job's current placement and batch.
  // Flat clusters use the profile's 7-parameter truth unchanged (bit-for-bit
  // the pre-topology arithmetic); annotated clusters price the (K, N, R)
  // placement through the rack-tier model and pace the job at its slowest
  // GPU generation.
  double TrueJobIterTime(const Job& job) const;
  void ApplyAllocation(Job& job, const std::vector<int>& row, double now);
  void RecordTimelineSample(double now);
  void CheckInvariants(double now);
  bool AllJobsFinished() const;
  // Drops finished jobs from active_ (order-preserving two-pointer pass).
  void CompactActive() const;
  std::vector<JobSnapshot> BuildSnapshots(double now);
  bool JobSuffersInterference(const Job& job) const;

  // The control loop: drives the handlers above from the deterministic event
  // queue in src/sim/engine/ (see DESIGN.md §10) and returns the final
  // simulation time (the clock value finalization uses for unfinished jobs).
  double RunEvent();
  // Job advancement over the handler-free span [from, to): per job with
  // span-invariant factors hoisted, or tick-interleaved across jobs when
  // interference couples them. Completions inside the span are discovered
  // here and their exact times solved from the progress integral.
  void AdvanceSpan(double from, double to);
  void AdvanceJobSpan(Job& job, double from, double to);
  // The one job-advance kernel: one tick of a running job at `now`, given
  // its true iteration time and slowdown factor. Accrues progress and the
  // time integrals, records the agent's noisy observations, and completes
  // the job (exact finish time, resources released) when it crosses the
  // finish line.
  void StepJob(Job& job, double now, double iter_time, double slow);
  // Buffers a lifecycle event. Jobs advance one at a time across a span, so
  // the buffer is flushed sorted by time after each queue dispatch, which
  // keeps the log monotone.
  void Emit(SimEvent event);
  void FlushPendingEvents();

  // Injected scheduler-process crash (sim/fault_injector's scheduler_crash
  // class): warm recovery reloads the control-plane state losslessly; cold
  // recovery resets the scheduler and every job's agent to a freshly
  // restarted process with no snapshot.
  void RecoverScheduler(double now);

  // Periodic checkpoint write into options_.checkpoint_dir; failures are
  // logged and the run continues (a missed checkpoint is not fatal).
  void WritePeriodicSnapshot(double now);
  // Field lists of the snapshot sections that hold private state (DESIGN.md
  // §11): SaveSnapshot runs them through a BinWriter, LoadSnapshot through a
  // BinReader.
  template <class Io>
  void CoreFields(Io& io);
  template <class Io>
  static void JobFields(Io& io, Job& job);
  template <class Io>
  void NetFields(Io& io, NetModel::State& state);
  template <class Io>
  void LoopFields(Io& io);

  SimOptions options_;
  // The scheduler-visible cluster: crashed nodes have their capacity masked
  // to zero until repaired. `base_cluster_` keeps the physical capacities.
  ClusterSpec cluster_;
  ClusterSpec base_cluster_;
  Scheduler* scheduler_;
  ClusterAutoscaler* autoscaler_;
  Rng rng_;
  std::unique_ptr<FaultInjector> faults_;
  // Control-plane network model (null when every NetOptions knob is zero).
  std::unique_ptr<NetModel> net_;
  // Lease-based liveness bookkeeping (net_ only): last heartbeat delivery
  // per node, the lease-view cluster handed to the scheduler, and open
  // partition spans (keyed by (rack?, index)) for the trace timeline.
  std::vector<double> last_heard_;
  ClusterSpec sched_view_;
  // Scratch for SchedulerVisible when scheduler_topology_blind is on.
  ClusterSpec blind_view_;
  std::map<std::pair<int, int>, double> partition_started_;
  std::vector<JobSpec> trace_;
  std::vector<std::unique_ptr<Job>> jobs_;
  // Ascending indexes into jobs_ of not-yet-finished jobs. Lazily compacted
  // by CompactActive(); the hot per-tick/per-event loops (report refresh,
  // snapshot build, job advancement) iterate this instead of all of jobs_,
  // which keeps their cost O(active) instead of O(total submitted) on
  // 10^5-job hyperscale traces. Mutable: const readers (AllJobsFinished)
  // compact too.
  mutable std::vector<size_t> active_;
  // RefreshReports' per-job phase: the pool (width options_.sched_threads)
  // and one fresh report slot per active job, reused across refreshes.
  std::unique_ptr<ThreadPool> refresh_pool_;
  std::vector<AgentReport> fresh_reports_;
  size_t next_submission_ = 0;
  // Invariant-checker cursor into result_.events (only new events are
  // scanned each round) and per-job completion counts.
  size_t checked_events_ = 0;
  double max_event_time_ = 0.0;
  // Buffered lifecycle events awaiting an in-time-order flush, and the count
  // of queue entries dispatched (sim.engine.events).
  std::vector<SimEvent> pending_events_;
  uint64_t engine_events_ = 0;
  SimResult result_;

  // Control-loop cursors captured at the snapshot point so a resumed run
  // continues the exact handler schedule of the interrupted one. `valid`
  // marks a pending resume (set by LoadSnapshot, consumed by RunEvent).
  struct LoopState {
    bool valid = false;
    double now = 0.0;
    // RecurringTimer states (threshold, last_fire) and the dispatch count
    // feeding sim.engine.events.
    double report_threshold = 0.0, report_last = 0.0;
    double sched_threshold = 0.0, sched_last = 0.0;
    double autoscale_threshold = 0.0, autoscale_last = 0.0;
    double ckpt_threshold = 0.0, ckpt_last = 0.0;
    uint64_t engine_events = 0;
  };
  LoopState loop_;
  SnapshotExtra snapshot_extra_;
};

}  // namespace pollux

#endif  // POLLUX_SIM_SIMULATOR_H_
