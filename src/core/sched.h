// PolluxSched (Sec. 4.2): the cluster-wide component.
//
// Every scheduling interval it receives each job's goodput function from its
// PolluxAgent, builds per-job speedup tables, assigns job weights (Eqn. 16),
// and runs the genetic algorithm to find the allocation matrix maximizing
// FITNESS (Eqn. 14). The chosen allocations are returned to the caller (the
// simulator, or a real cluster integration) to apply.

#ifndef POLLUX_CORE_SCHED_H_
#define POLLUX_CORE_SCHED_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/agent.h"
#include "core/allocation.h"
#include "core/genetic.h"
#include "util/thread_pool.h"

namespace pollux {

// Quality/speed ladder for one scheduling round (DESIGN.md §13).
//
//   exact       Re-optimize every job with the full GA (the paper's
//               behavior; byte-identical to builds that predate the ladder).
//   incremental Re-optimize only jobs whose telemetry changed materially
//               since their last optimization; clean jobs keep their warm
//               allocation and are omitted from the decision map entirely.
//               Dirty jobs are partitioned into node-disjoint shards, each
//               solved by its own deterministic GA, in parallel.
//   first-match O(jobs) greedy placement with no speedup tables and no GA:
//               running jobs keep (and grow in place toward their
//               exploration cap), queued jobs take the first node with free
//               capacity. The ultrafast mode for 10k-node clusters.
enum class SchedMode {
  kExact = 0,
  kIncremental = 1,
  kFirstMatch = 2,
};

// "exact" | "incremental" | "first-match" (returns false on unknown names).
bool SchedModeByName(const std::string& name, SchedMode* mode);
const char* SchedModeName(SchedMode mode);

struct SchedConfig {
  GaOptions ga;
  // GPUTIME_THRES, in GPU-seconds (paper default: 4 GPU-hours).
  double gpu_time_threshold = 4.0 * 3600.0;
  // Weight decay exponent lambda (paper default 0.5; 0 disables weighting).
  double weight_lambda = 0.5;
  // Wall-clock budget for one scheduling round, seconds (0 = unlimited).
  // A round that overruns it — or that somehow produced an allocation that
  // is infeasible against the (possibly degraded) cluster — is discarded in
  // favor of the last known-feasible allocation projected onto surviving
  // nodes, instead of aborting or applying garbage.
  double round_time_budget = 0.0;
  // Reports older than this (seconds) are stale: the job's exploration cap is
  // clamped to its current size so the GA never grows a job on telemetry it
  // cannot trust. 0 disables the clamp.
  double stale_report_age = 150.0;
  // Expected agent report interval, seconds; a job's telemetry lease spans
  // lease_intervals of it.
  double report_interval = 30.0;
  // Lease-based liveness over a degraded control plane (0 disables, which is
  // the legacy stale-clamp-only behavior). A job whose report age exceeds the
  // lease is *held*: frozen at exactly its current allocation. Only after a
  // further lease_grace seconds of silence is it evicted (allocation
  // reclaimed). See DESIGN.md §12.
  int lease_intervals = 0;
  double lease_grace = 300.0;
  // When the fraction of jobs with an unexpired lease drops below this
  // threshold, the round runs degraded: every warm allocation is frozen as-is
  // and only fresh queued jobs are packed onto the residual capacity by a
  // reduced-budget GA. 0 disables degraded rounds.
  double degraded_coverage = 0.0;
  // Instant-masking baseline (bench_netfaults): any job whose report age
  // exceeds stale_report_age is reclaimed immediately — no lease, no grace,
  // no degraded rounds.
  bool naive_masking = false;
  // Scheduling-round quality/speed ladder (DESIGN.md §13). kExact keeps the
  // legacy full-GA round byte-identical; the other modes trade goodput for
  // round time (bench_hyperscale measures the curve).
  SchedMode mode = SchedMode::kExact;
  // Incremental mode: a clean job turns dirty when any fitted throughput
  // parameter or its gradient-noise scale drifts by more than this relative
  // amount since the job's last re-optimization.
  double dirty_rel_change = 0.05;
  // Incremental mode: target dirty jobs per GA shard (node-disjoint job
  // groups are packed into shards up to this size; a group that is already
  // larger stays whole).
  int shard_jobs = 16;
  // Incremental mode: a clean job is re-optimized anyway after this many
  // rounds, so warm allocations cannot go stale forever and queued jobs
  // eventually get a chance to displace them. 0 disables the refresh.
  int refresh_rounds = 20;
  // Incremental mode: queued-job admission pre-filter. Queued jobs are
  // always dirty (they hold nothing), so during a backlog every one of them
  // joins a GA shard each round even though only free-capacity many can
  // possibly be placed. With admission on, queued jobs are admitted to the
  // round in report order only while the admitted count stays within the
  // free GPU capacity left after clean rows are charged; the rest are
  // deferred (omitted from the decision map, i.e. they stay queued) and
  // counted in queue_skipped(). Off by default: it changes which shards form
  // under backlog, so it is opt-in for byte-compatibility.
  bool queue_admission = false;
};

// Per-job information PolluxSched receives each interval.
struct SchedJobReport {
  AgentReport agent;
  // Total GPU-seconds consumed so far (for Eqn. 16).
  double gpu_time = 0.0;
  // GPUs per node the job currently holds; empty when not running.
  std::vector<int> current_allocation;
  // Seconds since the last delivered report was produced (agent reports can
  // be lost or delayed in degraded clusters). Staleness and lease expiry are
  // judged from this measured age against SchedConfig thresholds: a stale job
  // is scheduled conservatively — its exploration cap is clamped to its
  // current allocation, so the GA never *grows* a job on dead telemetry.
  double report_age = 0.0;
  // Delivery sequence number of that report (0 when the transport does not
  // sequence). Monotonically increasing per job; used to detect stagnant or
  // duplicate telemetry across rounds.
  uint64_t seq = 0;
};

class PolluxSched {
 public:
  PolluxSched(ClusterSpec cluster, SchedConfig config);

  // Runs one scheduling round. Returns the per-node GPU allocation for each
  // job id (rows of the best allocation matrix).
  std::map<uint64_t, std::vector<int>> Schedule(const std::vector<SchedJobReport>& reports);

  // Eqn. 17 of the most recently applied allocation matrix.
  double last_utility() const { return last_utility_; }
  double last_fitness() const { return last_fitness_; }

  // Rounds whose GA result was discarded (budget overrun or infeasible) in
  // favor of the projected fallback allocation.
  uint64_t fallback_rounds() const { return fallback_rounds_; }

  // Rounds that ran in degraded mode (fresh-report coverage below threshold:
  // warm allocations frozen, only fresh queued jobs re-optimized).
  uint64_t degraded_rounds() const { return degraded_rounds_; }

  // Lease lifecycle accounting: jobs whose lease expired (entered the held
  // state) and jobs reclaimed after the grace period (or instantly under
  // naive masking).
  uint64_t lease_expirations() const { return lease_expirations_; }
  uint64_t lease_evictions() const { return lease_evictions_; }

  // Rounds-with-stagnant-telemetry count: a job whose report seq did not
  // advance since the previous round (duplicate or no delivery).
  uint64_t dup_reports() const { return dup_reports_; }

  // Queued jobs deferred by the incremental-mode admission pre-filter
  // (SchedConfig::queue_admission): cumulative count of (job, round) pairs
  // that were left queued without joining a GA shard.
  uint64_t queue_skipped() const { return queue_skipped_; }

  // True when every row fits the cluster: no over-committed node and no GPUs
  // on zero-capacity (failed) nodes.
  static bool AllocationsFeasible(const ClusterSpec& cluster,
                                  const std::map<uint64_t, std::vector<int>>& allocations);

  // The graceful-degradation fallback: each job keeps its current allocation
  // projected onto surviving nodes (entries on zero-capacity nodes dropped,
  // then trimmed to per-node capacity). Never returns an infeasible map.
  std::map<uint64_t, std::vector<int>> ProjectOntoCluster(
      const std::vector<SchedJobReport>& reports) const;

  // Evaluates the cluster utility the GA would achieve with `num_nodes`
  // homogeneous nodes (used by the cloud autoscaler's binary search). Does
  // not disturb the persisted population.
  double EvaluateUtilityAt(int num_nodes, int gpus_per_node,
                           const std::vector<SchedJobReport>& reports) const;

  // Replaces the cluster after autoscaling.
  void SetCluster(ClusterSpec cluster);
  const ClusterSpec& cluster() const { return optimizer_.cluster(); }
  const SchedConfig& config() const { return config_; }

  // Incremental-mode bookkeeping for one job: the telemetry snapshot taken
  // at its last re-optimization. The dirtiness predicate (DESIGN.md §13)
  // compares the current report against this snapshot.
  struct JobOptState {
    ThroughputParams params;
    double phi = 0.0;
    long base_batch = 1;
    int cap = 1;
    uint16_t bucket = 0;
    // Rounds this job has stayed clean since the snapshot (drives the
    // periodic refresh).
    uint32_t rounds_clean = 0;
  };

  // Scheduler state for checkpoint/restore: the GA search state plus the
  // last-round diagnostics and the cumulative fallback counter.
  struct State {
    GeneticOptimizer::State ga;
    double last_utility = 0.0;
    double last_fitness = 0.0;
    uint64_t fallback_rounds = 0;
    uint64_t degraded_rounds = 0;
    uint64_t lease_expirations = 0;
    uint64_t lease_evictions = 0;
    uint64_t dup_reports = 0;
    uint64_t queue_skipped = 0;
    // job id -> (last seen report seq, last lease class 0=fresh/1=held/
    // 2=evicted), so lease transition counting survives a warm restart.
    std::map<uint64_t, std::pair<uint64_t, uint32_t>> telemetry;
    // Incremental-mode per-job snapshots and the round counter that seeds
    // the shard GAs (empty/zero in the other modes).
    std::map<uint64_t, JobOptState> incremental;
    uint64_t incremental_round = 0;
  };
  State GetState() const {
    State state;
    state.ga = optimizer_.GetState();
    state.last_utility = last_utility_;
    state.last_fitness = last_fitness_;
    state.fallback_rounds = fallback_rounds_;
    state.degraded_rounds = degraded_rounds_;
    state.lease_expirations = lease_expirations_;
    state.lease_evictions = lease_evictions_;
    state.dup_reports = dup_reports_;
    state.queue_skipped = queue_skipped_;
    for (const auto& [job_id, telemetry] : telemetry_) {
      state.telemetry[job_id] = {telemetry.last_seq, telemetry.last_class};
    }
    state.incremental = opt_state_;
    state.incremental_round = incremental_round_;
    return state;
  }
  void SetState(const State& state) {
    optimizer_.SetState(state.ga);
    last_utility_ = state.last_utility;
    last_fitness_ = state.last_fitness;
    fallback_rounds_ = state.fallback_rounds;
    degraded_rounds_ = state.degraded_rounds;
    lease_expirations_ = state.lease_expirations;
    lease_evictions_ = state.lease_evictions;
    dup_reports_ = state.dup_reports;
    queue_skipped_ = state.queue_skipped;
    telemetry_.clear();
    for (const auto& [job_id, saved] : state.telemetry) {
      telemetry_[job_id] = JobTelemetry{saved.first, saved.second};
    }
    opt_state_ = state.incremental;
    incremental_round_ = state.incremental_round;
  }

  // Cold recovery: drop the persisted GA population, diagnostics, and the
  // per-job telemetry map, as a freshly restarted scheduler process would.
  // The cumulative counters survive — they are run-level accounting, not
  // process state.
  void ResetSearchState() {
    optimizer_.ResetSearchState();
    last_utility_ = 0.0;
    last_fitness_ = 0.0;
    telemetry_.clear();
    opt_state_.clear();
    incremental_round_ = 0;
  }

 private:
  // Telemetry lease classes (DESIGN.md §12): fresh leases schedule normally,
  // held jobs are frozen at their current allocation, evicted jobs are
  // reclaimed.
  enum class Lease : uint32_t { kFresh = 0, kHeld = 1, kEvicted = 2 };

  struct JobTelemetry {
    uint64_t last_seq = 0;
    uint32_t last_class = 0;
  };

  std::vector<SchedJobInfo> BuildJobInfos(const std::vector<SchedJobReport>& reports,
                                          int max_gpus) const;

  // Classifies every report into a lease class and updates the telemetry map
  // (seq stagnation + transition counters).
  std::vector<Lease> ClassifyLeases(const std::vector<SchedJobReport>& reports);

  // Degraded round: freeze every warm non-evicted allocation verbatim and
  // pack fresh queued jobs onto the residual capacity with a reduced-budget
  // GA probe (the persisted population is not disturbed).
  std::map<uint64_t, std::vector<int>> DegradedRound(const std::vector<SchedJobReport>& reports,
                                                     const std::vector<Lease>& lease) const;

  // Post-GA overrides: evicted rows zeroed, held rows pinned to the current
  // allocation verbatim, fresh rows clamped to the remaining capacity.
  // Fresh jobs absent from the (possibly sparse) map keep their current
  // allocation, which is charged against the free capacity first.
  void ApplyLeaseOverrides(const std::vector<SchedJobReport>& reports,
                           const std::vector<Lease>& lease,
                           std::map<uint64_t, std::vector<int>>* allocations) const;

  // first-match mode: one greedy O(jobs) pass, no speedup tables, no GA.
  // Returns a sparse map (only jobs whose allocation changes have rows).
  std::map<uint64_t, std::vector<int>> FirstMatchRound(
      const std::vector<SchedJobReport>& reports) const;

  // incremental mode: re-optimize only dirty jobs, sharded into node-
  // disjoint GA sub-problems run across the thread pool. Returns a sparse
  // map; clean jobs are omitted and keep their warm allocation.
  std::map<uint64_t, std::vector<int>> IncrementalRound(
      const std::vector<SchedJobReport>& reports);

  SchedConfig config_;
  GeneticOptimizer optimizer_;
  double last_utility_ = 0.0;
  double last_fitness_ = 0.0;
  uint64_t fallback_rounds_ = 0;
  uint64_t degraded_rounds_ = 0;
  uint64_t lease_expirations_ = 0;
  uint64_t lease_evictions_ = 0;
  uint64_t dup_reports_ = 0;
  uint64_t queue_skipped_ = 0;
  std::map<uint64_t, JobTelemetry> telemetry_;
  // Incremental-mode state: per-job snapshots from the last re-optimization,
  // the round counter mixed into each shard GA's seed, and the worker pool
  // the shards run on (created lazily; determinism does not depend on the
  // thread count — each shard GA is a self-contained serial solver).
  std::map<uint64_t, JobOptState> opt_state_;
  uint64_t incremental_round_ = 0;
  std::unique_ptr<ThreadPool> shard_pool_;
};

}  // namespace pollux

#endif  // POLLUX_CORE_SCHED_H_
