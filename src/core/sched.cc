#include "core/sched.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pollux {
namespace {

// Handles resolved once; every per-round update is a relaxed atomic op.
struct SchedMetrics {
  obs::Counter* rounds;
  obs::Counter* fallback_rounds;
  obs::Counter* degraded_rounds;
  obs::Counter* lease_expirations;
  obs::Counter* lease_evictions;
  obs::Counter* dup_reports;
  obs::Counter* queue_skipped;
  obs::Gauge* lease_held_jobs;
  obs::Gauge* lease_coverage;
  obs::Histogram* round_time_s;
  obs::Gauge* last_utility;
  obs::Gauge* last_fitness;

  static const SchedMetrics& Get() {
    static const SchedMetrics metrics;
    return metrics;
  }

 private:
  SchedMetrics() {
    auto& registry = obs::MetricsRegistry::Global();
    rounds = registry.GetCounter("sched.rounds");
    fallback_rounds = registry.GetCounter("sched.fallback_rounds");
    degraded_rounds = registry.GetCounter("sched.degraded_rounds");
    lease_expirations = registry.GetCounter("sched.lease.expirations");
    lease_evictions = registry.GetCounter("sched.lease.evictions");
    dup_reports = registry.GetCounter("sched.dup_reports");
    queue_skipped = registry.GetCounter("sched.queue.skipped");
    lease_held_jobs = registry.GetGauge("sched.lease.held_jobs");
    lease_coverage = registry.GetGauge("sched.lease.coverage");
    round_time_s = registry.GetHistogram("sched.round_time_s");
    last_utility = registry.GetGauge("sched.last_utility");
    last_fitness = registry.GetGauge("sched.last_fitness");
  }
};

// Coarse log2 quantization of attained GPU-time (minutes doubling per
// bucket). Incremental mode re-optimizes a job whose bucket moved since its
// last optimization, even when its fitted model did not drift.
uint16_t ProgressBucket(double gpu_time) {
  if (gpu_time <= 0.0) {
    return 0;
  }
  const double bucket = std::floor(std::log2(1.0 + gpu_time / 60.0));
  return static_cast<uint16_t>(std::min(bucket, 1023.0)) + 1;
}

// splitmix64-style mix for deriving per-shard GA seeds from (config seed,
// round, shard index). Every shard solver gets an independent, reproducible
// stream regardless of how shards are distributed across workers.
uint64_t MixSeed(uint64_t seed, uint64_t round, uint64_t shard) {
  uint64_t x = seed + 0x9e3779b97f4a7c15ull * (round + 1) + 0x85ebca6bc2b2ae35ull * (shard + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

// Relative drift between two fitted values, symmetric and safe at zero.
bool Drifted(double now, double then, double rel_tol) {
  const double scale = std::max({std::abs(now), std::abs(then), 1e-12});
  return std::abs(now - then) > rel_tol * scale;
}

}  // namespace

bool SchedModeByName(const std::string& name, SchedMode* mode) {
  if (name == "exact") {
    *mode = SchedMode::kExact;
  } else if (name == "incremental") {
    *mode = SchedMode::kIncremental;
  } else if (name == "first-match") {
    *mode = SchedMode::kFirstMatch;
  } else {
    return false;
  }
  return true;
}

const char* SchedModeName(SchedMode mode) {
  switch (mode) {
    case SchedMode::kIncremental:
      return "incremental";
    case SchedMode::kFirstMatch:
      return "first-match";
    case SchedMode::kExact:
      break;
  }
  return "exact";
}

PolluxSched::PolluxSched(ClusterSpec cluster, SchedConfig config)
    : config_(config), optimizer_(std::move(cluster), config.ga) {}

std::vector<SchedJobInfo> PolluxSched::BuildJobInfos(const std::vector<SchedJobReport>& reports,
                                                     int max_gpus) const {
  std::vector<SchedJobInfo> jobs;
  jobs.reserve(reports.size());
  for (const auto& report : reports) {
    SchedJobInfo info;
    info.job_id = report.agent.job_id;
    // The exploration cap bounds how many GPUs this job can receive, so the
    // speedup table never needs entries beyond it.
    const int table_gpus = std::min(max_gpus, std::max(1, report.agent.max_gpus_cap));
    // The cluster's cross-rack link factor adds a third table regime; flat
    // clusters carry 1.0, which builds exactly the legacy two-regime table.
    info.speedups = SpeedupTable(report.agent.model, report.agent.limits, table_gpus,
                                 optimizer_.cluster().rack_link_factor);
    info.weight = JobWeight(report.gpu_time, config_.gpu_time_threshold, config_.weight_lambda);
    info.current_allocation = report.current_allocation;
    info.max_gpus_cap = std::max(1, report.agent.max_gpus_cap);
    bool stale = config_.stale_report_age > 0.0 && report.report_age > config_.stale_report_age;
    if (config_.lease_intervals > 0) {
      stale = stale ||
              report.report_age > config_.lease_intervals * config_.report_interval;
    }
    if (stale) {
      // No fresh telemetry: hold the job at (at most) its current size
      // rather than growing it on a goodput model we cannot trust.
      int current = 0;
      for (int gpus : report.current_allocation) {
        current += gpus;
      }
      info.max_gpus_cap = std::max(1, std::min(info.max_gpus_cap, current));
    }
    jobs.push_back(std::move(info));
  }
  return jobs;
}

std::map<uint64_t, std::vector<int>> PolluxSched::Schedule(
    const std::vector<SchedJobReport>& reports) {
  std::map<uint64_t, std::vector<int>> allocations;
  if (reports.empty()) {
    last_utility_ = 0.0;
    last_fitness_ = 0.0;
    return allocations;
  }
  TRACE_SCOPE("sched_round");
  const auto round_start = std::chrono::steady_clock::now();
  const bool lease_mode = config_.lease_intervals > 0 && !config_.naive_masking;
  const uint64_t expirations_before = lease_expirations_;
  const uint64_t evictions_before = lease_evictions_;
  const uint64_t dups_before = dup_reports_;
  const uint64_t queue_skipped_before = queue_skipped_;
  const std::vector<Lease> lease = ClassifyLeases(reports);
  size_t fresh = 0;
  size_t held = 0;
  for (Lease state : lease) {
    fresh += state == Lease::kFresh ? 1 : 0;
    held += state == Lease::kHeld ? 1 : 0;
  }
  const double coverage = static_cast<double>(fresh) / static_cast<double>(reports.size());
  const bool degraded =
      lease_mode && config_.degraded_coverage > 0.0 && coverage < config_.degraded_coverage;
  bool fallback = false;
  if (degraded) {
    // Too little of the fleet is reporting to trust a full re-optimization:
    // freeze what is warm, pack only the fresh queued jobs.
    ++degraded_rounds_;
    allocations = DegradedRound(reports, lease);
  } else if (config_.mode == SchedMode::kFirstMatch) {
    // Greedy placement: no speedup tables, no GA, no utility estimate. The
    // returned map is sparse — unchanged jobs keep their allocation by
    // omission (the Scheduler contract).
    allocations = FirstMatchRound(reports);
    last_utility_ = 0.0;
    last_fitness_ = 0.0;
  } else if (config_.mode == SchedMode::kIncremental) {
    // Re-optimize only the dirty subset; feasibility holds by construction
    // (clean rows are charged before shard capacities are carved out).
    allocations = IncrementalRound(reports);
  } else {
    const std::vector<SchedJobInfo> jobs =
        BuildJobInfos(reports, optimizer_.cluster().TotalGpus());
    const GeneticOptimizer::Result result = optimizer_.Optimize(jobs);
    last_utility_ = result.utility;
    last_fitness_ = result.fitness;
    for (size_t j = 0; j < jobs.size(); ++j) {
      allocations[jobs[j].job_id] = result.best.Row(j);
    }
    // Graceful degradation: never apply an allocation that overflows the
    // (possibly fault-degraded) cluster, and never let one runaway GA round
    // stall the whole scheduler past its budget — fall back to the last
    // known-feasible allocation projected onto surviving nodes.
    fallback = !AllocationsFeasible(optimizer_.cluster(), allocations);
    if (!fallback && config_.round_time_budget > 0.0) {
      const double ga_elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - round_start)
              .count();
      fallback = ga_elapsed > config_.round_time_budget;
    }
    if (fallback) {
      ++fallback_rounds_;
      allocations = ProjectOntoCluster(reports);
    }
  }
  if (lease_mode || config_.naive_masking) {
    ApplyLeaseOverrides(reports, lease, &allocations);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - round_start).count();
  if (obs::MetricsRegistry::Global().enabled()) {
    const SchedMetrics& metrics = SchedMetrics::Get();
    metrics.rounds->Add();
    if (fallback) {
      metrics.fallback_rounds->Add();
    }
    if (degraded) {
      metrics.degraded_rounds->Add();
    }
    metrics.lease_expirations->Add(lease_expirations_ - expirations_before);
    metrics.lease_evictions->Add(lease_evictions_ - evictions_before);
    metrics.dup_reports->Add(dup_reports_ - dups_before);
    metrics.queue_skipped->Add(queue_skipped_ - queue_skipped_before);
    metrics.lease_held_jobs->Set(static_cast<double>(held));
    metrics.lease_coverage->Set(coverage);
    metrics.round_time_s->Record(elapsed);
    metrics.last_utility->Set(last_utility_);
    metrics.last_fitness->Set(last_fitness_);
  }
  return allocations;
}

bool PolluxSched::AllocationsFeasible(
    const ClusterSpec& cluster, const std::map<uint64_t, std::vector<int>>& allocations) {
  const size_t num_nodes = cluster.gpus_per_node.size();
  std::vector<int> usage(num_nodes, 0);
  for (const auto& [job_id, row] : allocations) {
    if (row.size() > num_nodes) {
      return false;
    }
    for (size_t n = 0; n < row.size(); ++n) {
      if (row[n] < 0) {
        return false;
      }
      usage[n] += row[n];
      if (usage[n] > cluster.gpus_per_node[n]) {
        return false;
      }
    }
  }
  return true;
}

std::vector<PolluxSched::Lease> PolluxSched::ClassifyLeases(
    const std::vector<SchedJobReport>& reports) {
  std::vector<Lease> lease(reports.size(), Lease::kFresh);
  const bool lease_mode = config_.lease_intervals > 0 && !config_.naive_masking;
  if (!lease_mode && !config_.naive_masking) {
    return lease;
  }
  const double lease_age = config_.lease_intervals * config_.report_interval;
  std::map<uint64_t, JobTelemetry> next;
  for (size_t i = 0; i < reports.size(); ++i) {
    const SchedJobReport& report = reports[i];
    if (config_.naive_masking) {
      if (config_.stale_report_age > 0.0 && report.report_age > config_.stale_report_age) {
        lease[i] = Lease::kEvicted;
      }
    } else if (report.report_age > lease_age + config_.lease_grace) {
      lease[i] = Lease::kEvicted;
    } else if (report.report_age > lease_age) {
      lease[i] = Lease::kHeld;
    }
    const auto prev = telemetry_.find(report.agent.job_id);
    JobTelemetry telemetry;
    if (prev != telemetry_.end()) {
      // Monotonic-staleness tracking: a seq that failed to advance means the
      // round ran on the same (or duplicate) telemetry as the previous one.
      if (report.seq > 0 && report.seq <= prev->second.last_seq) {
        ++dup_reports_;
      }
      telemetry.last_seq = std::max(report.seq, prev->second.last_seq);
      const Lease was = static_cast<Lease>(prev->second.last_class);
      if (lease[i] == Lease::kHeld && was == Lease::kFresh) {
        ++lease_expirations_;
      }
      if (lease[i] == Lease::kEvicted && was != Lease::kEvicted) {
        ++lease_evictions_;
      }
    } else {
      telemetry.last_seq = report.seq;
      if (lease[i] == Lease::kHeld) {
        ++lease_expirations_;
      }
      if (lease[i] == Lease::kEvicted) {
        ++lease_evictions_;
      }
    }
    telemetry.last_class = static_cast<uint32_t>(lease[i]);
    next[report.agent.job_id] = telemetry;
  }
  // Finished jobs drop out of the reports; prune their telemetry.
  telemetry_ = std::move(next);
  return lease;
}

std::map<uint64_t, std::vector<int>> PolluxSched::DegradedRound(
    const std::vector<SchedJobReport>& reports, const std::vector<Lease>& lease) const {
  const ClusterSpec& cluster = optimizer_.cluster();
  const size_t num_nodes = cluster.gpus_per_node.size();
  std::map<uint64_t, std::vector<int>> allocations;
  ClusterSpec residual = cluster;
  std::vector<size_t> queued;
  for (size_t i = 0; i < reports.size(); ++i) {
    const SchedJobReport& report = reports[i];
    std::vector<int> row = report.current_allocation;
    row.resize(num_nodes, 0);
    int total = 0;
    for (int gpus : row) {
      total += gpus;
    }
    if (lease[i] != Lease::kEvicted && total > 0) {
      // Warm and not reclaimed: freeze verbatim, whatever the lease state.
      for (size_t n = 0; n < num_nodes; ++n) {
        residual.gpus_per_node[n] = std::max(0, residual.gpus_per_node[n] - row[n]);
      }
      allocations[report.agent.job_id] = std::move(row);
      continue;
    }
    allocations[report.agent.job_id] = std::vector<int>(num_nodes, 0);
    if (lease[i] == Lease::kFresh) {
      queued.push_back(i);
    }
  }
  if (queued.empty() || residual.TotalGpus() <= 0) {
    return allocations;
  }
  // Re-optimize only the fresh queued jobs over the residual capacity with a
  // probe GA (fresh seed each round; the persisted population's matrix shape
  // does not match this sub-problem).
  std::vector<SchedJobReport> fresh_reports;
  fresh_reports.reserve(queued.size());
  for (size_t i : queued) {
    fresh_reports.push_back(reports[i]);
  }
  const std::vector<SchedJobInfo> jobs = BuildJobInfos(fresh_reports, residual.TotalGpus());
  GaOptions options = config_.ga;
  options.generations = std::max(1, options.generations / 4);
  GeneticOptimizer probe(residual, options);
  const GeneticOptimizer::Result result = probe.Optimize(jobs);
  for (size_t j = 0; j < jobs.size(); ++j) {
    allocations[jobs[j].job_id] = result.best.Row(j);
  }
  return allocations;
}

void PolluxSched::ApplyLeaseOverrides(const std::vector<SchedJobReport>& reports,
                                      const std::vector<Lease>& lease,
                                      std::map<uint64_t, std::vector<int>>* allocations) const {
  const ClusterSpec& cluster = optimizer_.cluster();
  const size_t num_nodes = cluster.gpus_per_node.size();
  std::vector<int> free = cluster.gpus_per_node;
  // Pin held rows first: a held job keeps exactly what it physically holds,
  // even on a node the lease view has masked (the allocation is real; the
  // scheduler just cannot hear about it). Free capacity may go negative on
  // such nodes, which correctly starves fresh jobs off them.
  for (size_t i = 0; i < reports.size(); ++i) {
    const SchedJobReport& report = reports[i];
    if (lease[i] == Lease::kHeld) {
      std::vector<int> row = report.current_allocation;
      row.resize(num_nodes, 0);
      for (size_t n = 0; n < num_nodes; ++n) {
        free[n] -= row[n];
      }
      (*allocations)[report.agent.job_id] = std::move(row);
    } else if (lease[i] == Lease::kEvicted) {
      (*allocations)[report.agent.job_id] = std::vector<int>(num_nodes, 0);
    }
  }
  // Fresh jobs omitted from a sparse map (incremental/first-match modes)
  // keep their current allocation: charge it against the free capacity
  // before clamping the rows that are present. In exact mode every job has
  // a row, so this loop never fires and behavior is unchanged.
  for (size_t i = 0; i < reports.size(); ++i) {
    if (lease[i] != Lease::kFresh ||
        allocations->find(reports[i].agent.job_id) != allocations->end()) {
      continue;
    }
    const std::vector<int>& row = reports[i].current_allocation;
    for (size_t n = 0; n < row.size() && n < num_nodes; ++n) {
      free[n] -= row[n];
    }
  }
  for (size_t i = 0; i < reports.size(); ++i) {
    if (lease[i] != Lease::kFresh) {
      continue;
    }
    const auto it = allocations->find(reports[i].agent.job_id);
    if (it == allocations->end()) {
      continue;
    }
    std::vector<int>& row = it->second;
    row.resize(num_nodes, 0);
    for (size_t n = 0; n < num_nodes; ++n) {
      row[n] = std::clamp(row[n], 0, std::max(free[n], 0));
      free[n] -= row[n];
    }
  }
}

std::map<uint64_t, std::vector<int>> PolluxSched::ProjectOntoCluster(
    const std::vector<SchedJobReport>& reports) const {
  const ClusterSpec& cluster = optimizer_.cluster();
  const size_t num_nodes = cluster.gpus_per_node.size();
  std::vector<int> free = cluster.gpus_per_node;
  std::map<uint64_t, std::vector<int>> allocations;
  for (const auto& report : reports) {
    std::vector<int> row = report.current_allocation;
    row.resize(num_nodes, 0);
    for (size_t n = 0; n < num_nodes; ++n) {
      row[n] = std::clamp(row[n], 0, free[n]);
      free[n] -= row[n];
    }
    allocations[report.agent.job_id] = std::move(row);
  }
  return allocations;
}

double PolluxSched::EvaluateUtilityAt(int num_nodes, int gpus_per_node,
                                      const std::vector<SchedJobReport>& reports) const {
  if (reports.empty() || num_nodes <= 0) {
    return 0.0;
  }
  const ClusterSpec hypothetical = ClusterSpec::Homogeneous(num_nodes, gpus_per_node);
  const std::vector<SchedJobInfo> jobs = BuildJobInfos(reports, hypothetical.TotalGpus());
  GaOptions options = config_.ga;
  // A what-if evaluation can afford a smaller budget than the applied round.
  options.generations = std::max(1, options.generations / 4);
  GeneticOptimizer probe(hypothetical, options);
  return probe.Optimize(jobs).utility;
}

void PolluxSched::SetCluster(ClusterSpec cluster) {
  optimizer_.SetCluster(std::move(cluster));
  // Capacity changed: every incremental snapshot is stale (rows may overflow
  // the new cluster and shard capacities were carved from the old one), so
  // the next incremental round re-optimizes everything.
  opt_state_.clear();
}

std::map<uint64_t, std::vector<int>> PolluxSched::FirstMatchRound(
    const std::vector<SchedJobReport>& reports) const {
  const ClusterSpec& cluster = optimizer_.cluster();
  const size_t num_nodes = cluster.gpus_per_node.size();
  std::vector<int> free = cluster.gpus_per_node;
  std::map<uint64_t, std::vector<int>> allocations;
  // Pass 1: running jobs keep their allocation (projected onto surviving
  // capacity, in report order) and grow in place toward their exploration
  // cap using free GPUs on nodes they already occupy. Only changed rows are
  // emitted.
  struct Queued {
    size_t index;
    int want;
  };
  std::vector<Queued> queued;
  for (size_t i = 0; i < reports.size(); ++i) {
    const SchedJobReport& report = reports[i];
    const int cap = std::max(1, report.agent.max_gpus_cap);
    std::vector<int> row = report.current_allocation;
    row.resize(num_nodes, 0);
    bool changed = false;
    int total = 0;
    for (size_t n = 0; n < num_nodes; ++n) {
      const int clamped = std::clamp(row[n], 0, free[n]);
      if (clamped != row[n]) {
        row[n] = clamped;
        changed = true;
      }
      free[n] -= row[n];
      total += row[n];
    }
    if (total == 0) {
      if (changed) {
        // Earlier jobs' growth clamped this running job to nothing. Emit the
        // zero row now: if pass 2 finds the cluster full, the job must be
        // preempted, not left holding GPUs that are no longer its own.
        allocations[report.agent.job_id] = std::move(row);
      }
      queued.push_back({i, cap});
      continue;
    }
    int grow = cap - total;
    for (size_t n = 0; n < num_nodes && grow > 0; ++n) {
      if (row[n] > 0 && free[n] > 0) {
        const int add = std::min(grow, free[n]);
        row[n] += add;
        free[n] -= add;
        grow -= add;
        changed = true;
      }
    }
    if (changed) {
      allocations[report.agent.job_id] = std::move(row);
    }
  }
  // Pass 2: queued jobs (report order) take GPUs on the first node with
  // free capacity. The cursor only advances, so the whole pass is O(jobs +
  // nodes) even on 10k-node clusters.
  size_t cursor = 0;
  for (const Queued& q : queued) {
    while (cursor < num_nodes && free[cursor] <= 0) {
      ++cursor;
    }
    if (cursor == num_nodes) {
      break;  // Cluster full; the rest stay queued (omitted == unchanged).
    }
    std::vector<int> row(num_nodes, 0);
    const int give = std::min(q.want, free[cursor]);
    row[cursor] = give;
    free[cursor] -= give;
    allocations[reports[q.index].agent.job_id] = std::move(row);
  }
  return allocations;
}

std::map<uint64_t, std::vector<int>> PolluxSched::IncrementalRound(
    const std::vector<SchedJobReport>& reports) {
  ++incremental_round_;
  const ClusterSpec& cluster = optimizer_.cluster();
  const size_t num_nodes = cluster.gpus_per_node.size();
  const size_t count = reports.size();
  std::map<uint64_t, std::vector<int>> allocations;

  // 1. Dirtiness predicate (DESIGN.md §13): new job, queued, exploration cap
  // moved, progress bucket advanced, fitted model drifted materially, row no
  // longer feasible, or the periodic refresh came due.
  std::vector<char> dirty(count, 0);
  for (size_t i = 0; i < count; ++i) {
    const SchedJobReport& report = reports[i];
    const std::vector<int>& row = report.current_allocation;
    int total = 0;
    bool overflow = false;
    for (size_t n = 0; n < row.size(); ++n) {
      if (n < num_nodes) {
        total += row[n];
      } else if (row[n] > 0) {
        overflow = true;  // Holds GPUs on a node the cluster no longer has.
      }
    }
    const auto it = opt_state_.find(report.agent.job_id);
    bool is_dirty = overflow || it == opt_state_.end() || total == 0;
    if (!is_dirty) {
      const JobOptState& snap = it->second;
      const ThroughputParams& now = report.agent.model.params();
      const ThroughputParams& then = snap.params;
      const double tol = config_.dirty_rel_change;
      is_dirty = std::max(1, report.agent.max_gpus_cap) != snap.cap ||
                 ProgressBucket(report.gpu_time) != snap.bucket ||
                 report.agent.model.base_batch_size() != snap.base_batch ||
                 Drifted(report.agent.model.phi(), snap.phi, tol) ||
                 Drifted(now.alpha_grad, then.alpha_grad, tol) ||
                 Drifted(now.beta_grad, then.beta_grad, tol) ||
                 Drifted(now.alpha_sync_local, then.alpha_sync_local, tol) ||
                 Drifted(now.beta_sync_local, then.beta_sync_local, tol) ||
                 Drifted(now.alpha_sync_node, then.alpha_sync_node, tol) ||
                 Drifted(now.beta_sync_node, then.beta_sync_node, tol) ||
                 Drifted(now.gamma, then.gamma, tol) ||
                 (config_.refresh_rounds > 0 &&
                  snap.rounds_clean + 1 >= static_cast<uint32_t>(config_.refresh_rounds));
    }
    dirty[i] = is_dirty ? 1 : 0;
  }

  // 2. Charge clean rows against capacity, in report order. A clean row that
  // no longer fits (e.g. after a collision caused by a shrink) turns dirty
  // and its GPUs go back into the pool.
  std::vector<int> free = cluster.gpus_per_node;
  for (size_t i = 0; i < count; ++i) {
    if (dirty[i]) {
      continue;
    }
    const std::vector<int>& row = reports[i].current_allocation;
    bool fits = true;
    for (size_t n = 0; n < row.size() && n < num_nodes; ++n) {
      if (row[n] < 0 || row[n] > free[n]) {
        fits = false;
        break;
      }
    }
    if (!fits) {
      dirty[i] = 1;
      continue;
    }
    for (size_t n = 0; n < row.size() && n < num_nodes; ++n) {
      free[n] -= row[n];
    }
  }

  // 2b. Queued-job admission pre-filter (opt-in): during a backlog, queued
  // jobs — always dirty because they hold nothing — would each drag a GA
  // shard into the round even though only free-capacity many can possibly be
  // placed. Admit them in report order while the admitted count stays within
  // the residual free capacity (every placement consumes at least one GPU);
  // the rest are deferred to a later round and stay queued by omission.
  if (config_.queue_admission) {
    int budget = 0;
    for (size_t n = 0; n < num_nodes; ++n) {
      budget += std::max(free[n], 0);
    }
    for (size_t i = 0; i < count; ++i) {
      if (!dirty[i]) {
        continue;
      }
      int total = 0;
      for (int gpus : reports[i].current_allocation) {
        total += gpus;
      }
      if (total > 0) {
        continue;  // Running job: re-optimized for a real reason, not queued.
      }
      if (budget > 0) {
        --budget;
      } else {
        dirty[i] = 0;
        ++queue_skipped_;
      }
    }
  }

  std::vector<size_t> dirty_idx;
  for (size_t i = 0; i < count; ++i) {
    if (dirty[i]) {
      dirty_idx.push_back(i);
    }
  }

  if (!dirty_idx.empty()) {
    // 3. Group dirty jobs into node-disjoint components (union-find over the
    // nodes they currently occupy), so shard GAs never compete for capacity.
    std::vector<size_t> parent(dirty_idx.size());
    for (size_t d = 0; d < parent.size(); ++d) {
      parent[d] = d;
    }
    const auto find_root = [&parent](size_t d) {
      while (parent[d] != d) {
        parent[d] = parent[parent[d]];
        d = parent[d];
      }
      return d;
    };
    std::map<size_t, size_t> node_claim;  // global node -> dirty index
    for (size_t d = 0; d < dirty_idx.size(); ++d) {
      const std::vector<int>& row = reports[dirty_idx[d]].current_allocation;
      for (size_t n = 0; n < row.size() && n < num_nodes; ++n) {
        if (row[n] <= 0) {
          continue;
        }
        const auto claim = node_claim.find(n);
        if (claim == node_claim.end()) {
          node_claim[n] = d;
        } else {
          parent[find_root(d)] = find_root(claim->second);
        }
      }
    }

    // 4. Pack components into shards of up to shard_jobs jobs. Components
    // are visited in first-member order; oversized ones stay whole.
    const size_t target = static_cast<size_t>(std::max(1, config_.shard_jobs));
    std::map<size_t, size_t> root_shard;  // component root -> shard index
    struct Shard {
      std::vector<size_t> members;  // report indexes, ascending
      std::vector<size_t> nodes;    // global node ids, ascending
      int demand = 0;               // sum of member exploration caps
      int capacity = 0;             // free GPUs on claimed nodes
    };
    std::vector<Shard> shards;
    std::vector<size_t> shard_of(dirty_idx.size());
    for (size_t d = 0; d < dirty_idx.size(); ++d) {
      const size_t root = find_root(d);
      auto placed = root_shard.find(root);
      if (placed == root_shard.end()) {
        if (shards.empty() || shards.back().members.size() >= target) {
          shards.emplace_back();
        }
        placed = root_shard.emplace(root, shards.size() - 1).first;
      }
      shard_of[d] = placed->second;
      Shard& shard = shards[placed->second];
      shard.members.push_back(dirty_idx[d]);
      shard.demand += std::max(1, reports[dirty_idx[d]].agent.max_gpus_cap);
    }
    for (const auto& [node, d] : node_claim) {
      Shard& shard = shards[shard_of[find_root(d)]];
      shard.nodes.push_back(node);
      shard.capacity += free[node];
    }

    // 5. Hand unclaimed free nodes round-robin to shards that still need
    // capacity (up to 2x demand, so a queued job's shard can both place and
    // later grow it without dragging thousands of idle nodes into every
    // matrix).
    size_t rr = 0;
    for (size_t n = 0; n < num_nodes; ++n) {
      if (free[n] <= 0 || node_claim.find(n) != node_claim.end()) {
        continue;
      }
      bool placed = false;
      for (size_t probe = 0; probe < shards.size(); ++probe) {
        Shard& shard = shards[(rr + probe) % shards.size()];
        if (shard.capacity < 2 * shard.demand) {
          shard.nodes.push_back(n);
          shard.capacity += free[n];
          rr = (rr + probe + 1) % shards.size();
          placed = true;
          break;
        }
      }
      if (!placed) {
        break;  // Every shard is sated.
      }
    }

    // 6. Solve every shard with its own serial GA over its carved-out
    // capacity. Shards are independent (node-disjoint), so running them on
    // the pool in any order is bit-identical to running them serially.
    struct ShardResult {
      std::vector<uint64_t> job_ids;
      std::vector<std::vector<int>> rows;  // global-width rows
      double utility = 0.0;
      double fitness = 0.0;
    };
    std::vector<ShardResult> results(shards.size());
    if (shard_pool_ == nullptr) {
      shard_pool_ = std::make_unique<ThreadPool>(config_.ga.threads);
    }
    shard_pool_->ParallelFor(0, shards.size(), [&](size_t s) {
      Shard& shard = shards[s];
      if (shard.nodes.empty()) {
        // Every member is queued and the cluster is saturated: emitting no
        // rows keeps them queued (sparse-map omission means "unchanged").
        return;
      }
      std::sort(shard.nodes.begin(), shard.nodes.end());
      ClusterSpec local;
      local.gpus_per_node.reserve(shard.nodes.size());
      for (size_t node : shard.nodes) {
        local.gpus_per_node.push_back(free[node]);
      }
      if (cluster.HasTopology()) {
        // Shard sub-clusters keep their nodes' global rack ids and GPU
        // scales (rack ids need not be dense for the (K, N, R) summaries),
        // so shard GAs stay rack-affine.
        local.rack_link_factor = cluster.rack_link_factor;
        for (size_t node : shard.nodes) {
          const int global = static_cast<int>(node);
          local.rack_of_node.push_back(cluster.RackOf(global));
          local.gpu_type_of_node.push_back(
              global < static_cast<int>(cluster.gpu_type_of_node.size())
                  ? cluster.gpu_type_of_node[global]
                  : 0);
          local.node_gpu_scale.push_back(cluster.GpuScaleOf(global));
        }
      }
      std::vector<SchedJobReport> sub;
      sub.reserve(shard.members.size());
      for (size_t i : shard.members) {
        SchedJobReport report = reports[i];
        std::vector<int> local_row(shard.nodes.size(), 0);
        for (size_t l = 0; l < shard.nodes.size(); ++l) {
          const size_t n = shard.nodes[l];
          if (n < report.current_allocation.size()) {
            local_row[l] = report.current_allocation[n];
          }
        }
        report.current_allocation = std::move(local_row);
        sub.push_back(std::move(report));
      }
      const std::vector<SchedJobInfo> jobs = BuildJobInfos(sub, local.TotalGpus());
      GaOptions options = config_.ga;
      options.threads = 1;
      options.seed = MixSeed(config_.ga.seed, incremental_round_, s);
      GeneticOptimizer solver(std::move(local), options);
      const GeneticOptimizer::Result result = solver.Optimize(jobs);
      ShardResult& out = results[s];
      out.utility = result.utility;
      out.fitness = result.fitness;
      for (size_t j = 0; j < jobs.size(); ++j) {
        out.job_ids.push_back(jobs[j].job_id);
        std::vector<int> row(num_nodes, 0);
        const std::vector<int> local_row = result.best.Row(j);
        for (size_t l = 0; l < local_row.size() && l < shard.nodes.size(); ++l) {
          row[shard.nodes[l]] = local_row[l];
        }
        out.rows.push_back(std::move(row));
      }
    });

    double utility = 0.0;
    double fitness = 0.0;
    for (const ShardResult& result : results) {
      utility += result.utility;
      fitness += result.fitness;
      for (size_t j = 0; j < result.job_ids.size(); ++j) {
        allocations[result.job_ids[j]] = result.rows[j];
      }
    }
    // Shard-sum of Eqn. 17 / Eqn. 14 over the dirty subset only — a partial
    // view, but the natural per-round progress signal for this mode.
    last_utility_ = utility;
    last_fitness_ = fitness;
  }

  // 7. Refresh the snapshots: dirty jobs get a new one from this round's
  // telemetry, clean jobs age, vanished jobs (completions) are pruned.
  std::map<uint64_t, JobOptState> next;
  for (size_t i = 0; i < count; ++i) {
    const SchedJobReport& report = reports[i];
    JobOptState snap;
    if (!dirty[i]) {
      snap = opt_state_[report.agent.job_id];
      ++snap.rounds_clean;
    } else {
      snap.params = report.agent.model.params();
      snap.phi = report.agent.model.phi();
      snap.base_batch = report.agent.model.base_batch_size();
      snap.cap = std::max(1, report.agent.max_gpus_cap);
      snap.bucket = ProgressBucket(report.gpu_time);
      snap.rounds_clean = 0;
    }
    next[report.agent.job_id] = snap;
  }
  opt_state_ = std::move(next);

  // Drop rows identical to what the job already runs with: the sparse-map
  // contract makes omission mean "keep", and the simulator then skips the
  // whole apply path for them.
  for (size_t i = 0; i < count; ++i) {
    const SchedJobReport& report = reports[i];
    const auto it = allocations.find(report.agent.job_id);
    if (it == allocations.end()) {
      continue;
    }
    std::vector<int> current = report.current_allocation;
    current.resize(num_nodes, 0);
    if (it->second == current) {
      allocations.erase(it);
    }
  }
  return allocations;
}

}  // namespace pollux
