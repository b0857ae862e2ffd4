// Cluster-wide fitness for PolluxSched (Eqns. 14-16).
//
//   FITNESS(A) = sum_j w_j * SPEEDUP_j(A_j) / sum_j w_j                 (14)
//   w_j        = min(1, GPUTIME_THRES / GPUTIME(j))^lambda              (16)
//
// with a RESTART_PENALTY subtracted from SPEEDUP_j whenever applying A would
// force job j to checkpoint-restart (Sec. 4.2.1).

#ifndef POLLUX_CORE_FITNESS_H_
#define POLLUX_CORE_FITNESS_H_

#include <cstdint>
#include <vector>

#include "core/allocation.h"
#include "core/speedup_table.h"

namespace pollux {

// Eqn. 16. `gpu_time` and `threshold` in the same unit (we use GPU-seconds);
// lambda = 0 disables decay (all weights 1).
double JobWeight(double gpu_time, double threshold, double lambda);

// Everything the scheduler-side fitness evaluation needs to know per job.
struct SchedJobInfo {
  uint64_t job_id = 0;
  SpeedupTable speedups;
  double weight = 1.0;
  // The allocation the job currently runs with (empty vector == not running).
  // A differing row in a candidate matrix incurs the restart penalty.
  std::vector<int> current_allocation;
  // Lifetime exploration cap: at most twice the most GPUs the job has ever
  // held (Sec. 4.1 "prior-driven exploration").
  int max_gpus_cap = 1;
};

// Penalized speedup of one row of the allocation matrix: the raw
// SPEEDUP_j(K, N) table lookup, minus the restart penalty when the row
// differs from the job's current allocation.
//
// When `cluster` carries topology annotations, the placement summary becomes
// (K, N, R): cross-rack rows read the SpeedupTable's rack regime, and the
// result is scaled by the slowest GPU generation the row touches. Flat
// clusters take the legacy path unchanged.
double PenalizedSpeedup(const SchedJobInfo& job, const AllocationMatrix& matrix, size_t row,
                        double restart_penalty, const ClusterSpec* cluster = nullptr);

// Eqn. 14 over all jobs.
double Fitness(const std::vector<SchedJobInfo>& jobs, const AllocationMatrix& matrix,
               double restart_penalty, const ClusterSpec* cluster = nullptr);

// Eqn. 17: cluster resource utility sum_j SPEEDUP_j / TOTAL_GPUS (no restart
// penalty, no weights) — the autoscaling signal.
double Utility(const std::vector<SchedJobInfo>& jobs, const AllocationMatrix& matrix,
               int total_gpus, const ClusterSpec* cluster = nullptr);

}  // namespace pollux

#endif  // POLLUX_CORE_FITNESS_H_
