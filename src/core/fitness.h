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

// Eqns. 14 and 17 over one round's job set; every GA fitness and utility
// value goes through this one scoring path. GeneticOptimizer builds one per
// Optimize call and shares it read-only across workers.
//
// Per job it holds dense rows of SpeedupTable::At values for every K up to
// the job's table max_gpus (beyond which At clamps), one row per regime:
// single-node, multi-node, and on topology clusters multi-rack. It also holds
// the job's current allocation zero-padded to the cluster's node count. A
// matrix row is then scored by one fused scan that yields K, N, whether the
// row spans racks, the slowest GPU scale it touches and whether it differs
// from the current allocation, plus one indexed load. The rows hold At's own
// results and the arithmetic is At * scale - penalty in row order, so every
// value is bit-identical to the table lookups.
//
// When `cluster` carries topology annotations, cross-rack rows read the
// table's rack regime and are scaled by the slowest GPU generation they
// touch. Flat clusters read the node regimes with scale 1.
class FitnessScorer {
 public:
  FitnessScorer(const std::vector<SchedJobInfo>& jobs, const ClusterSpec& cluster,
                double restart_penalty);

  // Eqn. 14: sum_j w_j * (SPEEDUP_j minus RESTART_PENALTY when row j differs
  // from the job's non-empty current allocation) / sum_j w_j. The matrix has
  // one row per job and one column per cluster node.
  double Fitness(const AllocationMatrix& matrix) const;

  // Eqn. 17: cluster resource utility sum_j SPEEDUP_j / TOTAL_GPUS (no restart
  // penalty, no weights) -- the autoscaling signal.
  double Utility(const AllocationMatrix& matrix) const;

 private:
  // Raw SPEEDUP_j of matrix row j; sets *changed when the row differs from
  // the job's padded current allocation.
  double RowSpeedup(const AllocationMatrix& matrix, size_t j, bool* changed) const;

  bool topology_ = false;
  size_t num_nodes_ = 0;
  int regimes_ = 2;
  double restart_penalty_ = 0.0;
  double total_weight_ = 0.0;
  int total_gpus_ = 0;
  struct Job {
    size_t row_start = 0;  // Offset of the job's [regime][K] rows in speedups_.
    int row_len = 1;       // Its table's max_gpus() + 1.
    bool has_current = false;
    double weight = 1.0;
  };
  std::vector<Job> jobs_;
  std::vector<double> speedups_;
  std::vector<int> current_;        // [job][node], zero-padded.
  std::vector<int> rack_of_node_;   // Topology only.
  std::vector<double> node_scale_;  // Topology only.
};

}  // namespace pollux

#endif  // POLLUX_CORE_FITNESS_H_
