#include "core/fitness.h"

#include <algorithm>
#include <cmath>

namespace pollux {

double JobWeight(double gpu_time, double threshold, double lambda) {
  if (lambda <= 0.0 || gpu_time <= threshold || threshold <= 0.0) {
    return 1.0;
  }
  return std::pow(threshold / gpu_time, lambda);
}

namespace {

// Topology path: raw SPEEDUP_j(K, regime) under the (K, N, R) regime, scaled
// by the slowest GPU generation in the row. Synchronous data parallelism
// paces every replica at the slowest one, so the scale is a min, not a mean.
double RawRackSpeedup(const SchedJobInfo& job, const AllocationMatrix& matrix, size_t row,
                      const ClusterSpec& cluster) {
  const RackPlacement placement = matrix.JobRackPlacement(row, cluster);
  if (placement.num_gpus <= 0) {
    return 0.0;
  }
  return job.speedups.At(placement) * matrix.JobMinGpuScale(row, cluster);
}

}  // namespace

double PenalizedSpeedup(const SchedJobInfo& job, const AllocationMatrix& matrix, size_t row,
                        double restart_penalty, const ClusterSpec* cluster) {
  double speedup;
  if (cluster != nullptr && cluster->HasTopology()) {
    speedup = RawRackSpeedup(job, matrix, row, *cluster);
  } else {
    const Placement placement = matrix.JobPlacement(row);
    speedup = job.speedups.At(placement.num_gpus, placement.num_nodes);
  }
  if (!job.current_allocation.empty()) {
    bool changed = false;
    for (size_t n = 0; n < matrix.num_nodes(); ++n) {
      const int previous =
          n < job.current_allocation.size() ? job.current_allocation[n] : 0;
      if (matrix.at(row, n) != previous) {
        changed = true;
        break;
      }
    }
    if (changed) {
      speedup -= restart_penalty;
    }
  }
  return speedup;
}

double Fitness(const std::vector<SchedJobInfo>& jobs, const AllocationMatrix& matrix,
               double restart_penalty, const ClusterSpec* cluster) {
  double weighted = 0.0;
  double total_weight = 0.0;
  for (size_t j = 0; j < jobs.size(); ++j) {
    weighted +=
        jobs[j].weight * PenalizedSpeedup(jobs[j], matrix, j, restart_penalty, cluster);
    total_weight += jobs[j].weight;
  }
  return total_weight > 0.0 ? weighted / total_weight : 0.0;
}

double Utility(const std::vector<SchedJobInfo>& jobs, const AllocationMatrix& matrix,
               int total_gpus, const ClusterSpec* cluster) {
  if (total_gpus <= 0) {
    return 0.0;
  }
  const bool topology = cluster != nullptr && cluster->HasTopology();
  double total = 0.0;
  for (size_t j = 0; j < jobs.size(); ++j) {
    if (topology) {
      total += jobs[j].speedups.At(matrix.JobRackPlacement(j, *cluster)) *
               matrix.JobMinGpuScale(j, *cluster);
    } else {
      const Placement placement = matrix.JobPlacement(j);
      total += jobs[j].speedups.At(placement.num_gpus, placement.num_nodes);
    }
  }
  return total / static_cast<double>(total_gpus);
}

}  // namespace pollux
