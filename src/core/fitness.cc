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

FitnessScorer::FitnessScorer(const std::vector<SchedJobInfo>& jobs, const ClusterSpec& cluster,
                             double restart_penalty)
    : topology_(cluster.HasTopology()),
      num_nodes_(cluster.gpus_per_node.size()),
      regimes_(topology_ ? 3 : 2),
      restart_penalty_(restart_penalty),
      total_gpus_(cluster.TotalGpus()),
      jobs_(jobs.size()),
      current_(jobs.size() * num_nodes_, 0) {
  for (size_t j = 0; j < jobs.size(); ++j) {
    const SpeedupTable& table = jobs[j].speedups;
    Job& job = jobs_[j];
    // At clamps K past the table's max, so K in [0, max] covers every row.
    job.row_start = speedups_.size();
    job.row_len = table.max_gpus() + 1;
    for (int regime = 0; regime < regimes_; ++regime) {
      for (int k = 0; k < job.row_len; ++k) {
        speedups_.push_back(regime == 2 ? table.At(RackPlacement{k, 2, 2})
                                        : table.At(k, regime + 1));
      }
    }
    const std::vector<int>& current = jobs[j].current_allocation;
    std::copy_n(current.begin(), std::min(current.size(), num_nodes_),
                current_.begin() + static_cast<std::ptrdiff_t>(j * num_nodes_));
    job.has_current = !current.empty();
    job.weight = jobs[j].weight;
    total_weight_ += jobs[j].weight;
  }
  if (topology_) {
    for (size_t n = 0; n < num_nodes_; ++n) {
      rack_of_node_.push_back(cluster.RackOf(static_cast<int>(n)));
      node_scale_.push_back(cluster.GpuScaleOf(static_cast<int>(n)));
    }
  }
}

double FitnessScorer::RowSpeedup(const AllocationMatrix& matrix, size_t j, bool* changed) const {
  const int* cells = matrix.RowData(j);
  const int* current = current_.data() + j * num_nodes_;
  int gpus = 0;
  int nodes = 0;
  int differs = 0;  // Nonzero once any cell differs.
  bool multi_rack = false;
  // Synchronous data parallelism paces every replica at the slowest GPU, so
  // the scale is a min over occupied nodes (1 when none, or on flat clusters).
  double scale = 1.0;
  if (topology_) {
    int first_rack = 0;
    for (size_t n = 0; n < num_nodes_; ++n) {
      const int cell = cells[n];
      differs |= cell ^ current[n];
      if (cell > 0) {
        const double node_scale = node_scale_[n];
        scale = nodes == 0 || node_scale < scale ? node_scale : scale;
        if (nodes == 0) {
          first_rack = rack_of_node_[n];
        } else if (rack_of_node_[n] != first_rack) {
          multi_rack = true;
        }
        gpus += cell;
        ++nodes;
      }
    }
  } else {
    // Branch-free, so the scan vectorizes.
    for (size_t n = 0; n < num_nodes_; ++n) {
      const int cell = cells[n];
      const int positive = cell > 0 ? 1 : 0;
      differs |= cell ^ current[n];
      gpus += positive * cell;
      nodes += positive;
    }
  }
  *changed = differs != 0;
  const int regime = multi_rack ? 2 : (nodes <= 1 ? 0 : 1);
  const Job& job = jobs_[j];
  const double* row =
      speedups_.data() + job.row_start + static_cast<size_t>(regime * job.row_len);
  return row[std::min(gpus, job.row_len - 1)] * scale;
}

double FitnessScorer::Fitness(const AllocationMatrix& matrix) const {
  double weighted = 0.0;
  for (size_t j = 0; j < jobs_.size(); ++j) {
    bool changed = false;
    double speedup = RowSpeedup(matrix, j, &changed);
    if (jobs_[j].has_current && changed) {
      speedup -= restart_penalty_;
    }
    weighted += jobs_[j].weight * speedup;
  }
  return total_weight_ > 0.0 ? weighted / total_weight_ : 0.0;
}

double FitnessScorer::Utility(const AllocationMatrix& matrix) const {
  if (total_gpus_ <= 0) {
    return 0.0;
  }
  double total = 0.0;
  for (size_t j = 0; j < jobs_.size(); ++j) {
    bool changed = false;
    total += RowSpeedup(matrix, j, &changed);
  }
  return total / static_cast<double>(total_gpus_);
}

}  // namespace pollux
