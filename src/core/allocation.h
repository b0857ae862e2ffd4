// Cluster shape and allocation matrices (Sec. 4.2).
//
// An AllocationMatrix A has one row per job and one column per node; A[j][n]
// is the number of GPUs on node n allocated to job j. PolluxSched's genetic
// algorithm evolves a population of these matrices.

#ifndef POLLUX_CORE_ALLOCATION_H_
#define POLLUX_CORE_ALLOCATION_H_

#include <cstddef>
#include <vector>

#include "core/rack_model.h"
#include "core/types.h"

namespace pollux {

// Physical cluster shape: GPUs available on each node, plus optional topology
// annotations (rack -> node -> GPU with mixed generations; DESIGN.md sec. 14).
struct ClusterSpec {
  std::vector<int> gpus_per_node;

  // Topology annotations. Empty `rack_of_node` selects the legacy flat
  // single-rack homogeneous model; every consumer gates on HasTopology(), so
  // flat configs stay byte-identical to pre-topology builds.
  std::vector<int> rack_of_node;       // Rack id per node.
  std::vector<int> gpu_type_of_node;   // GpuType per node (for reporting/serialization).
  std::vector<double> node_gpu_scale;  // Relative GPU throughput per node (1.0 baseline).
  double rack_link_factor = 1.0;       // Cross-rack multiplier on node-tier sync cost.

  int NumNodes() const { return static_cast<int>(gpus_per_node.size()); }
  int TotalGpus() const {
    int total = 0;
    for (int g : gpus_per_node) {
      total += g;
    }
    return total;
  }
  int MaxGpusPerNode() const {
    int best = 0;
    for (int g : gpus_per_node) {
      best = best > g ? best : g;
    }
    return best;
  }

  bool HasTopology() const { return !rack_of_node.empty(); }
  int NumRacks() const;
  int RackOf(int node) const {
    return node >= 0 && node < static_cast<int>(rack_of_node.size()) ? rack_of_node[node] : 0;
  }
  double GpuScaleOf(int node) const {
    return node >= 0 && node < static_cast<int>(node_gpu_scale.size()) ? node_gpu_scale[node]
                                                                       : 1.0;
  }
  // Flat view with the annotations stripped: what a topology-blind scheduler
  // sees in the bench_topology A/B baseline arm.
  ClusterSpec WithoutTopology() const;

  // Homogeneous helper: `nodes` nodes with `gpus` GPUs each.
  static ClusterSpec Homogeneous(int nodes, int gpus);

  bool operator==(const ClusterSpec&) const = default;
};

class AllocationMatrix {
 public:
  AllocationMatrix() = default;
  AllocationMatrix(size_t num_jobs, size_t num_nodes);

  int& at(size_t job, size_t node) { return cells_[job * num_nodes_ + node]; }
  int at(size_t job, size_t node) const { return cells_[job * num_nodes_ + node]; }

  // Row j's cells, contiguous: num_nodes() ints.
  int* RowData(size_t job) { return cells_.data() + job * num_nodes_; }
  const int* RowData(size_t job) const { return cells_.data() + job * num_nodes_; }

  size_t num_jobs() const { return num_jobs_; }
  size_t num_nodes() const { return num_nodes_; }

  // Row accessors.
  std::vector<int> Row(size_t job) const;
  void SetRow(size_t job, const std::vector<int>& row);

  // K and N for one job (Eqn. 10's placement summary).
  Placement JobPlacement(size_t job) const;

  // (K, N, R) summary under the cluster's rack map. Flat clusters report
  // R = min(N, 1), so Flatten() round-trips to JobPlacement().
  RackPlacement JobRackPlacement(size_t job, const ClusterSpec& cluster) const;

  // Slowest GPU generation the job touches: min node_gpu_scale over occupied
  // nodes (1.0 when unallocated or on a flat cluster). Synchronous data
  // parallelism paces every replica at the slowest one.
  double JobMinGpuScale(size_t job, const ClusterSpec& cluster) const;

  // Total GPUs requested on each node across all jobs.
  std::vector<int> NodeUsage() const;

  // True when no node is over-committed.
  bool WithinCapacity(const ClusterSpec& cluster) const;

  // True when job j occupies >= 2 nodes (a "distributed job" for the
  // interference-avoidance constraint).
  bool IsDistributed(size_t job) const { return JobPlacement(job).num_nodes >= 2; }

  bool operator==(const AllocationMatrix&) const = default;

 private:
  size_t num_jobs_ = 0;
  size_t num_nodes_ = 0;
  std::vector<int> cells_;
};

}  // namespace pollux

#endif  // POLLUX_CORE_ALLOCATION_H_
