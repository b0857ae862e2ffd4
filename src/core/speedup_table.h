// Cached SPEEDUP_j lookups for the genetic algorithm.
//
// SPEEDUP_j(A_j) (Eqn. 15) depends on the placement vector A_j only through
// (K, N), and the throughput model (Eqn. 10) only distinguishes N == 1 from
// N >= 2. PolluxSched therefore precomputes, once per scheduling round per
// job, the batch-size-optimized goodput over a geometric grid of GPU counts
// in both co-located and cross-node regimes (speedup is smooth in K, so
// off-grid counts are linearly interpolated). Genetic-algorithm fitness
// evaluation then reduces to table lookups, which is what makes 100
// generations x 100 matrices per round tractable.

#ifndef POLLUX_CORE_SPEEDUP_TABLE_H_
#define POLLUX_CORE_SPEEDUP_TABLE_H_

#include <cstddef>
#include <vector>

#include "core/goodput.h"
#include "core/rack_model.h"
#include "core/types.h"

namespace pollux {

class SpeedupTable {
 public:
  SpeedupTable() = default;

  // Precomputes speedups for K in [1, max_gpus], one OptimizeBatchSize per
  // grid point and regime. The denominator is the optimal single-GPU goodput
  // (so At(1, 1) == 1).
  //
  // When rack_link_factor > 1 a third, cross-rack regime is precomputed from
  // the same model with alpha/beta_sync_node scaled by the factor (Sec. 3.2's
  // rack-locality extension of Eqn. 10); the node regimes are unchanged.
  SpeedupTable(const GoodputModel& model, const BatchLimits& limits, int max_gpus,
               double rack_link_factor = 1.0);

  // SPEEDUP at K GPUs spread over N nodes; K beyond max_gpus clamps, off-grid
  // K interpolates linearly. N only matters as {1, multi}.
  double At(int num_gpus, int num_nodes) const;

  // Regime-aware lookup: placements spanning >= 2 racks use the cross-rack
  // table when it exists (falling back to the node regime otherwise).
  double At(const RackPlacement& placement) const;

  // The batch size chosen by the numerator's inner maximization at the
  // nearest grid point; used to configure the job once an allocation lands.
  long BatchSizeAt(int num_gpus, int num_nodes) const;
  long BatchSizeAt(const RackPlacement& placement) const;

  bool has_rack_regime() const { return !multi_rack_.empty(); }

  int max_gpus() const { return grid_.empty() ? 0 : grid_.back(); }
  bool empty() const { return grid_.empty(); }

 private:
  struct Entry {
    double speedup = 0.0;
    long batch_size = 0;
  };

  // Index of the grid segment containing k (grid_[i] <= k).
  size_t SegmentOf(int k) const;

  const std::vector<Entry>& TableFor(int num_nodes, int num_racks) const {
    if (num_racks >= 2 && !multi_rack_.empty()) {
      return multi_rack_;
    }
    return num_nodes <= 1 ? single_node_ : multi_node_;
  }

  double AtIn(const std::vector<Entry>& table, int num_gpus) const;
  long BatchSizeIn(const std::vector<Entry>& table, int num_gpus) const;

  std::vector<int> grid_;
  std::vector<Entry> single_node_;
  std::vector<Entry> multi_node_;
  std::vector<Entry> multi_rack_;  // Empty outside topology mode.
};

}  // namespace pollux

#endif  // POLLUX_CORE_SPEEDUP_TABLE_H_
