#include "core/speedup_table.h"

#include <algorithm>

namespace pollux {

SpeedupTable::SpeedupTable(const GoodputModel& model, const BatchLimits& limits, int max_gpus,
                           double rack_link_factor) {
  if (max_gpus < 1) {
    return;
  }
  // Dense up to 8 GPUs, then geometric with ratio ~1.25 (speedup is smooth in
  // K, so interpolation error between grid points is negligible).
  for (int k = 1; k <= max_gpus;) {
    grid_.push_back(k);
    k = k <= 8 ? k + 1 : std::max(k + 1, k * 5 / 4);
  }
  if (grid_.back() != max_gpus) {
    grid_.push_back(max_gpus);
  }

  const auto reference = model.OptimizeBatchSize(Placement{1, 1}, limits);
  const double denom = reference.goodput;
  single_node_.resize(grid_.size());
  multi_node_.resize(grid_.size());
  // N == 2 stands for any multi-node placement (Eqn. 10 only distinguishes
  // N == 1 from N >= 2).
  for (size_t i = 0; i < grid_.size(); ++i) {
    const int k = grid_[i];
    const auto single = model.OptimizeBatchSize(Placement{k, 1}, limits);
    // Degenerate reference goodput (no single-GPU data yet) falls back to a
    // neutral speedup of 1 so the job can still be scheduled (see Speedup()).
    single_node_[i] = {denom > 0.0 ? single.goodput / denom : 1.0, single.batch_size};
    if (k >= 2) {
      const auto multi = model.OptimizeBatchSize(Placement{k, 2}, limits);
      multi_node_[i] = {denom > 0.0 ? multi.goodput / denom : 1.0, multi.batch_size};
    } else {
      multi_node_[i] = single_node_[i];
    }
  }

  if (rack_link_factor > 1.0) {
    // Cross-rack regime: the node-tier sync parameters scaled by the link
    // factor, same denominator so all three regimes share the speedup scale.
    ThroughputParams rack_params = model.params();
    rack_params.alpha_sync_node *= rack_link_factor;
    rack_params.beta_sync_node *= rack_link_factor;
    const GoodputModel rack_model(rack_params, model.phi(), model.base_batch_size());
    multi_rack_.resize(grid_.size());
    for (size_t i = 0; i < grid_.size(); ++i) {
      const int k = grid_[i];
      if (k >= 2) {
        const auto rack = rack_model.OptimizeBatchSize(Placement{k, 2}, limits);
        multi_rack_[i] = {denom > 0.0 ? rack.goodput / denom : 1.0, rack.batch_size};
      } else {
        multi_rack_[i] = single_node_[i];
      }
    }
  }
}

size_t SpeedupTable::SegmentOf(int k) const {
  // grid_ is sorted; find the last grid point <= k.
  const auto it = std::upper_bound(grid_.begin(), grid_.end(), k);
  return static_cast<size_t>(std::distance(grid_.begin(), it)) - 1;
}

double SpeedupTable::AtIn(const std::vector<Entry>& table, int num_gpus) const {
  const int k = std::min(num_gpus, grid_.back());
  const size_t i = SegmentOf(k);
  if (grid_[i] == k || i + 1 >= grid_.size()) {
    return table[i].speedup;
  }
  const double span = static_cast<double>(grid_[i + 1] - grid_[i]);
  const double frac = static_cast<double>(k - grid_[i]) / span;
  return table[i].speedup * (1.0 - frac) + table[i + 1].speedup * frac;
}

long SpeedupTable::BatchSizeIn(const std::vector<Entry>& table, int num_gpus) const {
  const int k = std::min(num_gpus, grid_.back());
  const size_t i = SegmentOf(k);
  if (grid_[i] == k || i + 1 >= grid_.size()) {
    return table[i].batch_size;
  }
  // Nearest grid point.
  const int lo_gap = k - grid_[i];
  const int hi_gap = grid_[i + 1] - k;
  return lo_gap <= hi_gap ? table[i].batch_size : table[i + 1].batch_size;
}

double SpeedupTable::At(int num_gpus, int num_nodes) const {
  if (num_gpus <= 0 || grid_.empty()) {
    return 0.0;
  }
  return AtIn(TableFor(num_nodes, 1), num_gpus);
}

double SpeedupTable::At(const RackPlacement& placement) const {
  if (placement.num_gpus <= 0 || grid_.empty()) {
    return 0.0;
  }
  return AtIn(TableFor(placement.num_nodes, placement.num_racks), placement.num_gpus);
}

long SpeedupTable::BatchSizeAt(int num_gpus, int num_nodes) const {
  if (num_gpus <= 0 || grid_.empty()) {
    return 0;
  }
  return BatchSizeIn(TableFor(num_nodes, 1), num_gpus);
}

long SpeedupTable::BatchSizeAt(const RackPlacement& placement) const {
  if (placement.num_gpus <= 0 || grid_.empty()) {
    return 0;
  }
  return BatchSizeIn(TableFor(placement.num_nodes, placement.num_racks), placement.num_gpus);
}

}  // namespace pollux
