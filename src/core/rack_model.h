// Rack-level extension of the throughput model.
//
// The paper notes (Sec. 3.2): "our model for T_sync can be extended to
// account for rack-level locality by adding a third pair of parameters."
// This module implements that extension: synchronization time has three
// regimes — co-located on one node, spread across nodes within one rack, and
// spread across racks — each with its own (alpha, beta) pair. The combined
// iteration time uses the same gamma-interpolation as Eqn. 11, and the same
// RMSLE + bounded L-BFGS pipeline fits the now 9-parameter model, including
// the analogous prior-driven exploration pins.

#ifndef POLLUX_CORE_RACK_MODEL_H_
#define POLLUX_CORE_RACK_MODEL_H_

#include <cstdint>
#include <vector>

#include "core/throughput_model.h"

namespace pollux {

// Placement summary with rack awareness.
struct RackPlacement {
  int num_gpus = 0;   // K: total GPUs.
  int num_nodes = 0;  // N: nodes contributing at least one GPU.
  int num_racks = 0;  // R: racks contributing at least one node.

  bool operator==(const RackPlacement&) const = default;

  Placement Flatten() const { return Placement{num_gpus, num_nodes}; }
};

// theta_sys extended with the rack tier.
struct RackThroughputParams {
  double alpha_grad = 0.0;
  double beta_grad = 0.0;
  double alpha_sync_local = 0.0;  // N = 1.
  double beta_sync_local = 0.0;
  double alpha_sync_node = 0.0;   // N >= 2, R = 1.
  double beta_sync_node = 0.0;
  double alpha_sync_rack = 0.0;   // R >= 2.
  double beta_sync_rack = 0.0;
  double gamma = 1.0;
};

double RackGradTime(const RackThroughputParams& params, const RackPlacement& placement,
                    double batch_size);
double RackSyncTime(const RackThroughputParams& params, const RackPlacement& placement);
double RackIterTime(const RackThroughputParams& params, const RackPlacement& placement,
                    double batch_size);
double RackModelThroughput(const RackThroughputParams& params, const RackPlacement& placement,
                           double batch_size);

struct RackThroughputObservation {
  RackPlacement placement;
  long batch_size = 0;
  double iter_time = 0.0;
};

struct RackFitOptions {
  int max_gpus_seen = 1;
  int max_nodes_seen = 1;
  int max_racks_seen = 1;
  int multi_starts = 3;
  uint64_t seed = 1;
  double max_alpha = 100.0;
  double max_beta = 10.0;
};

struct RackFitResult {
  RackThroughputParams params;
  double rmsle = 0.0;
  int evaluations = 0;  // Objective plus gradient calls, as FitResult's.
};

double RackThroughputRmsle(const RackThroughputParams& params,
                           const std::vector<RackThroughputObservation>& observations);

RackFitResult FitRackThroughputParams(
    const std::vector<RackThroughputObservation>& observations,
    const RackFitOptions& options = {});

}  // namespace pollux

#endif  // POLLUX_CORE_RACK_MODEL_H_
