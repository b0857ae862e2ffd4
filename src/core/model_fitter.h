// Online fitting of the system throughput parameters theta_sys (Sec. 4.1).
//
// PolluxAgent records (placement, batch size, T_iter) triples during training
// and periodically minimizes the root mean squared logarithmic error between
// Eqn. 11 and the recorded data using bound-constrained L-BFGS, with alpha
// and beta parameters constrained non-negative and gamma in [1, 10].
//
// Prior-driven exploration: parameters describing configurations the job has
// never run in are pinned to 0 ("assume perfect scaling until explored"):
//   * never used >1 GPU      -> all sync parameters pinned to 0,
//   * never used >1 node     -> cross-node sync parameters pinned to 0,
//   * never used >2 GPUs     -> both retrogression slopes pinned to 0.

#ifndef POLLUX_CORE_MODEL_FITTER_H_
#define POLLUX_CORE_MODEL_FITTER_H_

#include <cstdint>
#include <vector>

#include "core/throughput_model.h"
#include "core/types.h"

namespace pollux {

struct ThroughputObservation {
  Placement placement;
  long batch_size = 0;
  double iter_time = 0.0;  // Seconds.
};

struct FitOptions {
  // Largest configuration the job has experienced, driving the priors above.
  int max_gpus_seen = 1;
  int max_nodes_seen = 1;
  // Random restarts for the non-convex RMSLE landscape.
  int multi_starts = 3;
  uint64_t seed = 1;
  // Upper bounds for the alpha/beta parameters (seconds / seconds-per-example).
  double max_alpha = 100.0;
  double max_beta = 10.0;
  // Robust fitting: after an initial fit, observations whose log-residual
  // deviates from the residual median by more than this many MAD-sigmas
  // (1.4826 * MAD) are discarded and the fit is re-run on the survivors —
  // the defense against straggler-inflated T_iter samples. 0 disables.
  double outlier_mad_threshold = 0.0;
};

struct FitResult {
  ThroughputParams params;
  double rmsle = 0.0;
  // Objective calls plus gradient calls, over every start and both passes:
  // the fit's cost, not its output.
  int evaluations = 0;
  // Observations discarded by the MAD outlier pass (0 when disabled).
  int outliers_rejected = 0;
};

// Root mean squared logarithmic error of `params` against the observations.
double ThroughputRmsle(const ThroughputParams& params,
                       const std::vector<ThroughputObservation>& observations);

// Fits theta_sys to the observations. Requires at least one observation;
// with very few observations the priors dominate, exactly as intended.
FitResult FitThroughputParams(const std::vector<ThroughputObservation>& observations,
                              const FitOptions& options = {});

}  // namespace pollux

#endif  // POLLUX_CORE_MODEL_FITTER_H_
