#include "core/rack_model.h"

#include <algorithm>
#include <cmath>

#include "optim/lbfgsb.h"
#include "util/rng.h"

namespace pollux {
namespace {

// [a_grad, b_grad, a_loc, b_loc, a_node, b_node, a_rack, b_rack, gamma].
constexpr size_t kDim = 9;

RackThroughputParams UnpackRackParams(const double* x) {
  RackThroughputParams params;
  params.alpha_grad = x[0];
  params.beta_grad = x[1];
  params.alpha_sync_local = x[2];
  params.beta_sync_local = x[3];
  params.alpha_sync_node = x[4];
  params.beta_sync_node = x[5];
  params.alpha_sync_rack = x[6];
  params.beta_sync_rack = x[7];
  params.gamma = x[8];
  return params;
}

std::vector<FitSample> RackFitSamples(const std::vector<RackThroughputObservation>& observations) {
  std::vector<FitSample> samples;
  samples.reserve(observations.size());
  for (const auto& obs : observations) {
    const RackPlacement& placement = obs.placement;
    const int tier = placement.num_gpus <= 1    ? -1
                     : placement.num_nodes <= 1 ? 0
                     : placement.num_racks <= 1 ? 1
                                                : 2;
    samples.push_back(FitSample{static_cast<double>(obs.batch_size), placement.num_gpus, tier,
                                std::log(obs.iter_time + kFitLogEpsilon)});
  }
  return samples;
}

}  // namespace

double RackGradTime(const RackThroughputParams& params, const RackPlacement& placement,
                    double batch_size) {
  if (placement.num_gpus <= 0) {
    return 0.0;
  }
  return params.alpha_grad + params.beta_grad * batch_size / placement.num_gpus;
}

double RackSyncTime(const RackThroughputParams& params, const RackPlacement& placement) {
  const int k = placement.num_gpus;
  if (k <= 1) {
    return 0.0;
  }
  if (placement.num_nodes <= 1) {
    return params.alpha_sync_local + params.beta_sync_local * (k - 2);
  }
  if (placement.num_racks <= 1) {
    return params.alpha_sync_node + params.beta_sync_node * (k - 2);
  }
  return params.alpha_sync_rack + params.beta_sync_rack * (k - 2);
}

double RackIterTime(const RackThroughputParams& params, const RackPlacement& placement,
                    double batch_size) {
  return CombineIterTime(RackGradTime(params, placement, batch_size),
                         RackSyncTime(params, placement), params.gamma);
}

double RackModelThroughput(const RackThroughputParams& params, const RackPlacement& placement,
                           double batch_size) {
  if (placement.num_gpus <= 0 || batch_size <= 0.0) {
    return 0.0;
  }
  const double iter = RackIterTime(params, placement, batch_size);
  return iter > 0.0 ? batch_size / iter : 0.0;
}

double RackThroughputRmsle(const RackThroughputParams& params,
                           const std::vector<RackThroughputObservation>& observations) {
  const double x[kDim] = {params.alpha_grad,      params.beta_grad,       params.alpha_sync_local,
                          params.beta_sync_local, params.alpha_sync_node, params.beta_sync_node,
                          params.alpha_sync_rack, params.beta_sync_rack,  params.gamma};
  return RmsleObjective(RackFitSamples(observations), kDim).Rmsle(x);
}

RackFitResult FitRackThroughputParams(const std::vector<RackThroughputObservation>& observations,
                                      const RackFitOptions& options) {
  RackFitResult result;
  if (observations.empty()) {
    return result;
  }

  std::vector<double> lower(kDim, 0.0);
  std::vector<double> upper = {options.max_alpha, options.max_beta, options.max_alpha,
                               options.max_beta,  options.max_alpha, options.max_beta,
                               options.max_alpha, options.max_beta,  10.0};
  lower[8] = 1.0;
  lower[1] = 1e-8;  // Gradient computation is never free (see model_fitter.cc).

  // Prior-driven exploration pins, extended to the rack tier.
  if (options.max_gpus_seen <= 1) {
    upper[2] = upper[3] = upper[4] = upper[5] = upper[6] = upper[7] = 0.0;
  }
  if (options.max_nodes_seen <= 1) {
    upper[4] = upper[5] = upper[6] = upper[7] = 0.0;
  }
  if (options.max_racks_seen <= 1) {
    upper[6] = upper[7] = 0.0;
  }
  if (options.max_gpus_seen <= 2) {
    upper[3] = upper[5] = upper[7] = 0.0;
  }

  LbfgsbOptions lbfgs_options;
  lbfgs_options.max_iterations = 100;
  const RmsleObjective rmsle(RackFitSamples(observations), kDim);
  const auto objective = [&](const double* x) { return rmsle.Value(x); };
  const auto gradient = [&](const double* x, double* grad) { rmsle.Gradient(x, grad); };
  BoundedProblem problem;
  problem.objective = objective;
  problem.gradient = gradient;
  problem.lower = lower;
  problem.upper = upper;

  std::vector<double> x0 = {0.01, std::min(1e-4, upper[1]), std::min(0.05, upper[2]),
                            std::min(0.005, upper[3]), std::min(0.1, upper[4]),
                            std::min(0.005, upper[5]), std::min(0.2, upper[6]),
                            std::min(0.01, upper[7]), 1.5};
  Rng rng(options.seed);
  const LbfgsbResult fit =
      MinimizeBoundedMultiStart(problem, x0, options.multi_starts, rng, lbfgs_options);
  result.params = UnpackRackParams(fit.x.data());
  result.rmsle = fit.value;
  result.evaluations = fit.evaluations + fit.gradient_evaluations;
  return result;
}

}  // namespace pollux
