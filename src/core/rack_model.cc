#include "core/rack_model.h"

#include <algorithm>
#include <cmath>

#include "optim/lbfgsb.h"
#include "util/rng.h"

namespace pollux {
namespace {

constexpr double kLogEpsilon = 1e-8;

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
  const double grad = RackGradTime(params, placement, batch_size);
  const double sync = RackSyncTime(params, placement);
  if (sync <= 0.0) {
    return grad;
  }
  if (grad <= 0.0) {
    return sync;
  }
  const double gamma = params.gamma < 1.0 ? 1.0 : params.gamma;
  const double hi = grad > sync ? grad : sync;
  const double lo = grad > sync ? sync : grad;
  return hi * std::pow(1.0 + std::pow(lo / hi, gamma), 1.0 / gamma);
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
  if (observations.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const auto& obs : observations) {
    const double predicted =
        RackIterTime(params, obs.placement, static_cast<double>(obs.batch_size));
    const double diff = std::log(predicted + kLogEpsilon) - std::log(obs.iter_time + kLogEpsilon);
    total += diff * diff;
  }
  return std::sqrt(total / static_cast<double>(observations.size()));
}

RackFitResult FitRackThroughputParams(const std::vector<RackThroughputObservation>& observations,
                                      const RackFitOptions& options) {
  RackFitResult result;
  if (observations.empty()) {
    return result;
  }

  // Layout: [a_grad, b_grad, a_loc, b_loc, a_node, b_node, a_rack, b_rack, gamma].
  std::vector<double> lower(9, 0.0);
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

  BoundedProblem problem;
  problem.lower = lower;
  problem.upper = upper;
  constexpr double kSyncRidge = 1e-3;
  const auto objective = [&](const double* x) {
    return RackThroughputRmsle(UnpackRackParams(x), observations) +
           kSyncRidge * (x[2] + x[3] + x[4] + x[5] + x[6] + x[7]);
  };
  problem.objective = objective;

  std::vector<double> x0 = {0.01, std::min(1e-4, upper[1]), std::min(0.05, upper[2]),
                            std::min(0.005, upper[3]), std::min(0.1, upper[4]),
                            std::min(0.005, upper[5]), std::min(0.2, upper[6]),
                            std::min(0.01, upper[7]), 1.5};
  LbfgsbOptions lbfgs_options;
  lbfgs_options.max_iterations = 100;
  Rng rng(options.seed);
  const LbfgsbResult fit =
      MinimizeBoundedMultiStart(problem, x0, options.multi_starts, rng, lbfgs_options);
  result.params = UnpackRackParams(fit.x.data());
  result.rmsle = fit.value;
  result.evaluations = fit.evaluations;
  return result;
}

}  // namespace pollux
