#include "core/throughput_model.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace pollux {

double GradTime(const ThroughputParams& params, const Placement& placement, double batch_size) {
  if (placement.num_gpus <= 0) {
    return 0.0;
  }
  return params.alpha_grad + params.beta_grad * batch_size / placement.num_gpus;
}

double SyncTime(const ThroughputParams& params, const Placement& placement) {
  const int k = placement.num_gpus;
  if (k <= 1) {
    return 0.0;
  }
  if (placement.num_nodes <= 1) {
    return params.alpha_sync_local + params.beta_sync_local * (k - 2);
  }
  return params.alpha_sync_node + params.beta_sync_node * (k - 2);
}

double IterTime(const ThroughputParams& params, const Placement& placement, double batch_size) {
  return CombineIterTime(GradTime(params, placement, batch_size), SyncTime(params, placement),
                         params.gamma);
}

double ModelThroughput(const ThroughputParams& params, const Placement& placement,
                       double batch_size) {
  if (placement.num_gpus <= 0 || batch_size <= 0.0) {
    return 0.0;
  }
  const double titer = IterTime(params, placement, batch_size);
  if (titer <= 0.0) {
    return 0.0;
  }
  return batch_size / titer;
}

double CombineIterTime(double grad, double sync, double gamma) {
  if (sync <= 0.0) {
    return grad;
  }
  if (grad <= 0.0) {
    return sync;
  }
  gamma = gamma < 1.0 ? 1.0 : gamma;
  // Compute (grad^g + sync^g)^(1/g) in a numerically safe way by factoring out
  // the larger term: hi * (1 + (lo/hi)^g)^(1/g).
  const double hi = grad > sync ? grad : sync;
  const double lo = grad > sync ? sync : grad;
  const double ratio = lo / hi;
  return hi * std::pow(1.0 + std::pow(ratio, gamma), 1.0 / gamma);
}

IterTimeSlopes IterTimeWithSlopes(double grad, double sync, double gamma) {
  IterTimeSlopes out;
  const double g = gamma < 1.0 ? 1.0 : gamma;
  if (sync <= 0.0) {
    out.iter_time = grad;
    if (grad > 0.0) {
      out.d_grad = 1.0 / grad;
      out.d_sync = std::log1p(std::pow(kFitSyncStep / grad, g)) / (g * kFitSyncStep);
    }
    return out;
  }
  if (grad <= 0.0) {
    out.iter_time = sync;
    out.d_sync = 1.0 / sync;
    return out;
  }
  // The same operations as CombineIterTime, so iter_time matches it bit for
  // bit.
  const bool grad_is_hi = grad > sync;
  const double hi = grad_is_hi ? grad : sync;
  const double lo = grad_is_hi ? sync : grad;
  const double ratio = lo / hi;
  const double power = std::pow(ratio, g);
  const double u = 1.0 + power;
  out.iter_time = hi * std::pow(u, 1.0 / g);
  out.d_grad = 1.0 / (u * hi);
  out.d_sync = power / (u * lo);
  if (!grad_is_hi) {
    std::swap(out.d_grad, out.d_sync);
  }
  if (gamma >= 1.0) {
    out.d_gamma = -std::log1p(power) / (g * g);
    if (power > 0.0) {
      out.d_gamma += power * std::log(ratio) / (g * u);
    }
  }
  return out;
}

namespace {

// The tiny ridge on the synchronization parameters resolves the attribution
// ambiguity when the data cannot distinguish compute from sync time (e.g. all
// observations share one GPU count): ties break toward compute, keeping
// extrapolations to other GPU counts sane.
constexpr double kSyncRidge = 1e-3;

double SampleGradTime(const FitSample& sample, const double* x) {
  return sample.num_gpus > 0 ? x[0] + x[1] * sample.batch_size / sample.num_gpus : 0.0;
}

double SampleSyncTime(const FitSample& sample, const double* x) {
  if (sample.sync_tier < 0) {
    return 0.0;
  }
  const size_t alpha = 2 + 2 * static_cast<size_t>(sample.sync_tier);
  return x[alpha] + x[alpha + 1] * (sample.num_gpus - 2);
}

}  // namespace

RmsleObjective::RmsleObjective(std::vector<FitSample> samples, size_t dim)
    : samples_(std::move(samples)), dim_(dim) {}

double RmsleObjective::Rmsle(const double* x) const {
  if (samples_.empty()) {
    return 0.0;
  }
  const double gamma = x[dim_ - 1];
  double total = 0.0;
  for (const FitSample& sample : samples_) {
    const double predicted =
        CombineIterTime(SampleGradTime(sample, x), SampleSyncTime(sample, x), gamma);
    const double diff = std::log(predicted + kFitLogEpsilon) - sample.log_iter_time;
    total += diff * diff;
  }
  return std::sqrt(total / static_cast<double>(samples_.size()));
}

double RmsleObjective::Value(const double* x) const {
  double sync_sum = 0.0;
  for (size_t i = 2; i + 1 < dim_; ++i) {
    sync_sum += x[i];
  }
  return Rmsle(x) + kSyncRidge * sync_sum;
}

// With d_i = ln(T_i + eps) - ln(T_obs,i + eps), the RMSLE's gradient is
// sum_i d_i T_i/(T_i + eps) d(ln T_i)/dx / (n RMSLE).
void RmsleObjective::Gradient(const double* x, double* grad) const {
  std::fill(grad, grad + dim_, 0.0);
  if (!samples_.empty()) {
    const double gamma = x[dim_ - 1];
    double total = 0.0;
    for (const FitSample& sample : samples_) {
      const IterTimeSlopes slopes =
          IterTimeWithSlopes(SampleGradTime(sample, x), SampleSyncTime(sample, x), gamma);
      const double diff = std::log(slopes.iter_time + kFitLogEpsilon) - sample.log_iter_time;
      total += diff * diff;
      const double weight = diff * slopes.iter_time / (slopes.iter_time + kFitLogEpsilon);
      if (sample.num_gpus > 0) {
        grad[0] += weight * slopes.d_grad;
        grad[1] += weight * slopes.d_grad * sample.batch_size / sample.num_gpus;
      }
      if (sample.sync_tier >= 0) {
        const size_t alpha = 2 + 2 * static_cast<size_t>(sample.sync_tier);
        grad[alpha] += weight * slopes.d_sync;
        grad[alpha + 1] += weight * slopes.d_sync * (sample.num_gpus - 2);
      }
      grad[dim_ - 1] += weight * slopes.d_gamma;
    }
    const double n = static_cast<double>(samples_.size());
    const double rmsle = std::sqrt(total / n);
    const double scale = rmsle > 0.0 ? 1.0 / (n * rmsle) : 0.0;
    for (size_t i = 0; i < dim_; ++i) {
      grad[i] *= scale;
    }
  }
  for (size_t i = 2; i + 1 < dim_; ++i) {
    grad[i] += kSyncRidge;
  }
}

}  // namespace pollux
