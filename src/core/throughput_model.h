// The system throughput model of Sec. 3.2 (Eqns. 8-11):
//
//   T_grad(a, m) = alpha_grad + beta_grad * m / K                       (9)
//   T_sync(a)    = 0                                   if K = 1
//                = alpha_sync_local + beta_sync_local*(K-2)  if N = 1, K >= 2
//                = alpha_sync_node  + beta_sync_node *(K-2)  otherwise  (10)
//   T_iter       = (T_grad^gamma + T_sync^gamma)^(1/gamma)              (11)
//   THROUGHPUT   = m / T_iter                                           (8)
//
// gamma >= 1 interpolates between no overlap (gamma = 1, sum) and perfect
// overlap (gamma -> inf, max) of computation and communication.

#ifndef POLLUX_CORE_THROUGHPUT_MODEL_H_
#define POLLUX_CORE_THROUGHPUT_MODEL_H_

#include <cstddef>
#include <vector>

#include "core/types.h"

namespace pollux {

// theta_sys, the 7-tuple of learnable system throughput parameters (Eqn. 12).
struct ThroughputParams {
  double alpha_grad = 0.0;
  double beta_grad = 0.0;
  double alpha_sync_local = 0.0;
  double beta_sync_local = 0.0;
  double alpha_sync_node = 0.0;
  double beta_sync_node = 0.0;
  double gamma = 1.0;
};

// Time per iteration spent computing local gradient estimates (Eqn. 9).
double GradTime(const ThroughputParams& params, const Placement& placement, double batch_size);

// Time per iteration spent synchronizing gradients/parameters (Eqn. 10).
double SyncTime(const ThroughputParams& params, const Placement& placement);

// Combined iteration time (Eqn. 11).
double IterTime(const ThroughputParams& params, const Placement& placement, double batch_size);

// Examples per second (Eqn. 8). Returns 0 for empty placements.
double ModelThroughput(const ThroughputParams& params, const Placement& placement,
                       double batch_size);

// Eqn. 11 from its two terms: T_iter = (T_grad^gamma + T_sync^gamma)^(1/gamma),
// with gamma clamped to >= 1. IterTime and the rack model's RackIterTime both
// combine through it.
double CombineIterTime(double grad, double sync, double gamma);

// T_iter and its log-slopes in T_grad, T_sync and gamma: the kernel of the
// theta_sys fits' analytic gradient. With r = lo/hi and u = 1 + r^gamma,
// d ln T/d hi = 1/(u hi), d ln T/d lo = r^gamma/(u lo) and
// d ln T/d gamma = -ln(u)/gamma^2 + r^gamma ln(r)/(gamma u).
//
// At T_sync = 0 the exact slope in T_sync is 0 for gamma > 1, which would
// make "no synchronization" a stationary point of every fit. There `d_sync`
// is instead the forward secant log1p((h/T_grad)^gamma) / (gamma h), with
// h = kFitSyncStep: the slope a finite-difference probe of size h sees.
struct IterTimeSlopes {
  double iter_time = 0.0;
  double d_grad = 0.0;
  double d_sync = 0.0;
  double d_gamma = 0.0;
};
IterTimeSlopes IterTimeWithSlopes(double grad, double sync, double gamma);

// The secant step at T_sync = 0: LbfgsbOptions::fd_epsilon's default, the
// step the fits' finite-difference gradient took.
inline constexpr double kFitSyncStep = 1e-6;

// One observation as a theta_sys fit sees it.
struct FitSample {
  double batch_size = 0.0;
  int num_gpus = 0;
  // The sync tier whose (alpha, beta) pair sets T_sync, or -1 when K <= 1.
  int sync_tier = -1;
  double log_iter_time = 0.0;  // ln(T_iter + kFitLogEpsilon).
};

// Offset inside every log of the RMSLE, so a zero time stays finite.
inline constexpr double kFitLogEpsilon = 1e-8;

// The objective both theta_sys fits minimize, over a point laid out as
// [alpha_grad, beta_grad, (alpha_sync, beta_sync) per tier..., gamma]: the
// RMSLE of Eqn. 11 against the samples plus a small ridge on the sync
// parameters, with its analytic gradient.
class RmsleObjective {
 public:
  RmsleObjective(std::vector<FitSample> samples, size_t dim);

  // The RMSLE alone; 0 without samples.
  double Rmsle(const double* x) const;
  // Rmsle plus the sync ridge.
  double Value(const double* x) const;
  // The gradient of Value at x into grad[0, dim). Where the RMSLE is 0 only
  // the ridge remains.
  void Gradient(const double* x, double* grad) const;

 private:
  std::vector<FitSample> samples_;
  size_t dim_;
};

}  // namespace pollux

#endif  // POLLUX_CORE_THROUGHPUT_MODEL_H_
