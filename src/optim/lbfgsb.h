// Bound-constrained limited-memory quasi-Newton minimizer in the style of
// L-BFGS-B [Zhu et al. 1997], which the paper uses to fit the system
// throughput parameters theta_sys by minimizing RMSLE (Sec. 4.1).
//
// This implementation combines:
//   * gradient projection onto the box for active-set identification,
//   * the standard L-BFGS two-loop recursion restricted to free variables,
//   * a projected backtracking (Armijo) line search,
//   * optional central finite-difference gradients when the caller does not
//     provide an analytic gradient,
//   * a multi-start driver for non-convex objectives.
//
// It is not a line-for-line port of the Fortran code, but solves the same
// class of problems (small dense box-constrained smooth minimization) and is
// validated in tests against quadratics, the Rosenbrock function, and
// bound-active solutions.

#ifndef POLLUX_OPTIM_LBFGSB_H_
#define POLLUX_OPTIM_LBFGSB_H_

#include <functional>
#include <vector>

#include "util/rng.h"

namespace pollux {

using Objective = std::function<double(const std::vector<double>&)>;
using Gradient = std::function<std::vector<double>(const std::vector<double>&)>;

struct BoundedProblem {
  Objective objective;
  // Optional analytic gradient; when absent, central finite differences with
  // step `LbfgsbOptions::fd_epsilon` are used.
  Gradient gradient;
  std::vector<double> lower;
  std::vector<double> upper;
};

struct LbfgsbOptions {
  int max_iterations = 200;
  // Convergence when the infinity norm of the projected gradient drops below
  // this threshold.
  double gradient_tolerance = 1e-7;
  // Convergence when the relative objective decrease drops below this.
  double function_tolerance = 1e-12;
  // Number of stored (s, y) curvature pairs.
  int history = 8;
  double fd_epsilon = 1e-6;
  // Armijo sufficient-decrease constant.
  double armijo_c1 = 1e-4;
  int max_line_search_steps = 40;
};

struct LbfgsbResult {
  std::vector<double> x;
  double value = 0.0;
  int iterations = 0;
  // Objective calls made, finite-difference probes included.
  int evaluations = 0;
  bool converged = false;
};

// Clamps each coordinate of x into [lower, upper].
std::vector<double> ProjectToBox(std::vector<double> x, const std::vector<double>& lower,
                                 const std::vector<double>& upper);

// Central finite-difference gradient of `f` at `x`, with steps shrunk near the
// box boundary so evaluation points stay feasible. `fx` is f(x), which the
// one-sided differences at a bound reuse instead of re-evaluating. Calls `f`
// twice per interior coordinate, once per coordinate near a bound, and never
// for a coordinate pinned with no room on either side.
std::vector<double> FiniteDifferenceGradient(const Objective& f, const std::vector<double>& x,
                                             double fx, const std::vector<double>& lower,
                                             const std::vector<double>& upper, double epsilon);

// Minimizes the problem starting from x0 (projected into the box first).
LbfgsbResult MinimizeBounded(const BoundedProblem& problem, const std::vector<double>& x0,
                             const LbfgsbOptions& options = {});

// Runs MinimizeBounded from x0 plus `extra_starts` random interior points and
// returns the best result. Deterministic given `rng`.
LbfgsbResult MinimizeBoundedMultiStart(const BoundedProblem& problem, const std::vector<double>& x0,
                                       int extra_starts, Rng& rng,
                                       const LbfgsbOptions& options = {});

}  // namespace pollux

#endif  // POLLUX_OPTIM_LBFGSB_H_
