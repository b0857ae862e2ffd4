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
//
// The solver is sized for the θ_sys fits: every point, gradient and
// curvature pair lives in a fixed-capacity array of kMaxDim coordinates, the
// last kHistory pairs sit in a ring, and the objective is called through a
// non-owning reference, so a run allocates nothing per iteration or per
// evaluation.

#ifndef POLLUX_OPTIM_LBFGSB_H_
#define POLLUX_OPTIM_LBFGSB_H_

#include <cstddef>
#include <vector>

#include "util/function_ref.h"
#include "util/rng.h"

namespace pollux {

// Largest problem the solver takes (the rack-aware θ_sys fit has 9
// parameters).
inline constexpr size_t kMaxDim = 9;

// Curvature pairs (s, y) kept for the two-loop recursion; the oldest is
// evicted first.
inline constexpr size_t kHistory = 8;

// The θ_sys fits' objective is an RMSLE. With a few observations many
// parameter sets fit equally well, and a random start can converge onto one
// that fits no better but extrapolates badly (e.g. all of T_iter in a
// constant alpha_grad, so larger batches look free). So a random start must
// beat the seeded start by more than this, far below the observations'
// noise.
inline constexpr double kRestartMinImprovement = 1e-4;

struct BoundedProblem {
  // f(x) over x[0, n).
  FunctionRef<double(const double* x)> objective;
  // Optional analytic gradient: writes the gradient at x[0, n) into
  // grad[0, n). When unset, central finite differences with step
  // `LbfgsbOptions::fd_epsilon` are used, shrunk near the box boundary so
  // every probe stays feasible: two probes per interior coordinate, one (the
  // other side reuses f(x)) per coordinate near a bound, and none for a
  // coordinate pinned with no room on either side.
  FunctionRef<void(const double* x, double* grad)> gradient;
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
  // Calls of BoundedProblem::gradient (0 without one).
  int gradient_evaluations = 0;
  bool converged = false;
};

// Minimizes the problem starting from x0, clamped into the box first. Throws
// std::invalid_argument when x0 has more than kMaxDim coordinates or the
// bounds do not match its size.
LbfgsbResult MinimizeBounded(const BoundedProblem& problem, const std::vector<double>& x0,
                             const LbfgsbOptions& options = {});

// Runs MinimizeBounded from x0 plus `extra_starts` random interior points and
// returns the best result, with `evaluations` and `gradient_evaluations`
// summed over every start. A random start replaces the best result so far
// only when it lowers the objective by more than kRestartMinImprovement.
// Deterministic given `rng`.
LbfgsbResult MinimizeBoundedMultiStart(const BoundedProblem& problem, const std::vector<double>& x0,
                                       int extra_starts, Rng& rng,
                                       const LbfgsbOptions& options = {});

}  // namespace pollux

#endif  // POLLUX_OPTIM_LBFGSB_H_
