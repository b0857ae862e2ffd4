#include "optim/lbfgsb.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace pollux {
namespace {

// A point of the problem; coordinates [n, kMaxDim) stay 0 and are never read.
using Point = std::array<double, kMaxDim>;

double Dot(const Point& a, const Point& b, size_t n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += a[i] * b[i];
  }
  return total;
}

double InfNorm(const Point& v, size_t n) {
  double best = 0.0;
  for (size_t i = 0; i < n; ++i) {
    best = std::max(best, std::fabs(v[i]));
  }
  return best;
}

struct CurvaturePair {
  Point s{};
  Point y{};
  double rho = 0.0;  // 1 / (y . s)
};

// The last kHistory curvature pairs, oldest first. One slot beyond the history
// holds the candidate pair of the step being taken, so building it never
// overwrites a pair still in use.
class PairRing {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // The k-th stored pair, 0 being the oldest.
  const CurvaturePair& operator[](size_t k) const { return slots_[(head_ + k) % slots_.size()]; }
  const CurvaturePair& back() const { return (*this)[size_ - 1]; }
  CurvaturePair& candidate() { return slots_[(head_ + size_) % slots_.size()]; }
  // Stores candidate() as the newest pair, evicting the oldest when full.
  void Push() {
    if (size_ == kHistory) {
      head_ = (head_ + 1) % slots_.size();
    } else {
      ++size_;
    }
  }
  void Clear() { size_ = 0; }

 private:
  std::array<CurvaturePair, kHistory + 1> slots_;
  size_t head_ = 0;
  size_t size_ = 0;
};

// Objective and gradient of one run. Every objective call, the
// finite-difference probes included, goes through Value, so `evaluations`
// counts the calls actually made.
class Evaluator {
 public:
  Evaluator(const BoundedProblem& problem, size_t n, double fd_epsilon)
      : problem_(problem), n_(n), fd_epsilon_(fd_epsilon) {}

  int evaluations() const { return evaluations_; }
  int gradient_evaluations() const { return gradient_evaluations_; }

  double Value(const Point& x) {
    ++evaluations_;
    return problem_.objective(x.data());
  }

  // Gradient at x, where fx = f(x). Without an analytic gradient, central
  // differences with steps shrunk so every probe stays inside the box; a
  // coordinate near a bound takes a one-sided difference against fx, and one
  // pinned with no room on either side gets 0 without a call.
  void Gradient(const Point& x, double fx, Point& grad) {
    if (problem_.gradient) {
      ++gradient_evaluations_;
      problem_.gradient(x.data(), grad.data());
      return;
    }
    const std::vector<double>& lower = problem_.lower;
    const std::vector<double>& upper = problem_.upper;
    Point probe = x;
    for (size_t i = 0; i < n_; ++i) {
      const double scale = std::max(1.0, std::fabs(x[i]));
      double h = fd_epsilon_ * scale;
      const double room_up = upper[i] - x[i];
      const double room_down = x[i] - lower[i];
      if (room_up >= h && room_down >= h) {
        probe[i] = x[i] + h;
        const double f_plus = Value(probe);
        probe[i] = x[i] - h;
        const double f_minus = Value(probe);
        grad[i] = (f_plus - f_minus) / (2.0 * h);
      } else if (room_up >= room_down) {
        h = std::min(h, room_up);
        if (h <= 0.0) {
          grad[i] = 0.0;
          probe[i] = x[i];
          continue;
        }
        probe[i] = x[i] + h;
        const double f_plus = Value(probe);
        grad[i] = (f_plus - fx) / h;
      } else {
        h = std::min(h, room_down);
        probe[i] = x[i] - h;
        const double f_minus = Value(probe);
        grad[i] = (fx - f_minus) / h;
      }
      probe[i] = x[i];
    }
  }

 private:
  const BoundedProblem& problem_;
  size_t n_;
  double fd_epsilon_;
  int evaluations_ = 0;
  int gradient_evaluations_ = 0;
};

size_t CheckedDimension(const BoundedProblem& problem, const std::vector<double>& x0) {
  const size_t n = x0.size();
  if (n > kMaxDim || problem.lower.size() != n || problem.upper.size() != n) {
    throw std::invalid_argument("MinimizeBounded: x0 must have at most kMaxDim coordinates and "
                                "match the size of both bounds");
  }
  return n;
}

Point ToPoint(const std::vector<double>& v) {
  Point point{};
  std::copy(v.begin(), v.end(), point.begin());
  return point;
}

LbfgsbResult MinimizeFrom(const BoundedProblem& problem, size_t n, const Point& x0,
                          const LbfgsbOptions& options) {
  const std::vector<double>& lower = problem.lower;
  const std::vector<double>& upper = problem.upper;
  Evaluator eval(problem, n, options.fd_epsilon);
  LbfgsbResult result;
  Point x{};
  for (size_t i = 0; i < n; ++i) {
    x[i] = std::clamp(x0[i], lower[i], upper[i]);
  }

  double f = eval.Value(x);
  Point g{};
  eval.Gradient(x, f, g);
  PairRing pairs;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // A variable is pinned to a bound when it sits on the bound and the
    // gradient pushes it further out of the box; its projected gradient is 0.
    std::array<bool, kMaxDim> active{};
    Point pg{};
    for (size_t i = 0; i < n; ++i) {
      const double span = std::max(1.0, upper[i] - lower[i]);
      const double edge = 1e-10 * span;
      active[i] =
          (x[i] <= lower[i] + edge && g[i] > 0.0) || (x[i] >= upper[i] - edge && g[i] < 0.0);
      pg[i] = active[i] ? 0.0 : g[i];
    }
    if (InfNorm(pg, n) < options.gradient_tolerance) {
      result.converged = true;
      break;
    }

    // Two-loop recursion on the free variables.
    Point direction{};
    for (size_t i = 0; i < n; ++i) {
      direction[i] = -pg[i];
    }
    std::array<double, kHistory> alphas{};
    for (size_t k = pairs.size(); k-- > 0;) {
      const CurvaturePair& pair = pairs[k];
      alphas[k] = pair.rho * Dot(pair.s, direction, n);
      for (size_t i = 0; i < n; ++i) {
        direction[i] -= alphas[k] * pair.y[i];
      }
    }
    if (!pairs.empty()) {
      const CurvaturePair& last = pairs.back();
      const double yy = Dot(last.y, last.y, n);
      if (yy > 0.0) {
        const double gamma = Dot(last.s, last.y, n) / yy;
        for (size_t i = 0; i < n; ++i) {
          direction[i] *= gamma;
        }
      }
    }
    for (size_t k = 0; k < pairs.size(); ++k) {
      const CurvaturePair& pair = pairs[k];
      const double beta = pair.rho * Dot(pair.y, direction, n);
      for (size_t i = 0; i < n; ++i) {
        direction[i] += (alphas[k] - beta) * pair.s[i];
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (active[i]) {
        direction[i] = 0.0;
      }
    }
    // Fall back to steepest descent if the quasi-Newton direction is not a
    // descent direction (can happen right after curvature resets).
    double descent = Dot(g, direction, n);
    if (!(descent < 0.0)) {
      for (size_t i = 0; i < n; ++i) {
        direction[i] = -pg[i];
      }
      descent = Dot(g, direction, n);
      if (!(descent < 0.0)) {
        result.converged = true;
        break;
      }
    }

    // Projected line search along `direction`: backtracks from step 1 until
    // Armijo holds, then forward-expands by doubling while the objective
    // keeps improving (guards against under-scaled quasi-Newton directions
    // when the curvature memory is stale). Returns true on acceptance,
    // filling x_new / f_new.
    double f_new = f;
    Point x_new{};
    Point x_try{};
    auto try_step = [&](double step, Point& x_out, double& f_out) {
      for (size_t i = 0; i < n; ++i) {
        x_out[i] = std::clamp(x[i] + step * direction[i], lower[i], upper[i]);
      }
      f_out = eval.Value(x_out);
      double model_decrease = 0.0;
      for (size_t i = 0; i < n; ++i) {
        model_decrease += g[i] * (x_out[i] - x[i]);
      }
      return model_decrease < 0.0 && f_out <= f + options.armijo_c1 * model_decrease;
    };
    auto line_search = [&] {
      double step = 1.0;
      bool ok = false;
      for (int ls = 0; ls < options.max_line_search_steps; ++ls) {
        ok = try_step(step, x_new, f_new);
        if (ok) {
          break;
        }
        bool moved = false;
        for (size_t i = 0; i < n; ++i) {
          if (x_new[i] != x[i]) {
            moved = true;
            break;
          }
        }
        if (!moved) {
          return false;  // Every coordinate pinned to a bound.
        }
        step *= 0.5;
      }
      if (!ok) {
        return false;
      }
      // Forward expansion from the accepted step.
      for (int grow = 0; grow < options.max_line_search_steps; ++grow) {
        double f_try = 0.0;
        if (!try_step(step * 2.0, x_try, f_try) || f_try >= f_new) {
          break;
        }
        step *= 2.0;
        x_new = x_try;
        f_new = f_try;
      }
      return true;
    };

    bool accepted = line_search();
    if (!accepted && !pairs.empty()) {
      // The quasi-Newton direction can be poorly scaled when the curvature
      // memory is stale; reset it and retry with projected steepest descent.
      pairs.Clear();
      const double scale = 1.0 / std::max(1.0, InfNorm(pg, n));
      for (size_t i = 0; i < n; ++i) {
        direction[i] = -pg[i] * scale;
      }
      accepted = line_search();
    }
    if (!accepted) {
      result.converged = InfNorm(pg, n) < 1e-4;
      break;
    }

    Point g_new{};
    eval.Gradient(x_new, f_new, g_new);
    CurvaturePair& pair = pairs.candidate();
    for (size_t i = 0; i < n; ++i) {
      pair.s[i] = x_new[i] - x[i];
      pair.y[i] = g_new[i] - g[i];
    }
    const double sy = Dot(pair.s, pair.y, n);
    const double ss = Dot(pair.s, pair.s, n);
    if (sy > 1e-12 * std::sqrt(ss) * std::sqrt(Dot(pair.y, pair.y, n)) && sy > 0.0) {
      pair.rho = 1.0 / sy;
      pairs.Push();
    }

    const double f_prev = f;
    x = x_new;
    f = f_new;
    g = g_new;
    if (std::fabs(f_prev - f) <=
        options.function_tolerance * std::max({std::fabs(f_prev), std::fabs(f), 1.0})) {
      result.converged = true;
      break;
    }
  }

  result.x.assign(x.begin(), x.begin() + static_cast<long>(n));
  result.value = f;
  result.evaluations = eval.evaluations();
  result.gradient_evaluations = eval.gradient_evaluations();
  return result;
}

}  // namespace

LbfgsbResult MinimizeBounded(const BoundedProblem& problem, const std::vector<double>& x0,
                             const LbfgsbOptions& options) {
  const size_t n = CheckedDimension(problem, x0);
  return MinimizeFrom(problem, n, ToPoint(x0), options);
}

LbfgsbResult MinimizeBoundedMultiStart(const BoundedProblem& problem, const std::vector<double>& x0,
                                       int extra_starts, Rng& rng, const LbfgsbOptions& options) {
  const size_t n = CheckedDimension(problem, x0);
  LbfgsbResult best = MinimizeFrom(problem, n, ToPoint(x0), options);
  int evaluations = best.evaluations;
  int gradient_evaluations = best.gradient_evaluations;
  for (int s = 0; s < extra_starts; ++s) {
    Point start{};
    for (size_t i = 0; i < n; ++i) {
      const double lo = problem.lower[i];
      const double hi = problem.upper[i];
      if (std::isfinite(lo) && std::isfinite(hi)) {
        start[i] = rng.Uniform(lo, hi);
      } else if (std::isfinite(lo)) {
        start[i] = lo + rng.Exponential(1.0);
      } else if (std::isfinite(hi)) {
        start[i] = hi - rng.Exponential(1.0);
      } else {
        start[i] = rng.Normal(0.0, 1.0);
      }
    }
    LbfgsbResult candidate = MinimizeFrom(problem, n, start, options);
    evaluations += candidate.evaluations;
    gradient_evaluations += candidate.gradient_evaluations;
    if (candidate.value < best.value - kRestartMinImprovement) {
      best = std::move(candidate);
    }
  }
  best.evaluations = evaluations;
  best.gradient_evaluations = gradient_evaluations;
  return best;
}

}  // namespace pollux
