#include "optim/lbfgsb.h"

#include <algorithm>
#include <cmath>
#include <deque>

namespace pollux {
namespace {

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  double total = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    total += a[i] * b[i];
  }
  return total;
}

double InfNorm(const std::vector<double>& v) {
  double best = 0.0;
  for (double x : v) {
    best = std::max(best, std::fabs(x));
  }
  return best;
}

// A variable is considered pinned to a bound when it sits on the bound and the
// gradient pushes it further out of the box.
std::vector<bool> ActiveSet(const std::vector<double>& x, const std::vector<double>& g,
                            const std::vector<double>& lower, const std::vector<double>& upper) {
  std::vector<bool> active(x.size(), false);
  for (size_t i = 0; i < x.size(); ++i) {
    const double span = std::max(1.0, upper[i] - lower[i]);
    const double edge = 1e-10 * span;
    if ((x[i] <= lower[i] + edge && g[i] > 0.0) || (x[i] >= upper[i] - edge && g[i] < 0.0)) {
      active[i] = true;
    }
  }
  return active;
}

struct CurvaturePair {
  std::vector<double> s;
  std::vector<double> y;
  double rho;  // 1 / (y . s)
};

}  // namespace

std::vector<double> ProjectToBox(std::vector<double> x, const std::vector<double>& lower,
                                 const std::vector<double>& upper) {
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = std::clamp(x[i], lower[i], upper[i]);
  }
  return x;
}

std::vector<double> FiniteDifferenceGradient(const Objective& f, const std::vector<double>& x,
                                             double fx, const std::vector<double>& lower,
                                             const std::vector<double>& upper, double epsilon) {
  std::vector<double> grad(x.size(), 0.0);
  std::vector<double> probe = x;
  for (size_t i = 0; i < x.size(); ++i) {
    const double scale = std::max(1.0, std::fabs(x[i]));
    double h = epsilon * scale;
    // Shrink the step so both probe points stay inside the box; fall back to a
    // one-sided difference when the variable is pinned to a bound.
    const double room_up = upper[i] - x[i];
    const double room_down = x[i] - lower[i];
    if (room_up >= h && room_down >= h) {
      probe[i] = x[i] + h;
      const double f_plus = f(probe);
      probe[i] = x[i] - h;
      const double f_minus = f(probe);
      grad[i] = (f_plus - f_minus) / (2.0 * h);
    } else if (room_up >= room_down) {
      h = std::min(h, room_up);
      if (h <= 0.0) {
        grad[i] = 0.0;
        probe[i] = x[i];
        continue;
      }
      probe[i] = x[i] + h;
      const double f_plus = f(probe);
      grad[i] = (f_plus - fx) / h;
    } else {
      h = std::min(h, room_down);
      probe[i] = x[i] - h;
      const double f_minus = f(probe);
      grad[i] = (fx - f_minus) / h;
    }
    probe[i] = x[i];
  }
  return grad;
}

LbfgsbResult MinimizeBounded(const BoundedProblem& problem, const std::vector<double>& x0,
                             const LbfgsbOptions& options) {
  const size_t n = x0.size();
  LbfgsbResult result;
  result.x = ProjectToBox(x0, problem.lower, problem.upper);

  // Every objective call, including the finite-difference probes, goes
  // through eval_f, so `evaluations` counts the calls actually made.
  int evaluations = 0;
  const Objective eval_f = [&](const std::vector<double>& x) {
    ++evaluations;
    return problem.objective(x);
  };
  auto eval_g = [&](const std::vector<double>& x, double fx) {
    if (problem.gradient) {
      return problem.gradient(x);
    }
    return FiniteDifferenceGradient(eval_f, x, fx, problem.lower, problem.upper,
                                    options.fd_epsilon);
  };

  double f = eval_f(result.x);
  std::vector<double> g = eval_g(result.x, f);
  std::deque<CurvaturePair> pairs;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    const std::vector<bool> active = ActiveSet(result.x, g, problem.lower, problem.upper);
    std::vector<double> pg = g;
    for (size_t i = 0; i < n; ++i) {
      if (active[i]) {
        pg[i] = 0.0;
      }
    }
    if (InfNorm(pg) < options.gradient_tolerance) {
      result.converged = true;
      break;
    }

    // Two-loop recursion on the free variables.
    std::vector<double> direction = pg;
    for (double& d : direction) {
      d = -d;
    }
    std::vector<double> alphas(pairs.size(), 0.0);
    for (size_t k = pairs.size(); k-- > 0;) {
      alphas[k] = pairs[k].rho * Dot(pairs[k].s, direction);
      for (size_t i = 0; i < n; ++i) {
        direction[i] -= alphas[k] * pairs[k].y[i];
      }
    }
    if (!pairs.empty()) {
      const auto& last = pairs.back();
      const double yy = Dot(last.y, last.y);
      if (yy > 0.0) {
        const double gamma = Dot(last.s, last.y) / yy;
        for (double& d : direction) {
          d *= gamma;
        }
      }
    }
    for (size_t k = 0; k < pairs.size(); ++k) {
      const double beta = pairs[k].rho * Dot(pairs[k].y, direction);
      for (size_t i = 0; i < n; ++i) {
        direction[i] += (alphas[k] - beta) * pairs[k].s[i];
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (active[i]) {
        direction[i] = 0.0;
      }
    }
    // Fall back to steepest descent if the quasi-Newton direction is not a
    // descent direction (can happen right after curvature resets).
    double descent = Dot(g, direction);
    if (!(descent < 0.0)) {
      for (size_t i = 0; i < n; ++i) {
        direction[i] = -pg[i];
      }
      descent = Dot(g, direction);
      if (!(descent < 0.0)) {
        result.converged = true;
        break;
      }
    }

    // Projected line search along the given direction: backtracks from step 1
    // until Armijo holds, then forward-expands by doubling while the objective
    // keeps improving (guards against under-scaled quasi-Newton directions
    // when the curvature memory is stale). Returns true on acceptance,
    // filling x_new / f_new.
    double f_new = f;
    std::vector<double> x_new;
    auto try_step = [&](double step, std::vector<double>* x_out, double* f_out) {
      *x_out = result.x;
      for (size_t i = 0; i < n; ++i) {
        (*x_out)[i] += step * direction[i];
      }
      *x_out = ProjectToBox(std::move(*x_out), problem.lower, problem.upper);
      *f_out = eval_f(*x_out);
      double model_decrease = 0.0;
      for (size_t i = 0; i < n; ++i) {
        model_decrease += g[i] * ((*x_out)[i] - result.x[i]);
      }
      return model_decrease < 0.0 && *f_out <= f + options.armijo_c1 * model_decrease;
    };
    auto line_search = [&](const std::vector<double>& dir) {
      direction = dir;
      double step = 1.0;
      bool ok = false;
      for (int ls = 0; ls < options.max_line_search_steps; ++ls) {
        ok = try_step(step, &x_new, &f_new);
        if (ok) {
          break;
        }
        bool moved = false;
        for (size_t i = 0; i < n; ++i) {
          if (x_new[i] != result.x[i]) {
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
        std::vector<double> x_try;
        double f_try = 0.0;
        if (!try_step(step * 2.0, &x_try, &f_try) || f_try >= f_new) {
          break;
        }
        step *= 2.0;
        x_new = std::move(x_try);
        f_new = f_try;
      }
      return true;
    };

    bool accepted = line_search(direction);
    if (!accepted && !pairs.empty()) {
      // The quasi-Newton direction can be poorly scaled when the curvature
      // memory is stale; reset it and retry with projected steepest descent.
      pairs.clear();
      std::vector<double> steepest(n);
      const double scale = 1.0 / std::max(1.0, InfNorm(pg));
      for (size_t i = 0; i < n; ++i) {
        steepest[i] = -pg[i] * scale;
      }
      accepted = line_search(steepest);
    }
    if (!accepted) {
      result.converged = InfNorm(pg) < 1e-4;
      break;
    }

    std::vector<double> g_new = eval_g(x_new, f_new);
    CurvaturePair pair;
    pair.s.resize(n);
    pair.y.resize(n);
    for (size_t i = 0; i < n; ++i) {
      pair.s[i] = x_new[i] - result.x[i];
      pair.y[i] = g_new[i] - g[i];
    }
    const double sy = Dot(pair.s, pair.y);
    const double ss = Dot(pair.s, pair.s);
    if (sy > 1e-12 * std::sqrt(ss) * std::sqrt(Dot(pair.y, pair.y)) && sy > 0.0) {
      pair.rho = 1.0 / sy;
      pairs.push_back(std::move(pair));
      if (pairs.size() > static_cast<size_t>(options.history)) {
        pairs.pop_front();
      }
    }

    const double f_prev = f;
    result.x = std::move(x_new);
    f = f_new;
    g = std::move(g_new);
    if (std::fabs(f_prev - f) <=
        options.function_tolerance * std::max({std::fabs(f_prev), std::fabs(f), 1.0})) {
      result.converged = true;
      break;
    }
  }

  result.value = f;
  result.evaluations = evaluations;
  return result;
}

LbfgsbResult MinimizeBoundedMultiStart(const BoundedProblem& problem, const std::vector<double>& x0,
                                       int extra_starts, Rng& rng, const LbfgsbOptions& options) {
  LbfgsbResult best = MinimizeBounded(problem, x0, options);
  for (int s = 0; s < extra_starts; ++s) {
    std::vector<double> start(x0.size());
    for (size_t i = 0; i < start.size(); ++i) {
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
    LbfgsbResult candidate = MinimizeBounded(problem, start, options);
    if (candidate.value < best.value) {
      best = std::move(candidate);
    }
  }
  return best;
}

}  // namespace pollux
