// Golden digests of the θ_sys fits and of the bounded solver under them.
//
// The fit digests were recorded when the fits began passing the analytic
// RMSLE gradient (RmsleObjective) to the solver; the solver digests below
// still hold from the std::vector / std::function L-BFGS-B solver (a
// std::deque of curvature pairs, one heap-allocated point per trial step and
// per finite-difference gradient). Each digest folds in the bits of every
// fitted parameter and objective value, so a change to any floating-point
// operation's order or operands, any line-search decision or any
// curvature-pair eviction moves it. FitResult::evaluations lives in a digest
// of its own: it counts objective and gradient calls, not fit output.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/model_fitter.h"
#include "core/rack_model.h"
#include "optim/lbfgsb.h"
#include "util/rng.h"

namespace pollux {
namespace {

class Digest {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddInt(int value) { Add(static_cast<uint64_t>(static_cast<int64_t>(value))); }
  void AddDouble(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  std::string Hex() const {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(hash_));
    return hex;
  }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void AddParams(Digest& digest, const ThroughputParams& p) {
  for (double v : {p.alpha_grad, p.beta_grad, p.alpha_sync_local, p.beta_sync_local,
                   p.alpha_sync_node, p.beta_sync_node, p.gamma}) {
    digest.AddDouble(v);
  }
}

void AddRackParams(Digest& digest, const RackThroughputParams& p) {
  for (double v : {p.alpha_grad, p.beta_grad, p.alpha_sync_local, p.beta_sync_local,
                   p.alpha_sync_node, p.beta_sync_node, p.alpha_sync_rack, p.beta_sync_rack,
                   p.gamma}) {
    digest.AddDouble(v);
  }
}

ThroughputParams RandomTruth(Rng& gen) {
  ThroughputParams truth;
  truth.alpha_grad = gen.LogNormal(0.03, 0.8);
  truth.beta_grad = gen.LogNormal(2e-4, 0.8);
  truth.alpha_sync_local = gen.LogNormal(0.02, 0.8);
  truth.beta_sync_local = gen.LogNormal(1e-3, 0.8);
  truth.alpha_sync_node = gen.LogNormal(0.08, 0.8);
  truth.beta_sync_node = gen.LogNormal(4e-3, 0.8);
  truth.gamma = gen.Uniform(1.0, 3.0);
  return truth;
}

ThroughputObservation Observe(const ThroughputParams& truth, Placement placement, long batch,
                              Rng& gen) {
  ThroughputObservation obs;
  obs.placement = placement;
  obs.batch_size = batch;
  obs.iter_time = IterTime(truth, placement, static_cast<double>(batch)) *
                  std::exp(gen.Normal(0.0, 0.05));
  return obs;
}

struct FitDigests {
  std::string hyper;
  std::string wide;
  std::string rack;
  std::string evaluations;
};

// Runs every seeded fit once and digests the results.
//   hyper: 300 sets shaped like a sim-hyper-5k refit (4-GPU nodes): one
//     1-GPU observation, the rest single-node multi-GPU at assorted batch
//     sizes, 1-18 observations (mean about 3.4), max_nodes_seen 1, two extra
//     starts, MAD rejection off.
//   wide: 200 sets of 1-20 observations up to 16 GPUs over 4 nodes, with
//     straggler-inflated samples, cycling every pin pattern, MAD rejection on
//     and off, and 0-3 extra starts.
//   rack: 60 nine-parameter fits over 1-3 racks, cycling the rack pins.
const FitDigests& AllFitDigests() {
  static const FitDigests digests = [] {
    Digest hyper;
    Digest wide;
    Digest rack;
    Digest evaluations;
    Rng gen(20260);
    for (int trial = 0; trial < 300; ++trial) {
      const ThroughputParams truth = RandomTruth(gen);
      int count = 1 + static_cast<int>(std::floor(gen.Exponential(1.0 / 2.9)));
      count = trial == 0 ? 18 : trial == 1 ? 1 : std::min(count, 18);
      std::vector<ThroughputObservation> data;
      int max_gpus = 1;
      data.push_back(Observe(truth, Placement{1, 1}, gen.UniformInt(16, 512), gen));
      for (int i = 1; i < count; ++i) {
        const int k = static_cast<int>(gen.UniformInt(2, 4));
        max_gpus = std::max(max_gpus, k);
        data.push_back(Observe(truth, Placement{k, 1}, gen.UniformInt(16, 512) * k, gen));
      }
      FitOptions options;
      options.max_gpus_seen = max_gpus;
      options.max_nodes_seen = 1;
      options.multi_starts = 2;
      options.seed = 1 + static_cast<uint64_t>(trial);
      const FitResult fit = FitThroughputParams(data, options);
      AddParams(hyper, fit.params);
      hyper.AddDouble(fit.rmsle);
      hyper.AddInt(fit.outliers_rejected);
      evaluations.AddInt(fit.evaluations);
    }
    for (int trial = 0; trial < 200; ++trial) {
      const ThroughputParams truth = RandomTruth(gen);
      const int count = static_cast<int>(gen.UniformInt(1, 20));
      std::vector<ThroughputObservation> data;
      for (int i = 0; i < count; ++i) {
        const int k = static_cast<int>(gen.UniformInt(1, 16));
        const int nodes = k <= 4 && gen.Bernoulli(0.5)
                              ? 1
                              : static_cast<int>(gen.UniformInt((k + 3) / 4, std::min(k, 4)));
        const long batch = gen.UniformInt(32, 4096);
        ThroughputObservation obs = Observe(truth, Placement{k, nodes}, batch, gen);
        if (gen.Bernoulli(0.15)) {
          obs.iter_time *= gen.Uniform(2.0, 4.0);
        }
        data.push_back(obs);
      }
      FitOptions options;
      const int pattern = trial % 6;
      options.max_gpus_seen = pattern / 2 == 0 ? 1 : pattern / 2 == 1 ? 2 : 16;
      options.max_nodes_seen = pattern % 2 == 0 ? 1 : 4;
      options.outlier_mad_threshold = (trial / 6) % 2 == 0 ? 3.5 : 0.0;
      options.multi_starts = trial % 4;
      options.seed = 1000 + static_cast<uint64_t>(trial);
      const FitResult fit = FitThroughputParams(data, options);
      AddParams(wide, fit.params);
      wide.AddDouble(fit.rmsle);
      wide.AddInt(fit.outliers_rejected);
      evaluations.AddInt(fit.evaluations);
    }
    for (int trial = 0; trial < 60; ++trial) {
      const ThroughputParams flat = RandomTruth(gen);
      RackThroughputParams truth;
      truth.alpha_grad = flat.alpha_grad;
      truth.beta_grad = flat.beta_grad;
      truth.alpha_sync_local = flat.alpha_sync_local;
      truth.beta_sync_local = flat.beta_sync_local;
      truth.alpha_sync_node = flat.alpha_sync_node;
      truth.beta_sync_node = flat.beta_sync_node;
      truth.alpha_sync_rack = 2.5 * flat.alpha_sync_node;
      truth.beta_sync_rack = 2.5 * flat.beta_sync_node;
      truth.gamma = flat.gamma;
      const int count = static_cast<int>(gen.UniformInt(1, 20));
      std::vector<RackThroughputObservation> data;
      for (int i = 0; i < count; ++i) {
        RackThroughputObservation obs;
        const int k = static_cast<int>(gen.UniformInt(1, 16));
        const int nodes =
            k == 1 ? 1 : static_cast<int>(gen.UniformInt((k + 3) / 4, std::min(k, 4)));
        const int racks =
            nodes == 1 ? 1 : static_cast<int>(gen.UniformInt(1, std::min(nodes, 3)));
        obs.placement = RackPlacement{k, nodes, racks};
        obs.batch_size = gen.UniformInt(32, 4096);
        obs.iter_time = RackIterTime(truth, obs.placement, static_cast<double>(obs.batch_size)) *
                        std::exp(gen.Normal(0.0, 0.05));
        data.push_back(obs);
      }
      RackFitOptions options;
      options.max_gpus_seen = trial % 4 == 0 ? 2 : 16;
      options.max_nodes_seen = trial % 3 == 0 ? 1 : 4;
      options.max_racks_seen = trial % 2 == 0 ? 1 : 3;
      options.multi_starts = trial % 3;
      options.seed = 5000 + static_cast<uint64_t>(trial);
      const RackFitResult fit = FitRackThroughputParams(data, options);
      AddRackParams(rack, fit.params);
      rack.AddDouble(fit.rmsle);
      evaluations.AddInt(fit.evaluations);
    }
    return FitDigests{hyper.Hex(), wide.Hex(), rack.Hex(), evaluations.Hex()};
  }();
  return digests;
}

TEST(FitGoldenTest, HyperShapedFitsMatchRecordedDigest) {
  EXPECT_EQ(AllFitDigests().hyper, "1bf882444aebf953");
}

TEST(FitGoldenTest, WideFitsMatchRecordedDigest) {
  EXPECT_EQ(AllFitDigests().wide, "722a2cc2817ae982");
}

TEST(FitGoldenTest, RackFitsMatchRecordedDigest) {
  EXPECT_EQ(AllFitDigests().rack, "140bc6b9cb6b35ac");
}

// Re-recorded when MinimizeBoundedMultiStart began counting the objective
// calls of every start rather than the winning start's alone (the fit digests
// above did not move), and again with the analytic gradient, when the count
// became objective plus gradient calls.
TEST(FitGoldenTest, EvaluationsMatchRecordedDigest) {
  EXPECT_EQ(AllFitDigests().evaluations, "3469ddb5b2f59128");
}

// ---------------------------------------------------------------------------
// Direct solver digests: x, value, iterations and evaluations of
// MinimizeBounded runs long enough to evict curvature pairs (more than 8
// accepted steps), including the steepest-descent reset after a failed
// quasi-Newton line search.

double Rosenbrock(const double* x, size_t n) {
  double total = 0.0;
  for (size_t i = 0; i + 1 < n; ++i) {
    const double a = 1.0 - x[i];
    const double b = x[i + 1] - x[i] * x[i];
    total += a * a + 100.0 * b * b;
  }
  return total;
}

// Rosenbrock plus a small fast ripple: near the minimum the finite-difference
// gradient is mostly ripple, so quasi-Newton line searches fail and the
// solver falls back to steepest descent.
double RippledRosenbrock(const double* x, size_t n) {
  double ripple = 0.0;
  for (size_t i = 0; i < n; ++i) {
    ripple += std::sin(3e6 * x[i]);
  }
  return Rosenbrock(x, n) + 1e-8 * ripple;
}

// A seeded ill-conditioned quadratic 0.5 (x - c)' A (x - c) with A = B'B + D,
// over a box that cuts off the unconstrained minimum in some coordinates.
struct BoxQuadratic {
  size_t n = 0;
  std::vector<double> a;
  std::vector<double> c;
  std::vector<double> lower;
  std::vector<double> upper;
  std::vector<double> x0;

  static BoxQuadratic Make(size_t n, uint64_t seed) {
    Rng gen(seed);
    BoxQuadratic q;
    q.n = n;
    std::vector<double> b(n * n);
    for (double& v : b) {
      v = gen.Normal(0.0, 1.0);
    }
    q.a.assign(n * n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        for (size_t k = 0; k < n; ++k) {
          q.a[i * n + j] += b[k * n + i] * b[k * n + j];
        }
      }
      q.a[i * n + i] += std::pow(10.0, gen.Uniform(-2.0, 2.0));
    }
    for (size_t i = 0; i < n; ++i) {
      q.c.push_back(gen.Uniform(-3.0, 3.0));
      q.lower.push_back(gen.Uniform(-2.0, 0.0));
      q.upper.push_back(q.lower.back() + gen.Uniform(0.0, 3.0));
      q.x0.push_back(gen.Uniform(-5.0, 5.0));
    }
    return q;
  }

  double operator()(const double* x) const {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double row = 0.0;
      for (size_t j = 0; j < n; ++j) {
        row += a[i * n + j] * (x[j] - c[j]);
      }
      total += (x[i] - c[i]) * row;
    }
    return 0.5 * total;
  }
};

void AddSolverResult(Digest& digest, const LbfgsbResult& result) {
  for (double v : result.x) {
    digest.AddDouble(v);
  }
  digest.AddDouble(result.value);
  digest.AddInt(result.iterations);
  digest.AddInt(result.evaluations);
  digest.AddInt(result.converged ? 1 : 0);
}

TEST(LbfgsbGoldenTest, RosenbrockMatchesRecordedDigest) {
  Digest digest;
  LbfgsbOptions options;
  options.max_iterations = 500;
  for (size_t n : {2, 5, 9}) {
    for (bool rippled : {false, true}) {
      BoundedProblem problem;
      problem.lower.assign(n, -2.0);
      problem.upper.assign(n, 2.0);
      const auto objective = [n, rippled](const double* x) {
        return rippled ? RippledRosenbrock(x, n) : Rosenbrock(x, n);
      };
      problem.objective = objective;
      std::vector<double> x0(n, -1.2);
      x0[n - 1] = 1.0;
      AddSolverResult(digest, MinimizeBounded(problem, x0, options));
    }
  }
  // The analytic-gradient hook.
  BoundedProblem problem;
  problem.lower = {-5.0, -5.0};
  problem.upper = {5.0, 5.0};
  const auto objective = [](const double* x) { return Rosenbrock(x, 2); };
  const auto gradient = [](const double* x, double* grad) {
    const double b = x[1] - x[0] * x[0];
    grad[0] = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * b;
    grad[1] = 200.0 * b;
  };
  problem.objective = objective;
  problem.gradient = gradient;
  AddSolverResult(digest, MinimizeBounded(problem, {-1.2, 1.0}, options));
  EXPECT_EQ(digest.Hex(), "f2cd50db581552db");
}

TEST(LbfgsbGoldenTest, BoxQuadraticsMatchRecordedDigest) {
  Digest digest;
  LbfgsbOptions options;
  options.max_iterations = 300;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const BoxQuadratic q = BoxQuadratic::Make(2 + seed % 8, seed);
    BoundedProblem problem;
    problem.lower = q.lower;
    problem.upper = q.upper;
    problem.objective = q;
    AddSolverResult(digest, MinimizeBounded(problem, q.x0, options));
  }
  EXPECT_EQ(digest.Hex(), "6f8752ece9b4c376");
}

}  // namespace
}  // namespace pollux
