#include "optim/lbfgsb.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace pollux {
namespace {

constexpr double kInf = 1e30;

// Records every point the solver evaluates, so the tests can read the
// finite-difference probes and trial steps it takes.
struct RecordingObjective {
  size_t n;
  double (*f)(const double* x);
  std::vector<std::vector<double>> points;

  double operator()(const double* x) {
    points.emplace_back(x, x + n);
    return f(x);
  }
};

TEST(LbfgsbTest, ClampsStartIntoBox) {
  RecordingObjective objective{3, [](const double* x) { return x[0] + x[1] + x[2]; }, {}};
  BoundedProblem problem;
  problem.objective = objective;
  problem.lower = {0.0, 0.0, 0.0};
  problem.upper = {1.0, 1.0, 1.0};
  LbfgsbOptions options;
  options.max_iterations = 0;
  MinimizeBounded(problem, {-1.0, 0.5, 9.0}, options);
  ASSERT_FALSE(objective.points.empty());
  EXPECT_EQ(objective.points[0], (std::vector<double>{0.0, 0.5, 1.0}));
}

// Without pairs the first trial step is x - g, so it reads back the
// finite-difference gradient at the start.
TEST(LbfgsbTest, FirstStepFollowsFiniteDifferenceGradient) {
  RecordingObjective objective{
      2, [](const double* x) { return x[0] * x[0] + 3.0 * x[0] * x[1] + 2.0 * x[1] * x[1]; }, {}};
  BoundedProblem problem;
  problem.objective = objective;
  problem.lower = {-kInf, -kInf};
  problem.upper = {kInf, kInf};
  LbfgsbOptions options;
  options.max_iterations = 1;
  const std::vector<double> x = {1.5, -2.0};
  MinimizeBounded(problem, x, options);
  // f(x), two central probes per coordinate, then the first trial step.
  ASSERT_GE(objective.points.size(), 6u);
  const std::vector<double>& trial = objective.points[5];
  EXPECT_NEAR(x[0] - trial[0], 2.0 * x[0] + 3.0 * x[1], 1e-5);
  EXPECT_NEAR(x[1] - trial[1], 3.0 * x[0] + 4.0 * x[1], 1e-5);
}

TEST(LbfgsbTest, OneSidedDifferenceAtBound) {
  RecordingObjective objective{1, [](const double* x) { return (x[0] - 5.0) * (x[0] - 5.0); }, {}};
  BoundedProblem problem;
  problem.objective = objective;
  problem.lower = {2.0};
  problem.upper = {10.0};
  LbfgsbOptions options;
  options.max_iterations = 1;
  MinimizeBounded(problem, {2.0}, options);
  // x sits on the lower bound: one probe above it, then the trial step
  // x - g with g ~ -6 from the one-sided difference.
  ASSERT_GE(objective.points.size(), 3u);
  EXPECT_GT(objective.points[1][0], 2.0);
  EXPECT_NEAR(2.0 - objective.points[2][0], -6.0, 1e-3);
}

TEST(LbfgsbTest, GradientProbesOnlyCoordinatesWithRoom) {
  RecordingObjective objective{
      3, [](const double* x) { return x[0] * x[0] + x[1] * x[1] + x[2] * x[2]; }, {}};
  BoundedProblem problem;
  problem.objective = objective;
  problem.lower = {-kInf, 2.0, 3.0};
  problem.upper = {kInf, 10.0, 3.0};
  LbfgsbOptions options;
  options.max_iterations = 0;
  // Coordinate 0 is interior (two probes), 1 sits on its lower bound (one
  // probe, f(x) is reused), 2 is pinned (no probe).
  const auto result = MinimizeBounded(problem, {1.0, 2.0, 3.0}, options);
  EXPECT_EQ(result.evaluations, 4);
  ASSERT_EQ(objective.points.size(), 4u);
  for (const std::vector<double>& point : objective.points) {
    EXPECT_GE(point[1], 2.0);
    EXPECT_EQ(point[2], 3.0);
  }
}

TEST(LbfgsbTest, RejectsOversizedOrMismatchedProblems) {
  const auto f = [](const double*) { return 0.0; };
  BoundedProblem problem;
  problem.objective = f;
  problem.lower.assign(kMaxDim + 1, 0.0);
  problem.upper.assign(kMaxDim + 1, 1.0);
  EXPECT_THROW(MinimizeBounded(problem, std::vector<double>(kMaxDim + 1, 0.5)),
               std::invalid_argument);
  problem.lower = {0.0, 0.0};
  problem.upper = {1.0};
  EXPECT_THROW(MinimizeBounded(problem, {0.5, 0.5}), std::invalid_argument);
}

TEST(LbfgsbTest, EvaluationsCountObjectiveCalls) {
  int calls = 0;
  BoundedProblem problem;
  problem.lower = {0.0, 0.0, 1.0};
  problem.upper = {10.0, 10.0, 1.0};
  const auto objective = [&calls](const double* x) {
    ++calls;
    return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] + 2.0) * (x[1] + 2.0) + x[2];
  };
  problem.objective = objective;
  const auto result = MinimizeBounded(problem, {5.0, 5.0, 1.0});
  EXPECT_NEAR(result.x[1], 0.0, 1e-6);
  EXPECT_EQ(result.evaluations, calls);
}

TEST(LbfgsbTest, MultiStartEvaluationsCountEveryStart) {
  int calls = 0;
  const auto objective = [&calls](const double* x) {
    ++calls;
    const double w = x[0] * x[0] - 1.0;
    return w * w + 0.5 * (1.0 - x[0]);
  };
  BoundedProblem problem;
  problem.objective = objective;
  problem.lower = {-3.0};
  problem.upper = {3.0};
  Rng rng(7);
  const auto result = MinimizeBoundedMultiStart(problem, {-1.2}, 4, rng);
  EXPECT_EQ(result.evaluations, calls);
  EXPECT_GT(result.evaluations, MinimizeBounded(problem, {-1.2}).evaluations);
}

TEST(LbfgsbTest, QuadraticUnconstrained) {
  BoundedProblem problem;
  problem.lower = {-kInf, -kInf};
  problem.upper = {kInf, kInf};
  const auto objective = [](const double* x) {
    return (x[0] - 1.0) * (x[0] - 1.0) + 10.0 * (x[1] + 2.0) * (x[1] + 2.0);
  };
  problem.objective = objective;
  const auto result = MinimizeBounded(problem, {5.0, 5.0});
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 1.0, 1e-4);
  EXPECT_NEAR(result.x[1], -2.0, 1e-4);
  EXPECT_NEAR(result.value, 0.0, 1e-7);
}

TEST(LbfgsbTest, ActiveBoundSolution) {
  // Unconstrained minimum at (1, -2), but the box forces x1 >= 0.
  BoundedProblem problem;
  problem.lower = {0.0, 0.0};
  problem.upper = {10.0, 10.0};
  const auto objective = [](const double* x) {
    return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] + 2.0) * (x[1] + 2.0);
  };
  problem.objective = objective;
  const auto result = MinimizeBounded(problem, {5.0, 5.0});
  EXPECT_NEAR(result.x[0], 1.0, 1e-4);
  EXPECT_NEAR(result.x[1], 0.0, 1e-6);
}

TEST(LbfgsbTest, RosenbrockWithAnalyticGradient) {
  BoundedProblem problem;
  problem.lower = {-5.0, -5.0};
  problem.upper = {5.0, 5.0};
  const auto objective = [](const double* x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  problem.objective = objective;
  const auto gradient = [](const double* x, double* grad) {
    const double b = x[1] - x[0] * x[0];
    grad[0] = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * b;
    grad[1] = 200.0 * b;
  };
  problem.gradient = gradient;
  LbfgsbOptions options;
  options.max_iterations = 500;
  const auto result = MinimizeBounded(problem, {-1.2, 1.0}, options);
  EXPECT_NEAR(result.x[0], 1.0, 1e-3);
  EXPECT_NEAR(result.x[1], 1.0, 1e-3);
}

TEST(LbfgsbTest, RosenbrockWithFiniteDifferences) {
  BoundedProblem problem;
  problem.lower = {-5.0, -5.0};
  problem.upper = {5.0, 5.0};
  const auto objective = [](const double* x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  problem.objective = objective;
  LbfgsbOptions options;
  options.max_iterations = 500;
  const auto result = MinimizeBounded(problem, {-1.2, 1.0}, options);
  EXPECT_NEAR(result.x[0], 1.0, 1e-2);
  EXPECT_NEAR(result.x[1], 1.0, 1e-2);
}

TEST(LbfgsbTest, StartOutsideBoxIsProjected) {
  BoundedProblem problem;
  problem.lower = {0.0};
  problem.upper = {1.0};
  const auto objective = [](const double* x) { return (x[0] - 0.25) * (x[0] - 0.25); };
  problem.objective = objective;
  const auto result = MinimizeBounded(problem, {100.0});
  EXPECT_NEAR(result.x[0], 0.25, 1e-5);
}

TEST(LbfgsbTest, MultiStartEscapesPoorBasin) {
  // Double-well in 1D: local minimum near x = -1 (value ~1), global near
  // x = +1 (value ~0). A single start at -1.2 lands in the poor basin.
  BoundedProblem problem;
  problem.lower = {-3.0};
  problem.upper = {3.0};
  const auto objective = [](const double* x) {
    const double w = x[0] * x[0] - 1.0;
    return w * w + 0.5 * (1.0 - x[0]);
  };
  problem.objective = objective;
  const auto single = MinimizeBounded(problem, {-1.2});
  Rng rng(7);
  const auto multi = MinimizeBoundedMultiStart(problem, {-1.2}, 8, rng);
  EXPECT_LE(multi.value, single.value + 1e-9);
  EXPECT_GT(multi.x[0], 0.0);
}

TEST(LbfgsbTest, RandomStartMustBeatFirstStartByRestartMargin) {
  // Double-wells whose basin near x = +1 is lower than the one near x = -1,
  // where the first start stays, by 2 * tilt. A random start finds the lower
  // basin; it wins only when the gap exceeds kRestartMinImprovement.
  for (double tilt : {0.4 * kRestartMinImprovement, 0.8 * kRestartMinImprovement}) {
    BoundedProblem problem;
    problem.lower = {-3.0};
    problem.upper = {3.0};
    const auto objective = [tilt](const double* x) {
      const double w = x[0] * x[0] - 1.0;
      return w * w + tilt * (1.0 - x[0]);
    };
    problem.objective = objective;
    ASSERT_LT(MinimizeBounded(problem, {-1.0}).x[0], 0.0);
    Rng rng(7);
    const double x = MinimizeBoundedMultiStart(problem, {-1.0}, 8, rng).x[0];
    if (2.0 * tilt < kRestartMinImprovement) {
      EXPECT_LT(x, 0.0) << "tilt " << tilt;
    } else {
      EXPECT_GT(x, 0.0) << "tilt " << tilt;
    }
  }
}

TEST(LbfgsbTest, FullyPinnedBoxReturnsImmediately) {
  BoundedProblem problem;
  problem.lower = {2.0, 3.0};
  problem.upper = {2.0, 3.0};
  const auto objective = [](const double* x) { return x[0] + x[1]; };
  problem.objective = objective;
  const auto result = MinimizeBounded(problem, {0.0, 0.0});
  EXPECT_DOUBLE_EQ(result.x[0], 2.0);
  EXPECT_DOUBLE_EQ(result.x[1], 3.0);
  EXPECT_TRUE(result.converged);
}

// Property sweep: convex quadratics with varying conditioning must always be
// solved to high accuracy.
class LbfgsbConditioningSweep : public ::testing::TestWithParam<double> {};

TEST_P(LbfgsbConditioningSweep, SolvesIllConditionedQuadratic) {
  const double kappa = GetParam();
  BoundedProblem problem;
  problem.lower = {-kInf, -kInf};
  problem.upper = {kInf, kInf};
  const auto objective = [kappa](const double* x) {
    return x[0] * x[0] + kappa * x[1] * x[1];
  };
  problem.objective = objective;
  LbfgsbOptions options;
  options.max_iterations = 1000;
  const auto result = MinimizeBounded(problem, {3.0, 3.0}, options);
  EXPECT_NEAR(result.x[0], 0.0, 1e-3);
  EXPECT_NEAR(result.x[1], 0.0, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Conditioning, LbfgsbConditioningSweep,
                         ::testing::Values(1.0, 10.0, 100.0, 1000.0, 10000.0));

}  // namespace
}  // namespace pollux
