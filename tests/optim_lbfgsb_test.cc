#include "optim/lbfgsb.h"

#include <gtest/gtest.h>

#include <cmath>

namespace pollux {
namespace {

constexpr double kInf = 1e30;

TEST(ProjectToBoxTest, ClampsEachCoordinate) {
  const auto projected = ProjectToBox({-1.0, 0.5, 9.0}, {0.0, 0.0, 0.0}, {1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(projected[0], 0.0);
  EXPECT_DOUBLE_EQ(projected[1], 0.5);
  EXPECT_DOUBLE_EQ(projected[2], 1.0);
}

TEST(FiniteDifferenceTest, MatchesAnalyticGradient) {
  const Objective f = [](const std::vector<double>& x) {
    return x[0] * x[0] + 3.0 * x[0] * x[1] + 2.0 * x[1] * x[1];
  };
  const std::vector<double> x = {1.5, -2.0};
  const auto grad = FiniteDifferenceGradient(f, x, f(x), {-kInf, -kInf}, {kInf, kInf}, 1e-6);
  EXPECT_NEAR(grad[0], 2.0 * x[0] + 3.0 * x[1], 1e-5);
  EXPECT_NEAR(grad[1], 3.0 * x[0] + 4.0 * x[1], 1e-5);
}

TEST(FiniteDifferenceTest, OneSidedAtBoundary) {
  const Objective f = [](const std::vector<double>& x) { return x[0] * x[0]; };
  // x sits exactly on the lower bound; gradient should still be ~2x.
  const auto grad = FiniteDifferenceGradient(f, {2.0}, 4.0, {2.0}, {10.0}, 1e-6);
  EXPECT_NEAR(grad[0], 4.0, 1e-3);
}

TEST(FiniteDifferenceTest, CallsObjectiveOnlyForProbes) {
  int calls = 0;
  const Objective f = [&calls](const std::vector<double>& x) {
    ++calls;
    return x[0] * x[0] + x[1] * x[1] + x[2] * x[2];
  };
  // Coordinate 0 is interior (two probes), 1 sits on its lower bound (one
  // probe, f(x) comes from the caller), 2 is pinned (no probe).
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const auto grad = FiniteDifferenceGradient(f, x, 14.0, {-kInf, 2.0, 3.0}, {kInf, 10.0, 3.0}, 1e-6);
  EXPECT_EQ(calls, 3);
  EXPECT_NEAR(grad[0], 2.0, 1e-5);
  EXPECT_NEAR(grad[1], 4.0, 1e-3);
  EXPECT_EQ(grad[2], 0.0);
}

TEST(LbfgsbTest, EvaluationsCountObjectiveCalls) {
  int calls = 0;
  BoundedProblem problem;
  problem.lower = {0.0, 0.0, 1.0};
  problem.upper = {10.0, 10.0, 1.0};
  problem.objective = [&calls](const std::vector<double>& x) {
    ++calls;
    return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] + 2.0) * (x[1] + 2.0) + x[2];
  };
  const auto result = MinimizeBounded(problem, {5.0, 5.0, 1.0});
  EXPECT_NEAR(result.x[1], 0.0, 1e-6);
  EXPECT_EQ(result.evaluations, calls);
}

TEST(LbfgsbTest, QuadraticUnconstrained) {
  BoundedProblem problem;
  problem.lower = {-kInf, -kInf};
  problem.upper = {kInf, kInf};
  problem.objective = [](const std::vector<double>& x) {
    return (x[0] - 1.0) * (x[0] - 1.0) + 10.0 * (x[1] + 2.0) * (x[1] + 2.0);
  };
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
  problem.objective = [](const std::vector<double>& x) {
    return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] + 2.0) * (x[1] + 2.0);
  };
  const auto result = MinimizeBounded(problem, {5.0, 5.0});
  EXPECT_NEAR(result.x[0], 1.0, 1e-4);
  EXPECT_NEAR(result.x[1], 0.0, 1e-6);
}

TEST(LbfgsbTest, RosenbrockWithAnalyticGradient) {
  BoundedProblem problem;
  problem.lower = {-5.0, -5.0};
  problem.upper = {5.0, 5.0};
  problem.objective = [](const std::vector<double>& x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  problem.gradient = [](const std::vector<double>& x) {
    const double b = x[1] - x[0] * x[0];
    return std::vector<double>{-2.0 * (1.0 - x[0]) - 400.0 * x[0] * b, 200.0 * b};
  };
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
  problem.objective = [](const std::vector<double>& x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
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
  problem.objective = [](const std::vector<double>& x) { return (x[0] - 0.25) * (x[0] - 0.25); };
  const auto result = MinimizeBounded(problem, {100.0});
  EXPECT_NEAR(result.x[0], 0.25, 1e-5);
}

TEST(LbfgsbTest, MultiStartEscapesPoorBasin) {
  // Double-well in 1D: local minimum near x = -1 (value ~1), global near
  // x = +1 (value ~0). A single start at -1.2 lands in the poor basin.
  BoundedProblem problem;
  problem.lower = {-3.0};
  problem.upper = {3.0};
  problem.objective = [](const std::vector<double>& x) {
    const double w = x[0] * x[0] - 1.0;
    return w * w + 0.5 * (1.0 - x[0]);
  };
  const auto single = MinimizeBounded(problem, {-1.2});
  Rng rng(7);
  const auto multi = MinimizeBoundedMultiStart(problem, {-1.2}, 8, rng);
  EXPECT_LE(multi.value, single.value + 1e-9);
  EXPECT_GT(multi.x[0], 0.0);
}

TEST(LbfgsbTest, FullyPinnedBoxReturnsImmediately) {
  BoundedProblem problem;
  problem.lower = {2.0, 3.0};
  problem.upper = {2.0, 3.0};
  problem.objective = [](const std::vector<double>& x) { return x[0] + x[1]; };
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
  problem.objective = [kappa](const std::vector<double>& x) {
    return x[0] * x[0] + kappa * x[1] * x[1];
  };
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
