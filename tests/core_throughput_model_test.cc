#include "core/throughput_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/model_fitter.h"
#include "core/rack_model.h"
#include "util/rng.h"

namespace pollux {
namespace {

ThroughputParams TypicalParams() {
  ThroughputParams params;
  params.alpha_grad = 0.05;
  params.beta_grad = 2e-4;
  params.alpha_sync_local = 0.03;
  params.beta_sync_local = 0.002;
  params.alpha_sync_node = 0.1;
  params.beta_sync_node = 0.005;
  params.gamma = 2.0;
  return params;
}

TEST(ThroughputModelTest, SingleGpuHasNoSync) {
  const auto params = TypicalParams();
  EXPECT_DOUBLE_EQ(SyncTime(params, Placement{1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(IterTime(params, Placement{1, 1}, 100.0),
                   GradTime(params, Placement{1, 1}, 100.0));
}

TEST(ThroughputModelTest, GradTimeScalesWithLocalBatch) {
  const auto params = TypicalParams();
  // Same per-GPU batch => same grad time.
  EXPECT_DOUBLE_EQ(GradTime(params, Placement{1, 1}, 100.0),
                   GradTime(params, Placement{4, 1}, 400.0));
  // Doubling the global batch at fixed K doubles the variable part.
  const double t1 = GradTime(params, Placement{2, 1}, 200.0);
  const double t2 = GradTime(params, Placement{2, 1}, 400.0);
  EXPECT_NEAR(t2 - t1, params.beta_grad * 100.0, 1e-12);
}

TEST(ThroughputModelTest, SyncRegimesAtKEquals2) {
  const auto params = TypicalParams();
  // K=2 on one node uses local parameters with zero retrogression term.
  EXPECT_DOUBLE_EQ(SyncTime(params, Placement{2, 1}), params.alpha_sync_local);
  // K=2 across two nodes uses node parameters.
  EXPECT_DOUBLE_EQ(SyncTime(params, Placement{2, 2}), params.alpha_sync_node);
  // Retrogression grows linearly in K - 2.
  EXPECT_DOUBLE_EQ(SyncTime(params, Placement{6, 2}),
                   params.alpha_sync_node + 4.0 * params.beta_sync_node);
}

TEST(ThroughputModelTest, CoLocatedSyncIsFaster) {
  const auto params = TypicalParams();
  EXPECT_LT(SyncTime(params, Placement{4, 1}), SyncTime(params, Placement{4, 2}));
}

TEST(ThroughputModelTest, GammaOneIsSum) {
  auto params = TypicalParams();
  params.gamma = 1.0;
  const Placement placement{4, 2};
  const double expected = GradTime(params, placement, 512.0) + SyncTime(params, placement);
  EXPECT_NEAR(IterTime(params, placement, 512.0), expected, 1e-12);
}

TEST(ThroughputModelTest, LargeGammaApproachesMax) {
  auto params = TypicalParams();
  params.gamma = 500.0;
  const Placement placement{4, 2};
  const double grad = GradTime(params, placement, 512.0);
  const double sync = SyncTime(params, placement);
  EXPECT_NEAR(IterTime(params, placement, 512.0), std::max(grad, sync), 1e-3);
}

TEST(ThroughputModelTest, IterTimeBetweenMaxAndSum) {
  const auto params = TypicalParams();
  const Placement placement{8, 2};
  const double grad = GradTime(params, placement, 1024.0);
  const double sync = SyncTime(params, placement);
  const double iter = IterTime(params, placement, 1024.0);
  EXPECT_GE(iter, std::max(grad, sync));
  EXPECT_LE(iter, grad + sync + 1e-12);
}

TEST(ThroughputModelTest, GammaBelowOneIsClampedToSum) {
  auto params = TypicalParams();
  params.gamma = 0.5;  // Invalid; model clamps to 1.
  const Placement placement{4, 2};
  const double expected = GradTime(params, placement, 512.0) + SyncTime(params, placement);
  EXPECT_NEAR(IterTime(params, placement, 512.0), expected, 1e-12);
}

TEST(ThroughputModelTest, ZeroGpusYieldsZeroThroughput) {
  const auto params = TypicalParams();
  EXPECT_DOUBLE_EQ(ModelThroughput(params, Placement{0, 0}, 128.0), 0.0);
  EXPECT_DOUBLE_EQ(ModelThroughput(params, Placement{1, 1}, 0.0), 0.0);
}

TEST(ThroughputModelTest, LargerBatchEnablesBetterScaling) {
  // The Fig. 1a phenomenon: with a small batch, throughput saturates via
  // Amdahl's law; a larger batch keeps scaling further.
  const auto params = TypicalParams();
  auto scaling = [&](double m) {
    return ModelThroughput(params, Placement{16, 4}, m) /
           ModelThroughput(params, Placement{1, 1}, m);
  };
  EXPECT_GT(scaling(2048.0), scaling(512.0));
}

// ---------------------------------------------------------------------------
// The fits' objective and its analytic gradient.

// A random point over `tiers` sync tiers: every parameter positive, so
// T_sync > 0 wherever K >= 2, and gamma in (1, 6]. The spreads put T_grad
// above T_sync on some samples and below it on others.
std::vector<double> RandomPoint(Rng& gen, int tiers) {
  std::vector<double> x = {gen.LogNormal(0.03, 1.0), gen.LogNormal(2e-4, 1.0)};
  for (int t = 0; t < tiers; ++t) {
    x.push_back(gen.LogNormal(0.03 * (t + 1), 1.2));
    x.push_back(gen.LogNormal(2e-3 * (t + 1), 1.2));
  }
  x.push_back(1.0 + 5.0 * (1.0 - gen.NextDouble()));
  return x;
}

// Draws one placement of 1-16 GPUs over 1-3 nodes (flat) or 1-3 racks.
struct RandomPlacement {
  int gpus;
  int nodes;
  int racks;
};
RandomPlacement DrawPlacement(Rng& gen) {
  RandomPlacement p;
  p.gpus = static_cast<int>(gen.UniformInt(1, 16));
  p.nodes = p.gpus == 1 ? 1 : static_cast<int>(gen.UniformInt(1, std::min(p.gpus, 3)));
  p.racks = p.nodes == 1 ? 1 : static_cast<int>(gen.UniformInt(1, std::min(p.nodes, 3)));
  return p;
}

// Checks the analytic gradient against central differences of Value, in
// d F / d ln x_i so that every coordinate is on one scale.
void ExpectGradientMatchesCentralDifferences(const RmsleObjective& objective,
                                             std::vector<double> x) {
  std::vector<double> grad(x.size());
  objective.Gradient(x.data(), grad.data());
  for (size_t i = 0; i < x.size(); ++i) {
    const double center = x[i];
    const double h = 1e-5 * center;
    x[i] = center + h;
    const double plus = objective.Value(x.data());
    x[i] = center - h;
    const double minus = objective.Value(x.data());
    x[i] = center;
    const double numeric = center * (plus - minus) / (2.0 * h);
    const double analytic = center * grad[i];
    const double error = std::fabs(analytic - numeric) / (std::fabs(numeric) + 1e-3);
    EXPECT_LT(error, 1e-6) << "coordinate " << i << ": analytic " << analytic << ", numeric "
                           << numeric;
  }
}

TEST(RmsleObjectiveTest, FlatGradientMatchesCentralDifferences) {
  Rng gen(11);
  int grad_above = 0;
  int sync_above = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<double> x = RandomPoint(gen, 2);
    ThroughputParams params{x[0], x[1], x[2], x[3], x[4], x[5], x[6]};
    std::vector<ThroughputObservation> data;
    std::vector<FitSample> samples;
    const int count = static_cast<int>(gen.UniformInt(1, 12));
    for (int i = 0; i < count; ++i) {
      const RandomPlacement p = DrawPlacement(gen);
      const Placement placement{p.gpus, p.nodes};
      const long batch = gen.UniformInt(16, 4096);
      const double iter_time = gen.LogNormal(0.2, 1.0);
      data.push_back(ThroughputObservation{placement, batch, iter_time});
      samples.push_back(FitSample{static_cast<double>(batch), p.gpus,
                                  p.gpus <= 1 ? -1 : p.nodes <= 1 ? 0 : 1,
                                  std::log(iter_time + kFitLogEpsilon)});
      if (p.gpus > 1) {
        const double grad = GradTime(params, placement, static_cast<double>(batch));
        (grad > SyncTime(params, placement) ? grad_above : sync_above) += 1;
      }
    }
    const RmsleObjective objective(samples, x.size());
    // The fitter builds these samples for ThroughputRmsle too.
    ASSERT_EQ(objective.Rmsle(x.data()), ThroughputRmsle(params, data));
    ExpectGradientMatchesCentralDifferences(objective, x);
  }
  EXPECT_GT(grad_above, 100);
  EXPECT_GT(sync_above, 100);
}

TEST(RmsleObjectiveTest, RackGradientMatchesCentralDifferences) {
  Rng gen(12);
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<double> x = RandomPoint(gen, 3);
    RackThroughputParams params{x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7], x[8]};
    std::vector<RackThroughputObservation> data;
    std::vector<FitSample> samples;
    const int count = static_cast<int>(gen.UniformInt(1, 12));
    for (int i = 0; i < count; ++i) {
      const RandomPlacement p = DrawPlacement(gen);
      const long batch = gen.UniformInt(16, 4096);
      const double iter_time = gen.LogNormal(0.2, 1.0);
      data.push_back(
          RackThroughputObservation{RackPlacement{p.gpus, p.nodes, p.racks}, batch, iter_time});
      const int tier = p.gpus <= 1 ? -1 : p.nodes <= 1 ? 0 : p.racks <= 1 ? 1 : 2;
      samples.push_back(FitSample{static_cast<double>(batch), p.gpus, tier,
                                  std::log(iter_time + kFitLogEpsilon)});
    }
    const RmsleObjective objective(samples, x.size());
    ASSERT_EQ(objective.Rmsle(x.data()), RackThroughputRmsle(params, data));
    ExpectGradientMatchesCentralDifferences(objective, x);
  }
}

TEST(RmsleObjectiveTest, KernelValueIsCombineIterTimeBitForBit) {
  Rng gen(13);
  for (int trial = 0; trial < 2000; ++trial) {
    const double grad = trial % 7 == 0 ? 0.0 : gen.LogNormal(0.05, 2.0);
    const double sync = trial % 5 == 0 ? 0.0 : gen.LogNormal(0.05, 2.0);
    const double gamma = gen.Uniform(0.5, 6.0);
    EXPECT_EQ(IterTimeWithSlopes(grad, sync, gamma).iter_time,
              CombineIterTime(grad, sync, gamma));
  }
}

// At T_sync = 0 the exact slope in T_sync vanishes for gamma > 1; the kernel
// returns the forward secant instead, which is what a finite-difference
// probe of the sync parameters sees from s = 0.
TEST(RmsleObjectiveTest, SyncSlopeAtZeroIsTheForwardSecant) {
  for (double gamma : {1.0, 1.5, 2.0, 4.0}) {
    const double grad = 0.07;
    const IterTimeSlopes slopes = IterTimeWithSlopes(grad, 0.0, gamma);
    EXPECT_EQ(slopes.iter_time, grad);
    EXPECT_EQ(slopes.d_grad, 1.0 / grad);
    EXPECT_EQ(slopes.d_gamma, 0.0);
    EXPECT_EQ(slopes.d_sync,
              std::log1p(std::pow(kFitSyncStep / grad, gamma)) / (gamma * kFitSyncStep));
    EXPECT_GT(slopes.d_sync, 0.0);
    // The secant is the log-change of T_iter over one step.
    EXPECT_NEAR(slopes.d_sync * kFitSyncStep,
                std::log(CombineIterTime(grad, kFitSyncStep, gamma)) - std::log(grad), 1e-15);
  }

  // In the objective: 4-GPU single-node samples whose sync parameters sit at
  // 0. The slope in alpha_sync_local is the forward difference of the RMSLE
  // to first order, plus the ridge; without the secant it would be the ridge
  // alone, and the fit could not leave s = 0.
  std::vector<FitSample> samples;
  for (double batch : {256.0, 512.0, 1024.0}) {
    samples.push_back(FitSample{batch, 4, 0, std::log(0.2 + kFitLogEpsilon)});
  }
  const RmsleObjective objective(samples, 7);
  std::vector<double> x = {0.01, 1e-4, 0.0, 0.0, 0.0, 0.0, 2.0};
  std::vector<double> grad(x.size());
  objective.Gradient(x.data(), grad.data());
  const double at_zero = objective.Value(x.data());
  x[2] = kFitSyncStep;
  const double forward = (objective.Value(x.data()) - at_zero) / kFitSyncStep;
  EXPECT_NEAR(grad[2], forward, 1e-3 * std::fabs(forward));
  EXPECT_LT(grad[2], 1e-3);  // The data want more sync time: descent leaves 0.
  EXPECT_EQ(grad[4], 1e-3);  // No sample in the node tier: the ridge alone.
}

TEST(RmsleObjectiveTest, GradientAtZeroRmsleIsTheRidgeAlone) {
  const std::vector<double> x = {0.02, 3e-4, 0.01, 1e-3, 0.05, 4e-3, 1.7};
  std::vector<FitSample> samples;
  for (int k : {1, 2, 4, 8}) {
    for (int nodes : {1, 2}) {
      if (k == 1 && nodes == 2) {
        continue;
      }
      const int tier = k <= 1 ? -1 : nodes <= 1 ? 0 : 1;
      FitSample sample{512.0, k, tier, 0.0};
      const double sync =
          tier < 0 ? 0.0 : x[2 + 2 * tier] + x[3 + 2 * tier] * (k - 2);
      sample.log_iter_time =
          std::log(CombineIterTime(x[0] + x[1] * 512.0 / k, sync, x[6]) + kFitLogEpsilon);
      samples.push_back(sample);
    }
  }
  const RmsleObjective objective(samples, x.size());
  EXPECT_EQ(objective.Rmsle(x.data()), 0.0);
  std::vector<double> grad(x.size(), -1.0);
  objective.Gradient(x.data(), grad.data());
  EXPECT_EQ(grad, (std::vector<double>{0.0, 0.0, 1e-3, 1e-3, 1e-3, 1e-3, 0.0}));
}

// Property sweep: throughput is nondecreasing in K (fixed batch, single
// node regime to isolate Amdahl behaviour) for a family of parameter sets
// with zero retrogression.
struct ScalingCase {
  double alpha_grad;
  double beta_grad;
  double alpha_sync;
  double gamma;
};

class ThroughputScalingSweep : public ::testing::TestWithParam<ScalingCase> {};

TEST_P(ThroughputScalingSweep, MonotoneInGpus) {
  const ScalingCase c = GetParam();
  ThroughputParams params;
  params.alpha_grad = c.alpha_grad;
  params.beta_grad = c.beta_grad;
  params.alpha_sync_local = c.alpha_sync;
  params.gamma = c.gamma;
  double previous = 0.0;
  for (int k = 1; k <= 32; ++k) {
    const double throughput = ModelThroughput(params, Placement{k, 1}, 1024.0);
    EXPECT_GE(throughput, previous - 1e-9) << "K=" << k;
    previous = throughput;
  }
}

INSTANTIATE_TEST_SUITE_P(ParamFamilies, ThroughputScalingSweep,
                         ::testing::Values(ScalingCase{0.01, 1e-4, 0.02, 1.0},
                                           ScalingCase{0.05, 5e-4, 0.05, 2.0},
                                           ScalingCase{0.0, 1e-3, 0.1, 3.0},
                                           ScalingCase{0.1, 1e-5, 0.0, 1.5}));

}  // namespace
}  // namespace pollux
