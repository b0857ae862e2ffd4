#include "core/model_fitter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace pollux {
namespace {

ThroughputParams GroundTruth() {
  ThroughputParams params;
  params.alpha_grad = 0.04;
  params.beta_grad = 3e-4;
  params.alpha_sync_local = 0.02;
  params.beta_sync_local = 0.001;
  params.alpha_sync_node = 0.08;
  params.beta_sync_node = 0.004;
  params.gamma = 1.8;
  return params;
}

// Full grid of observations over K, node regime, and batch size.
std::vector<ThroughputObservation> MakeObservations(const ThroughputParams& truth,
                                                    double noise_sigma, uint64_t seed) {
  Rng rng(seed);
  std::vector<ThroughputObservation> data;
  for (int k : {1, 2, 4, 8, 16}) {
    for (int n : {1, 2}) {
      if (n == 2 && k < 2) {
        continue;
      }
      for (long m : {128L, 256L, 512L, 1024L, 2048L}) {
        ThroughputObservation obs;
        obs.placement = Placement{k, n};
        obs.batch_size = m;
        obs.iter_time = IterTime(truth, obs.placement, static_cast<double>(m));
        if (noise_sigma > 0.0) {
          obs.iter_time *= std::exp(rng.Normal(0.0, noise_sigma));
        }
        data.push_back(obs);
      }
    }
  }
  return data;
}

TEST(ThroughputRmsleTest, ZeroForExactParams) {
  const auto truth = GroundTruth();
  const auto data = MakeObservations(truth, 0.0, 1);
  EXPECT_NEAR(ThroughputRmsle(truth, data), 0.0, 1e-9);
}

TEST(ThroughputRmsleTest, PositiveForWrongParams) {
  const auto truth = GroundTruth();
  const auto data = MakeObservations(truth, 0.0, 1);
  ThroughputParams wrong = truth;
  wrong.alpha_grad *= 3.0;
  EXPECT_GT(ThroughputRmsle(wrong, data), 0.01);
}

TEST(ThroughputRmsleTest, EmptyObservationsAreZero) {
  EXPECT_DOUBLE_EQ(ThroughputRmsle(GroundTruth(), {}), 0.0);
}

// ThroughputRmsle runs the fitter's kernel, which takes log(iter_time) once
// per fit. It must return, bit for bit, the plain per-observation formula with
// both logs taken inside the loop.
TEST(ThroughputRmsleTest, HoistedKernelIsBitIdentical) {
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<ThroughputObservation> data(static_cast<size_t>(rng.UniformInt(1, 40)));
    for (auto& obs : data) {
      const int k = static_cast<int>(rng.UniformInt(1, 32));
      obs.placement = Placement{k, k == 1 ? 1 : static_cast<int>(rng.UniformInt(1, 2))};
      obs.batch_size = rng.UniformInt(16, 4096);
      obs.iter_time = rng.LogNormal(0.2, 1.5);
    }
    ThroughputParams params;
    params.alpha_grad = rng.Uniform(0.0, 100.0);
    params.beta_grad = rng.Uniform(1e-8, 10.0);
    params.alpha_sync_local = rng.Uniform(0.0, 100.0);
    params.beta_sync_local = rng.Uniform(0.0, 10.0);
    params.alpha_sync_node = rng.Uniform(0.0, 100.0);
    params.beta_sync_node = rng.Uniform(0.0, 10.0);
    params.gamma = rng.Uniform(1.0, 10.0);

    double total = 0.0;
    for (const auto& obs : data) {
      const double predicted =
          IterTime(params, obs.placement, static_cast<double>(obs.batch_size));
      const double diff = std::log(predicted + 1e-8) - std::log(obs.iter_time + 1e-8);
      total += diff * diff;
    }
    const double reference = std::sqrt(total / static_cast<double>(data.size()));

    EXPECT_EQ(ThroughputRmsle(params, data), reference) << "trial " << trial;
  }
}

// One fit pinned to exact bits, recorded with the analytic RMSLE gradient. A
// change to the kernel or the minimizer that moves fits fails here.
TEST(ModelFitterTest, PinnedFitIsBitStable) {
  const auto data = MakeObservations(GroundTruth(), 0.05, 3);
  FitOptions options;
  options.max_gpus_seen = 16;
  options.max_nodes_seen = 2;
  options.multi_starts = 2;
  options.seed = 7;
  const FitResult fit = FitThroughputParams(data, options);
  EXPECT_EQ(fit.params.alpha_grad, 0x1.362e84d7d69b7p-5);
  EXPECT_EQ(fit.params.beta_grad, 0x1.314c6bcb71d97p-12);
  EXPECT_EQ(fit.params.alpha_sync_local, 0x1.70c23bb3f7842p-6);
  EXPECT_EQ(fit.params.beta_sync_local, 0x1.c10b21fb3f40dp-12);
  EXPECT_EQ(fit.params.alpha_sync_node, 0x1.2c20eb6aecdefp-4);
  EXPECT_EQ(fit.params.beta_sync_node, 0x1.e2c730c2e942ep-9);
  EXPECT_EQ(fit.params.gamma, 0x1.831aeb80b271dp+0);
  EXPECT_EQ(fit.rmsle, 0x1.5c16edf7b87aep-5);
}

TEST(ModelFitterTest, RecoversPredictionsFromNoiselessData) {
  const auto truth = GroundTruth();
  const auto data = MakeObservations(truth, 0.0, 1);
  FitOptions options;
  options.max_gpus_seen = 16;
  options.max_nodes_seen = 4;
  options.multi_starts = 4;
  const FitResult fit = FitThroughputParams(data, options);
  EXPECT_LT(fit.rmsle, 0.02);
  // The individual parameters need not be identified, but predictions on
  // held-out configurations must match the ground truth closely.
  for (int k : {3, 6, 12}) {
    for (long m : {384L, 1536L}) {
      const Placement placement{k, 2};
      const double predicted = IterTime(fit.params, placement, static_cast<double>(m));
      const double actual = IterTime(truth, placement, static_cast<double>(m));
      EXPECT_NEAR(predicted / actual, 1.0, 0.1) << "K=" << k << " m=" << m;
    }
  }
}

TEST(ModelFitterTest, ToleratesMeasurementNoise) {
  const auto truth = GroundTruth();
  const auto data = MakeObservations(truth, 0.05, 7);
  FitOptions options;
  options.max_gpus_seen = 16;
  options.max_nodes_seen = 4;
  options.multi_starts = 4;
  const FitResult fit = FitThroughputParams(data, options);
  for (int k : {2, 8}) {
    const Placement placement{k, 1};
    const double predicted = IterTime(fit.params, placement, 512.0);
    const double actual = IterTime(truth, placement, 512.0);
    EXPECT_NEAR(predicted / actual, 1.0, 0.2) << "K=" << k;
  }
}

TEST(ModelFitterTest, PriorPinsSyncParamsForSingleGpuJob) {
  const auto truth = GroundTruth();
  std::vector<ThroughputObservation> data;
  for (long m : {128L, 256L, 512L, 1024L}) {
    ThroughputObservation obs;
    obs.placement = Placement{1, 1};
    obs.batch_size = m;
    obs.iter_time = IterTime(truth, obs.placement, static_cast<double>(m));
    data.push_back(obs);
  }
  FitOptions options;
  options.max_gpus_seen = 1;
  options.max_nodes_seen = 1;
  const FitResult fit = FitThroughputParams(data, options);
  // Perfect-scaling prior: all sync parameters pinned to zero.
  EXPECT_DOUBLE_EQ(fit.params.alpha_sync_local, 0.0);
  EXPECT_DOUBLE_EQ(fit.params.beta_sync_local, 0.0);
  EXPECT_DOUBLE_EQ(fit.params.alpha_sync_node, 0.0);
  EXPECT_DOUBLE_EQ(fit.params.beta_sync_node, 0.0);
  // The grad parameters are identified from single-GPU data alone.
  EXPECT_NEAR(fit.params.alpha_grad, truth.alpha_grad, 0.02);
  EXPECT_NEAR(fit.params.beta_grad, truth.beta_grad, 1e-4);
}

TEST(ModelFitterTest, PriorPinsNodeParamsForSingleNodeJob) {
  const auto truth = GroundTruth();
  std::vector<ThroughputObservation> data;
  for (int k : {1, 2, 4}) {
    for (long m : {128L, 512L, 1024L}) {
      ThroughputObservation obs;
      obs.placement = Placement{k, 1};
      obs.batch_size = m;
      obs.iter_time = IterTime(truth, obs.placement, static_cast<double>(m));
      data.push_back(obs);
    }
  }
  FitOptions options;
  options.max_gpus_seen = 4;
  options.max_nodes_seen = 1;
  const FitResult fit = FitThroughputParams(data, options);
  EXPECT_DOUBLE_EQ(fit.params.alpha_sync_node, 0.0);
  EXPECT_DOUBLE_EQ(fit.params.beta_sync_node, 0.0);
  // Local sync params are free since multiple GPUs were used.
  EXPECT_LT(fit.rmsle, 0.05);
}

TEST(ModelFitterTest, PriorPinsRetrogressionForTwoGpuJob) {
  const auto truth = GroundTruth();
  std::vector<ThroughputObservation> data;
  for (int k : {1, 2}) {
    ThroughputObservation obs;
    obs.placement = Placement{k, k};
    obs.batch_size = 256;
    obs.iter_time = IterTime(truth, obs.placement, 256.0);
    data.push_back(obs);
  }
  FitOptions options;
  options.max_gpus_seen = 2;
  options.max_nodes_seen = 2;
  const FitResult fit = FitThroughputParams(data, options);
  EXPECT_DOUBLE_EQ(fit.params.beta_sync_local, 0.0);
  EXPECT_DOUBLE_EQ(fit.params.beta_sync_node, 0.0);
}

TEST(ModelFitterTest, GammaStaysInBounds) {
  const auto data = MakeObservations(GroundTruth(), 0.1, 11);
  FitOptions options;
  options.max_gpus_seen = 16;
  options.max_nodes_seen = 4;
  const FitResult fit = FitThroughputParams(data, options);
  EXPECT_GE(fit.params.gamma, 1.0);
  EXPECT_LE(fit.params.gamma, 10.0);
  EXPECT_GE(fit.params.alpha_grad, 0.0);
  EXPECT_GE(fit.params.beta_grad, 0.0);
}

// Two observations at one per-GPU batch size (256 on 1 GPU, 128 per GPU on 2)
// that took the same time. Eqn. 11 fits them exactly in many ways, one of
// which puts everything into a constant alpha_grad and predicts that a larger
// batch costs nothing; the agent would then pick the largest batch it may. A
// random start found that fit, and it must not replace the seeded start's
// fit, which is as good within 1e-4 and keeps compute per example. The data
// are a sim-hyper-5k job's second refit (true theta: alpha_grad 0.005,
// beta_grad 2.5e-5, alpha_sync_local 0.005, gamma 1.5).
TEST(ModelFitterTest, EqualPerGpuBatchTiesBreakTowardPerExampleCompute) {
  const std::vector<ThroughputObservation> data = {
      {Placement{1, 1}, 256, 0.011271044297634317},
      {Placement{2, 1}, 256, 0.011260405343506951}};
  FitOptions options;
  options.max_gpus_seen = 2;
  options.multi_starts = 2;
  options.seed = 3;
  const FitResult fit = FitThroughputParams(data, options);
  EXPECT_LT(fit.rmsle, 1e-4);
  // The ground truth takes 0.229 s at this batch size.
  EXPECT_GT(IterTime(fit.params, Placement{2, 1}, 17885.0), 0.1);
}

// Fits shaped like a sim-hyper-5k refit (one 1-GPU and 1-9 single-node
// multi-GPU observations, 2% noise) on data from known parameters whose
// synchronization time is positive. Returns the mean pure RMSLE (no ridge).
double MeanHyperShapedFitRmsle() {
  Rng gen(2028);
  constexpr int kFits = 200;
  double total = 0.0;
  for (int trial = 0; trial < kFits; ++trial) {
    ThroughputParams truth;
    truth.alpha_grad = gen.LogNormal(0.03, 0.8);
    truth.beta_grad = gen.LogNormal(2e-4, 0.8);
    truth.alpha_sync_local = gen.LogNormal(0.02, 0.8);
    truth.beta_sync_local = gen.LogNormal(1e-3, 0.8);
    truth.gamma = gen.Uniform(1.0, 3.0);
    std::vector<ThroughputObservation> data;
    int max_gpus = 1;
    const int count = static_cast<int>(gen.UniformInt(2, 10));
    for (int i = 0; i < count; ++i) {
      const int k = i == 0 ? 1 : static_cast<int>(gen.UniformInt(2, 4));
      max_gpus = std::max(max_gpus, k);
      ThroughputObservation obs;
      obs.placement = Placement{k, 1};
      obs.batch_size = gen.UniformInt(16, 512) * k;
      obs.iter_time = IterTime(truth, obs.placement, static_cast<double>(obs.batch_size)) *
                      std::exp(gen.Normal(0.0, 0.02));
      data.push_back(obs);
    }
    FitOptions options;
    options.max_gpus_seen = max_gpus;
    options.max_nodes_seen = 1;
    options.multi_starts = 2;
    options.seed = 1 + static_cast<uint64_t>(trial);
    total += ThroughputRmsle(FitThroughputParams(data, options).params, data);
  }
  return total / kFits;
}

TEST(ModelFitterTest, HyperShapedFitsNoWorseThanFiniteDifferences) {
  // Recorded with the central-difference gradient the fitter used before its
  // analytic gradient.
  constexpr double kFiniteDifferenceMean = 0.0104621483;
  EXPECT_LE(MeanHyperShapedFitRmsle(), kFiniteDifferenceMean);
}

TEST(ModelFitterTest, EmptyObservationsReturnDefault) {
  const FitResult fit = FitThroughputParams({}, {});
  EXPECT_DOUBLE_EQ(fit.rmsle, 0.0);
}

}  // namespace
}  // namespace pollux
