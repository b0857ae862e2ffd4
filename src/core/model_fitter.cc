#include "core/model_fitter.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/lbfgsb.h"
#include "util/rng.h"

namespace pollux {
namespace {

constexpr double kLogEpsilon = 1e-8;

ThroughputParams UnpackParams(const std::vector<double>& x) {
  ThroughputParams params;
  params.alpha_grad = x[0];
  params.beta_grad = x[1];
  params.alpha_sync_local = x[2];
  params.beta_sync_local = x[3];
  params.alpha_sync_node = x[4];
  params.beta_sync_node = x[5];
  params.gamma = x[6];
  return params;
}

// Least-squares line fit of iter_time against batch size over single-GPU
// observations, used to seed (alpha_grad, beta_grad).
void SeedGradParams(const std::vector<ThroughputObservation>& observations, double* alpha,
                    double* beta) {
  double sum_m = 0.0;
  double sum_t = 0.0;
  double sum_mm = 0.0;
  double sum_mt = 0.0;
  int n = 0;
  for (const auto& obs : observations) {
    if (obs.placement.num_gpus != 1) {
      continue;
    }
    const double m = static_cast<double>(obs.batch_size);
    sum_m += m;
    sum_t += obs.iter_time;
    sum_mm += m * m;
    sum_mt += m * obs.iter_time;
    ++n;
  }
  if (n == 0) {
    // Fall back to per-GPU normalized samples from any placement.
    for (const auto& obs : observations) {
      const double m = static_cast<double>(obs.batch_size) / obs.placement.num_gpus;
      sum_m += m;
      sum_t += obs.iter_time;
      sum_mm += m * m;
      sum_mt += m * obs.iter_time;
      ++n;
    }
  }
  const double denom = static_cast<double>(n) * sum_mm - sum_m * sum_m;
  if (n >= 2 && std::fabs(denom) > 1e-12) {
    *beta = std::max((static_cast<double>(n) * sum_mt - sum_m * sum_t) / denom, 1e-8);
    *alpha = std::max((sum_t - *beta * sum_m) / static_cast<double>(n), 0.0);
  } else if (n >= 1) {
    *alpha = 0.0;
    *beta = std::max(sum_t / std::max(sum_m, 1.0), 1e-8);
  } else {
    *alpha = 0.01;
    *beta = 1e-4;
  }
}

// log(iter_time + kLogEpsilon) per observation: the data side of the RMSLE,
// which a fit takes once instead of once per objective evaluation.
std::vector<double> LogIterTimes(const std::vector<ThroughputObservation>& observations) {
  std::vector<double> logs;
  logs.reserve(observations.size());
  for (const auto& obs : observations) {
    logs.push_back(std::log(obs.iter_time + kLogEpsilon));
  }
  return logs;
}

// The one RMSLE loop, against precomputed LogIterTimes. ThroughputRmsle and
// the fitter's objective both run it.
double RmsleAgainstLogs(const ThroughputParams& params,
                        const std::vector<ThroughputObservation>& observations,
                        const std::vector<double>& log_iter_times) {
  if (observations.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (size_t i = 0; i < observations.size(); ++i) {
    const ThroughputObservation& obs = observations[i];
    const double predicted =
        IterTime(params, obs.placement, static_cast<double>(obs.batch_size));
    const double diff = std::log(predicted + kLogEpsilon) - log_iter_times[i];
    total += diff * diff;
  }
  return std::sqrt(total / static_cast<double>(observations.size()));
}

}  // namespace

double ThroughputRmsle(const ThroughputParams& params,
                       const std::vector<ThroughputObservation>& observations) {
  return RmsleAgainstLogs(params, observations, LogIterTimes(observations));
}

namespace {

double MedianOf(std::vector<double> values) {
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid), values.end());
  double median = values[mid];
  if (values.size() % 2 == 0) {
    const auto lower = std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
    median = 0.5 * (median + *lower);
  }
  return median;
}

// One bounded multi-start L-BFGS fit over the given observations.
FitResult FitOnce(const std::vector<ThroughputObservation>& observations,
                  const FitOptions& options) {
  FitResult result;

  // Index layout: [alpha_grad, beta_grad, alpha_loc, beta_loc, alpha_node,
  // beta_node, gamma].
  std::vector<double> lower(7, 0.0);
  std::vector<double> upper = {options.max_alpha, options.max_beta, options.max_alpha,
                               options.max_beta,  options.max_alpha, options.max_beta,
                               10.0};
  lower[6] = 1.0;
  // Gradient computation can never be free: without this floor, a job whose
  // observations all share one GPU count can have its entire iteration time
  // attributed to synchronization, predicting infinite single-GPU throughput.
  lower[1] = 1e-8;

  // Prior-driven exploration pins (Sec. 4.1).
  if (options.max_gpus_seen <= 1) {
    upper[2] = upper[3] = upper[4] = upper[5] = 0.0;
  }
  if (options.max_nodes_seen <= 1) {
    upper[4] = upper[5] = 0.0;
  }
  if (options.max_gpus_seen <= 2) {
    upper[3] = upper[5] = 0.0;
  }

  BoundedProblem problem;
  problem.lower = lower;
  problem.upper = upper;
  // The tiny ridge on the synchronization parameters resolves the
  // attribution ambiguity when the data cannot distinguish compute from sync
  // time (e.g. all observations share one GPU count): ties break toward
  // compute, keeping extrapolations to other GPU counts sane.
  constexpr double kSyncRidge = 1e-3;
  const std::vector<double> log_iter_times = LogIterTimes(observations);
  problem.objective = [&](const std::vector<double>& x) {
    return RmsleAgainstLogs(UnpackParams(x), observations, log_iter_times) +
           kSyncRidge * (x[2] + x[3] + x[4] + x[5]);
  };

  double alpha_seed = 0.0;
  double beta_seed = 0.0;
  SeedGradParams(observations, &alpha_seed, &beta_seed);
  std::vector<double> x0 = {std::min(alpha_seed, upper[0]),
                            std::min(beta_seed, upper[1]),
                            std::min(0.1, upper[2]),
                            std::min(0.01, upper[3]),
                            std::min(0.2, upper[4]),
                            std::min(0.01, upper[5]),
                            1.5};

  LbfgsbOptions lbfgs_options;
  lbfgs_options.max_iterations = 80;
  Rng rng(options.seed);
  const LbfgsbResult fit =
      MinimizeBoundedMultiStart(problem, x0, options.multi_starts, rng, lbfgs_options);
  result.params = UnpackParams(fit.x);
  result.rmsle = fit.value;
  result.evaluations = fit.evaluations;
  return result;
}

}  // namespace

namespace {

struct FitMetrics {
  obs::Counter* calls;
  obs::Counter* evaluations;
  obs::Counter* outliers_rejected;
  obs::Histogram* rmsle;

  static const FitMetrics& Get() {
    static const FitMetrics metrics;
    return metrics;
  }

 private:
  FitMetrics() {
    auto& registry = obs::MetricsRegistry::Global();
    calls = registry.GetCounter("fit.calls");
    evaluations = registry.GetCounter("fit.evaluations");
    outliers_rejected = registry.GetCounter("fit.outliers_rejected");
    rmsle = registry.GetHistogram("fit.rmsle");
  }
};

FitResult FitThroughputParamsImpl(const std::vector<ThroughputObservation>& observations,
                                  const FitOptions& options) {
  FitResult result;
  if (observations.empty()) {
    return result;
  }
  result = FitOnce(observations, options);
  if (options.outlier_mad_threshold <= 0.0 || observations.size() < 4) {
    return result;
  }

  // Robust pass: straggler-inflated samples sit far above the surface the
  // bulk of the data agrees on. Reject by median absolute deviation of the
  // log-residuals and refit on the survivors.
  std::vector<double> residuals;
  residuals.reserve(observations.size());
  for (const auto& obs : observations) {
    const double predicted =
        IterTime(result.params, obs.placement, static_cast<double>(obs.batch_size));
    residuals.push_back(std::log(obs.iter_time + kLogEpsilon) -
                        std::log(predicted + kLogEpsilon));
  }
  const double median = MedianOf(residuals);
  std::vector<double> deviations;
  deviations.reserve(residuals.size());
  for (double r : residuals) {
    deviations.push_back(std::fabs(r - median));
  }
  const double mad_sigma = 1.4826 * MedianOf(deviations);
  if (mad_sigma < 1e-9) {
    return result;  // Residuals are essentially identical; nothing to reject.
  }
  std::vector<ThroughputObservation> kept;
  kept.reserve(observations.size());
  for (size_t i = 0; i < observations.size(); ++i) {
    if (std::fabs(residuals[i] - median) <= options.outlier_mad_threshold * mad_sigma) {
      kept.push_back(observations[i]);
    }
  }
  if (kept.size() == observations.size() || kept.size() < 3) {
    return result;
  }
  FitResult refit = FitOnce(kept, options);
  refit.evaluations += result.evaluations;
  refit.outliers_rejected = static_cast<int>(observations.size() - kept.size());
  return refit;
}

}  // namespace

FitResult FitThroughputParams(const std::vector<ThroughputObservation>& observations,
                              const FitOptions& options) {
  TRACE_SCOPE("fit_throughput");
  const FitResult result = FitThroughputParamsImpl(observations, options);
  if (obs::MetricsRegistry::Global().enabled()) {
    const FitMetrics& metrics = FitMetrics::Get();
    metrics.calls->Add();
    metrics.evaluations->Add(static_cast<uint64_t>(std::max(0, result.evaluations)));
    metrics.outliers_rejected->Add(static_cast<uint64_t>(std::max(0, result.outliers_rejected)));
    if (std::isfinite(result.rmsle)) {
      metrics.rmsle->Record(result.rmsle);
    }
  }
  return result;
}

}  // namespace pollux
