#include "core/goodput.h"

#include "core/efficiency.h"
#include "optim/golden_section.h"

namespace pollux {

double GoodputModel::ThroughputAt(const Placement& placement, double batch_size) const {
  return ModelThroughput(params_, placement, batch_size);
}

double GoodputModel::EfficiencyAt(double batch_size) const {
  return StatisticalEfficiency(phi_, static_cast<double>(base_batch_size_), batch_size);
}

double GoodputModel::GoodputAt(const Placement& placement, double batch_size) const {
  return ThroughputAt(placement, batch_size) * EfficiencyAt(batch_size);
}

GoodputModel::BatchChoice GoodputModel::OptimizeBatchSize(const Placement& placement,
                                                          const BatchLimits& limits) const {
  BatchChoice choice;
  if (placement.num_gpus <= 0) {
    return choice;
  }
  const long lo = limits.min_batch;
  const long hi = limits.MaxFeasible(placement.num_gpus);
  const auto result = GoldenSectionMaximizeInt(
      [&](long m) { return GoodputAt(placement, static_cast<double>(m)); }, lo, hi);
  choice.batch_size = result.best_x;
  choice.goodput = result.value;
  choice.throughput = ThroughputAt(placement, static_cast<double>(choice.batch_size));
  choice.efficiency = EfficiencyAt(static_cast<double>(choice.batch_size));
  return choice;
}

double Speedup(const GoodputModel& model, const Placement& placement, const BatchLimits& limits) {
  if (placement.num_gpus <= 0) {
    return 0.0;
  }
  const auto numerator = model.OptimizeBatchSize(placement, limits);
  const auto denominator = model.OptimizeBatchSize(Placement{1, 1}, limits);
  if (denominator.goodput <= 0.0) {
    // Degenerate model (e.g. no single-GPU data yet): treat any allocation as
    // merely neutral so the scheduler can still run the job and collect the
    // observations needed to fix the model.
    return 1.0;
  }
  return numerator.goodput / denominator.goodput;
}

}  // namespace pollux
