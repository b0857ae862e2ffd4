// The goodput of DL training (Definition 3.1):
//
//   GOODPUT_t(a, m) = THROUGHPUT(a, m) * EFFICIENCY_t(m)                (6)
//
// A GoodputModel is fully specified by (theta_sys, phi_t, m0) — exactly the
// triple PolluxAgent reports to PolluxSched. Goodput is unimodal in m, so the
// optimal batch size (Eqn. 13) is found with golden-section search.

#ifndef POLLUX_CORE_GOODPUT_H_
#define POLLUX_CORE_GOODPUT_H_

#include "core/throughput_model.h"
#include "core/types.h"

namespace pollux {

class GoodputModel {
 public:
  GoodputModel() = default;
  GoodputModel(ThroughputParams params, double phi, long base_batch_size)
      : params_(params), phi_(phi), base_batch_size_(base_batch_size) {}

  double ThroughputAt(const Placement& placement, double batch_size) const;
  double EfficiencyAt(double batch_size) const;
  double GoodputAt(const Placement& placement, double batch_size) const;

  struct BatchChoice {
    long batch_size = 0;
    double goodput = 0.0;
    double throughput = 0.0;
    double efficiency = 0.0;
  };

  // Eqn. 13: the most efficient batch size for the given placement within the
  // feasibility box (golden-section over integers). Returns a zero-goodput
  // choice for empty placements.
  BatchChoice OptimizeBatchSize(const Placement& placement, const BatchLimits& limits) const;

  const ThroughputParams& params() const { return params_; }
  double phi() const { return phi_; }
  long base_batch_size() const { return base_batch_size_; }
  void set_phi(double phi) { phi_ = phi; }
  void set_params(const ThroughputParams& params) { params_ = params; }

 private:
  ThroughputParams params_;
  double phi_ = 0.0;
  long base_batch_size_ = 1;
};

// Eqn. 15: goodput improvement of the given placement over a single GPU, both
// sides maximized over the batch size. SPEEDUP({1,1}) == 1 by construction,
// and SPEEDUP of an empty placement is 0.
double Speedup(const GoodputModel& model, const Placement& placement, const BatchLimits& limits);

}  // namespace pollux

#endif  // POLLUX_CORE_GOODPUT_H_
