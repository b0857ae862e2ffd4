// Recurring timer for the event loop's periodic handlers (reports,
// scheduling rounds, autoscaling, checkpoints).
//
// A timer keeps a firing threshold that starts at `start` and advances by
// `interval` per firing. Two timing rules follow, and the recorded goldens
// depend on both:
//   1. A handler fires at the first *tick boundary* at or after the
//      threshold (with 1e-9 slack), not at the raw threshold.
//   2. The threshold advances by `interval` per firing, not to the firing
//      time, and a timer fires at most once per tick boundary. When
//      interval < tick the threshold lags behind the clock and the handler
//      fires once per tick, every tick.
// NextFireTime encodes both rules.

#ifndef POLLUX_SIM_ENGINE_TIMERS_H_
#define POLLUX_SIM_ENGINE_TIMERS_H_

#include <algorithm>
#include <limits>

#include "sim/engine/sim_clock.h"

namespace pollux {

class RecurringTimer {
 public:
  // First firing threshold `start`, then every `interval` seconds.
  RecurringTimer(double start, double interval) : threshold_(start), interval_(interval) {}

  // The grid time of the next firing: the first tick boundary at or after
  // the threshold, but never the boundary the timer last fired on (at most
  // one firing per tick).
  double NextFireTime(const SimClock& clock) const {
    double at = clock.GridCeilSlack(threshold_);
    if (last_fire_ >= 0.0) {
      at = std::max(at, last_fire_ + clock.tick());
    }
    return at;
  }

  // Records a firing at grid time `now` and advances the threshold.
  void Fired(double now) {
    last_fire_ = now;
    threshold_ += interval_;
  }

  double threshold() const { return threshold_; }
  double last_fire() const { return last_fire_; }

  // Restores (threshold, last_fire) from a checkpoint so a resumed event loop
  // continues the exact firing schedule of the interrupted run.
  void RestoreState(double threshold, double last_fire) {
    threshold_ = threshold;
    last_fire_ = last_fire;
  }

 private:
  double threshold_;
  double interval_;
  double last_fire_ = -std::numeric_limits<double>::infinity();
};

}  // namespace pollux

#endif  // POLLUX_SIM_ENGINE_TIMERS_H_
