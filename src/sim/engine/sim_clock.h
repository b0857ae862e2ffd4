// Simulation clock grid for the event loop.
//
// The event loop is tick-free in its control flow — it jumps straight from
// event to event — but the simulation's observable contract is stated in
// units of the tick: profiling samples are drawn once per tick of running
// time, periodic handlers fire at the first tick boundary at or after their
// threshold, and fault/submission effects land on the tick grid. SimClock
// centralizes that grid arithmetic (see RecurringTimer in timers.h for the
// threshold-lag rule).

#ifndef POLLUX_SIM_ENGINE_SIM_CLOCK_H_
#define POLLUX_SIM_ENGINE_SIM_CLOCK_H_

#include <cmath>

namespace pollux {

class SimClock {
 public:
  explicit SimClock(double tick) : tick_(tick > 0.0 ? tick : 1.0) {}

  double tick() const { return tick_; }

  // Smallest grid point k*tick >= t. Exact comparison, no slack: job
  // restart_until, submissions, and fault transitions all take effect at the
  // next tick boundary.
  double GridCeil(double t) const {
    if (t <= 0.0) {
      return 0.0;
    }
    return std::ceil(t / tick_) * tick_;
  }

  // Grid ceiling with a 1e-9 threshold slack (a threshold counts as reached
  // once `now + 1e-9 >= threshold`), for periodic-handler fire times and
  // message deliveries.
  double GridCeilSlack(double t) const { return GridCeil(t - 1e-9); }

 private:
  double tick_;
};

}  // namespace pollux

#endif  // POLLUX_SIM_ENGINE_SIM_CLOCK_H_
