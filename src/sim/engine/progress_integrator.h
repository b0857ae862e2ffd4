// Exact completion-time solving for the event loop.
//
// Job progress advances in tick-sized Euler steps, and the last step
// completes the job after remaining / rate seconds with efficiency frozen at
// the pre-step progress. That instant is exact only when no GNS breakpoint
// lies between the current progress and the finish line. SolveCompletionTime
// integrates the progress piecewise instead: efficiency is re-evaluated at
// every LR-decay breakpoint the job crosses (phi jumps by decay_boost there,
// Fig. 2a), yielding the time at which progress reaches TotalExamples under
// the piecewise-Euler rate model. When no breakpoint is crossed the result
// equals the Euler step bit-for-bit.

#ifndef POLLUX_SIM_ENGINE_PROGRESS_INTEGRATOR_H_
#define POLLUX_SIM_ENGINE_PROGRESS_INTEGRATOR_H_

#include "workload/model_profile.h"

namespace pollux {

// Time for the job to earn its last `TotalExamples() - progress` examples.
// `throughput` is the example throughput (batch / iter_time, already
// including any interference/straggler slowdown); `progress` is in examples.
// The result is clamped to [0, max_step] so a refined completion never
// escapes the advance span that contained the Euler completion.
double SolveCompletionTime(const ModelProfile& profile, long batch_size, double throughput,
                           double progress, double max_step);

}  // namespace pollux

#endif  // POLLUX_SIM_ENGINE_PROGRESS_INTEGRATOR_H_
