// Golden-section search [Kiefer 1953] for maximizing a unimodal function over
// an interval. Pollux uses this to maximize GOODPUT(a, m) over the batch size
// m (PolluxAgent batch-size tuning, and both sides of the SPEEDUP ratio in
// PolluxSched — see paper Sec. 4.1/4.2).

#ifndef POLLUX_OPTIM_GOLDEN_SECTION_H_
#define POLLUX_OPTIM_GOLDEN_SECTION_H_

#include "util/function_ref.h"

namespace pollux {

struct GoldenSectionResult {
  double x = 0.0;
  double value = 0.0;
  int evaluations = 0;
};

// Maximizes `f` on [lo, hi], assumed unimodal. Stops when the bracketing
// interval shrinks below `tolerance` (absolute, in x).
GoldenSectionResult GoldenSectionMaximize(FunctionRef<double(double)> f, double lo, double hi,
                                          double tolerance = 1e-4, int max_evaluations = 200);

// Binds any callable, a temporary included, for the duration of the call.
template <typename F>
GoldenSectionResult GoldenSectionMaximize(F&& f, double lo, double hi, double tolerance = 1e-4,
                                          int max_evaluations = 200) {
  return GoldenSectionMaximize(FunctionRef<double(double)>(f), lo, hi, tolerance,
                               max_evaluations);
}

// Integer variant: maximizes f over the integers in [lo, hi]. Runs a
// continuous golden-section pass and then polishes by scanning the
// neighborhood of the rounded optimum, so mild non-unimodality introduced by
// rounding cannot lose the maximum. Used for batch-size optimization where m
// is an integer number of examples.
struct IntSearchResult {
  long best_x = 0;
  double value = 0.0;
  int evaluations = 0;
};

IntSearchResult GoldenSectionMaximizeInt(FunctionRef<double(long)> f, long lo, long hi,
                                         int neighborhood = 2);

template <typename F>
IntSearchResult GoldenSectionMaximizeInt(F&& f, long lo, long hi, int neighborhood = 2) {
  return GoldenSectionMaximizeInt(FunctionRef<double(long)>(f), lo, hi, neighborhood);
}

}  // namespace pollux

#endif  // POLLUX_OPTIM_GOLDEN_SECTION_H_
