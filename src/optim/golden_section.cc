#include "optim/golden_section.h"

#include <algorithm>
#include <cmath>

namespace pollux {
namespace {

// 1/phi and 1/phi^2 for the golden-section interior points.
constexpr double kInvPhi = 0.6180339887498949;
constexpr double kInvPhi2 = 0.3819660112501051;

}  // namespace

GoldenSectionResult GoldenSectionMaximize(FunctionRef<double(double)> f, double lo, double hi,
                                          double tolerance, int max_evaluations) {
  GoldenSectionResult result;
  if (hi < lo) {
    std::swap(lo, hi);
  }
  double a = lo;
  double b = hi;
  double c = a + kInvPhi2 * (b - a);
  double d = a + kInvPhi * (b - a);
  double fc = f(c);
  double fd = f(d);
  result.evaluations = 2;
  while (b - a > tolerance && result.evaluations < max_evaluations) {
    if (fc > fd) {
      b = d;
      d = c;
      fd = fc;
      c = a + kInvPhi2 * (b - a);
      fc = f(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + kInvPhi * (b - a);
      fd = f(d);
    }
    ++result.evaluations;
  }
  if (fc > fd) {
    result.x = c;
    result.value = fc;
  } else {
    result.x = d;
    result.value = fd;
  }
  return result;
}

IntSearchResult GoldenSectionMaximizeInt(FunctionRef<double(long)> f, long lo, long hi,
                                         int neighborhood) {
  IntSearchResult result;
  if (hi < lo) {
    std::swap(lo, hi);
  }
  if (hi - lo <= 16) {
    // Small range: exhaustive scan is both exact and cheap.
    result.best_x = lo;
    result.value = f(lo);
    result.evaluations = 1;
    for (long x = lo + 1; x <= hi; ++x) {
      const double value = f(x);
      ++result.evaluations;
      if (value > result.value) {
        result.value = value;
        result.best_x = x;
      }
    }
    return result;
  }
  int evaluations = 0;
  auto continuous = GoldenSectionMaximize(
      [&](double x) {
        ++evaluations;
        return f(std::lround(x));
      },
      static_cast<double>(lo), static_cast<double>(hi), 0.5);
  long center = std::lround(continuous.x);
  result.best_x = std::clamp(center, lo, hi);
  result.value = f(result.best_x);
  ++evaluations;
  for (long delta = 1; delta <= neighborhood; ++delta) {
    for (long candidate : {center - delta, center + delta}) {
      if (candidate < lo || candidate > hi) {
        continue;
      }
      const double value = f(candidate);
      ++evaluations;
      if (value > result.value) {
        result.value = value;
        result.best_x = candidate;
      }
    }
  }
  result.evaluations = evaluations;
  return result;
}

}  // namespace pollux
