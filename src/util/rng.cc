#include "util/rng.h"

#include <cmath>

namespace pollux {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) {
    word = SplitMix64(s);
  }
}

double Rng::NextDouble() {
  // 53 top bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = NextDouble();
  while (u1 <= 1e-300) {
    u1 = NextDouble();
  }
  const double u2 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::Normal(double mean, double stddev) { return mean + stddev * Normal(); }

double Rng::LogNormal(double median, double sigma_log) {
  return median * std::exp(sigma_log * Normal());
}

double Rng::Exponential(double rate) {
  double u = NextDouble();
  while (u <= 1e-300) {
    u = NextDouble();
  }
  return -std::log(u) / rate;
}

int64_t Rng::Poisson(double mean) {
  if (mean <= 0.0) {
    return 0;
  }
  if (mean > 64.0) {
    // Normal approximation with continuity correction.
    const double draw = Normal(mean, std::sqrt(mean));
    return draw < 0.0 ? 0 : static_cast<int64_t>(draw + 0.5);
  }
  // Mean 1 is the GA mutation count's law, drawn once per row per offspring:
  // its threshold is computed once (the same double std::exp returns).
  static const double kExpMinusOne = std::exp(-1.0);
  const double threshold = mean == 1.0 ? kExpMinusOne : std::exp(-mean);
  int64_t count = -1;
  double product = 1.0;
  do {
    ++count;
    product *= NextDouble();
  } while (product > threshold);
  return count;
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    total += w > 0.0 ? w : 0.0;
  }
  double draw = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (draw < w) {
      return i;
    }
    draw -= w;
  }
  return weights.size() - 1;
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace pollux
