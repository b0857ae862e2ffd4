// Deterministic pseudo-random number generation for simulations.
//
// Everything in the simulator and the benchmarks must be reproducible from a
// single 64-bit seed, so we implement a small, fast, well-understood PRNG
// (xoshiro256**, seeded via splitmix64) rather than relying on the
// implementation-defined distributions in <random>. All distribution sampling
// is implemented in this file so results are identical across platforms and
// standard libraries.

#ifndef POLLUX_UTIL_RNG_H_
#define POLLUX_UTIL_RNG_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

namespace pollux {

// xoshiro256** generator. Satisfies the UniformRandomBitGenerator concept so
// it can also be plugged into <algorithm> utilities if needed.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  // Raw 64 random bits.
  uint64_t NextU64() {
    const uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }
  result_type operator()() { return NextU64(); }

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi. Rejection
  // sampling avoids modulo bias: draws at or above max() - max() % span are
  // redrawn. That limit is at least 2^64 - span, so it is only computed for
  // draws at or above 2^64 - span.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
    uint64_t draw = NextU64();
    if (span == 0) {
      return static_cast<int64_t>(draw);  // Full 64-bit range requested.
    }
    if (draw >= uint64_t{0} - span) {
      const uint64_t limit = max() - max() % span;
      while (draw >= limit) {
        draw = NextU64();
      }
    }
    return static_cast<int64_t>(static_cast<uint64_t>(lo) + draw % span);
  }

  // Standard normal via Box-Muller (cached second value).
  double Normal();

  // Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  // Lognormal such that the *median* of the distribution is `median` and the
  // underlying normal has standard deviation `sigma_log`.
  double LogNormal(double median, double sigma_log);

  // Exponential with the given rate (mean 1/rate).
  double Exponential(double rate);

  // Poisson-distributed count with the given mean (Knuth for small means,
  // normal approximation for large ones).
  int64_t Poisson(double mean);

  // True with probability p.
  bool Bernoulli(double p);

  // Samples an index in [0, weights.size()) proportionally to weights.
  // Requires at least one strictly positive weight.
  size_t WeightedIndex(const std::vector<double>& weights);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

  // Derives an independent child generator; used to give each job / component
  // its own stream so adding components does not perturb others.
  Rng Fork();

  // Full generator state, for checkpoint/restore. Restoring a saved state
  // resumes the exact draw sequence, including the cached Box-Muller normal.
  struct State {
    std::array<uint64_t, 4> words = {};
    double cached_normal = 0.0;
    bool has_cached_normal = false;
  };
  State GetState() const { return State{state_, cached_normal_, has_cached_normal_}; }
  void SetState(const State& state) {
    state_ = state.words;
    cached_normal_ = state.cached_normal;
    has_cached_normal_ = state.has_cached_normal;
  }

 private:
  std::array<uint64_t, 4> state_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace pollux

#endif  // POLLUX_UTIL_RNG_H_
