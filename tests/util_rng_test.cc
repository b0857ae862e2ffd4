#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <vector>

namespace pollux {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 4);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(9);
  double lo = 1e9;
  double hi = -1e9;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.Uniform(-2.0, 5.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 5.0);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  EXPECT_LT(lo, -1.5);
  EXPECT_GT(hi, 4.5);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t x = rng.UniformInt(3, 6);
    EXPECT_GE(x, 3);
    EXPECT_LE(x, 6);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(13);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.UniformInt(5, 5), 5);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(2.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(19);
  std::vector<double> samples;
  for (int i = 0; i < 20001; ++i) {
    samples.push_back(rng.LogNormal(4.0, 0.5));
  }
  std::nth_element(samples.begin(), samples.begin() + 10000, samples.end());
  EXPECT_NEAR(samples[10000], 4.0, 0.15);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(2.0);
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, PoissonMeanSmallAndLarge) {
  Rng rng(29);
  double small_sum = 0.0;
  double large_sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    small_sum += static_cast<double>(rng.Poisson(3.0));
    large_sum += static_cast<double>(rng.Poisson(200.0));
  }
  EXPECT_NEAR(small_sum / n, 3.0, 0.1);
  EXPECT_NEAR(large_sum / n, 200.0, 1.0);
  EXPECT_EQ(rng.Poisson(0.0), 0);
  EXPECT_EQ(rng.Poisson(-1.0), 0);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(37);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.WeightedIndex(weights)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(41);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  std::vector<int> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, items);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(43);
  Rng child = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextU64() == child.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 4);
}

// ---------------------------------------------------------------------------
// Golden digest of the draw sequences. The value below was recorded with the
// out-of-line UniformInt that computed its rejection limit with a division on
// every draw. It folds in every drawn value and, after each block, the full
// generator state, so a change to any returned value or to the number of
// NextU64 calls behind it moves the digest.

class Digest {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddDouble(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  void AddRng(const Rng::State& state) {
    for (uint64_t word : state.words) {
      Add(word);
    }
    AddDouble(state.cached_normal);
    Add(state.has_cached_normal ? 1 : 0);
  }
  std::string Hex() const {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(hash_));
    return hex;
  }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// 500 UniformInt draws over `span` values (0 means all 2^64), centred on 0.
void AddUniformIntBlock(Digest& digest, Rng& rng, uint64_t span) {
  const int64_t lo = span == 0 ? std::numeric_limits<int64_t>::min()
                               : static_cast<int64_t>(uint64_t{0} - span / 2);
  const int64_t hi = static_cast<int64_t>(static_cast<uint64_t>(lo) + (span - 1));
  for (int i = 0; i < 500; ++i) {
    digest.Add(static_cast<uint64_t>(rng.UniformInt(lo, hi)));
  }
  digest.AddRng(rng.GetState());
}

TEST(RngGoldenTest, DrawsMatchRecordedDigest) {
  Rng rng(2718281828);
  Digest digest;
  for (uint64_t span : {1, 2, 3, 7}) {
    AddUniformIntBlock(digest, rng, span);
  }
  for (int k : {5, 31, 32, 62, 63}) {
    const uint64_t power = uint64_t{1} << k;
    for (uint64_t span : {power - 1, power, power + 1}) {
      AddUniformIntBlock(digest, rng, span);
    }
  }
  // Above 2^63 the rejection loop draws again for up to a quarter of draws.
  for (uint64_t span : {(uint64_t{1} << 63) + (uint64_t{1} << 61), uint64_t{3} << 62,
                        ~uint64_t{0} - (uint64_t{1} << 32)}) {
    AddUniformIntBlock(digest, rng, span);
  }
  AddUniformIntBlock(digest, rng, 0);

  for (int i = 0; i < 500; ++i) {
    digest.AddDouble(rng.NextDouble());
  }
  digest.AddRng(rng.GetState());
  for (double mean : {1.0, 100.0}) {
    for (int i = 0; i < 500; ++i) {
      digest.Add(static_cast<uint64_t>(rng.Poisson(mean)));
    }
    digest.AddRng(rng.GetState());
  }
  for (int i = 0; i < 501; ++i) {
    digest.AddDouble(rng.Normal());
  }
  digest.AddRng(rng.GetState());
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  for (int round = 0; round < 5; ++round) {
    rng.Shuffle(items);
    for (int item : items) {
      digest.Add(static_cast<uint64_t>(item));
    }
  }
  digest.AddRng(rng.GetState());
  for (int i = 0; i < 20; ++i) {
    Rng child = rng.Fork();
    digest.Add(child.NextU64());
    digest.Add(static_cast<uint64_t>(child.UniformInt(0, 39)));
    digest.AddRng(child.GetState());
  }
  digest.AddRng(rng.GetState());
  EXPECT_EQ(digest.Hex(), "1a3d1ee92af05bf8");
}

}  // namespace
}  // namespace pollux
