#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"

namespace distcache {
namespace {

TEST(DiscreteDistribution, NormalizesPmf) {
  DiscreteDistribution d({2.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(d.Pmf(0), 0.25);
  EXPECT_DOUBLE_EQ(d.Pmf(2), 0.5);
  EXPECT_DOUBLE_EQ(d.Pmf(3), 0.0);
  EXPECT_EQ(d.num_keys(), 3u);
}

TEST(DiscreteDistribution, TopMassIsCdf) {
  DiscreteDistribution d({1.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(d.TopMass(0), 0.0);
  EXPECT_DOUBLE_EQ(d.TopMass(1), 0.25);
  EXPECT_DOUBLE_EQ(d.TopMass(2), 0.5);
  EXPECT_DOUBLE_EQ(d.TopMass(3), 1.0);
  EXPECT_DOUBLE_EQ(d.TopMass(99), 1.0);
}

TEST(DiscreteDistribution, SamplesFollowPmf) {
  DiscreteDistribution d({0.7, 0.2, 0.1});
  Rng rng(5);
  int counts[3] = {};
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    ++counts[d.Sample(rng)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(kSamples), 0.7, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(kSamples), 0.2, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(kSamples), 0.1, 0.02);
}

TEST(DiscreteDistribution, IndexOfIsLowerBoundOfTheCdf) {
  // Zero-mass keys repeat cdf values, and draws equal to a cdf entry sit on
  // the search's tie: IndexOf must still return std::lower_bound's index, and
  // SelectsLast must agree with it, for every pmf length.
  Rng rng(9);
  for (size_t n = 1; n <= 70; ++n) {
    std::vector<double> pmf(n);
    for (size_t i = 0; i < n; ++i) {
      pmf[i] = i % 3 == 1 ? 0.0 : 1.0 + static_cast<double>(i % 5);
    }
    const DiscreteDistribution d(pmf);
    std::vector<double> cdf(n);
    for (size_t i = 0; i < n; ++i) {
      cdf[i] = d.TopMass(i + 1);
    }
    // Draws are in [0, 1), like Rng::NextDouble; a rounded-up cdf entry can
    // exceed the 1.0 the last entry is pinned to, so only entries below 1
    // make valid ties.
    std::vector<double> draws = {0.0, std::nextafter(1.0, 0.0)};
    std::copy_if(cdf.begin(), cdf.end(), std::back_inserter(draws),
                 [](double c) { return c < 1.0; });
    for (int i = 0; i < 200; ++i) {
      draws.push_back(rng.NextDouble());
    }
    for (const double u : draws) {
      const uint64_t want = static_cast<uint64_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      ASSERT_EQ(d.IndexOf(u), want) << "n " << n << " u " << u;
      ASSERT_EQ(d.SelectsLast(u), want == n - 1) << "n " << n << " u " << u;
    }
  }
}

TEST(DiscreteDistribution, ZeroMassKeysNeverSampled) {
  DiscreteDistribution d({1.0, 0.0, 1.0});
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_NE(d.Sample(rng), 1u);
  }
}

TEST(DiscreteDistribution, AllZeroPmfFallsBackToUniform) {
  // Regression: the all-zero pmf used to keep pmf_ at zero while the cdf rounding
  // guard set cdf_.back() = 1.0 — dumping 100% of the sampled mass on the last key.
  DiscreteDistribution d({0.0, 0.0, 0.0, 0.0});
  for (uint64_t k = 0; k < 4; ++k) {
    EXPECT_DOUBLE_EQ(d.Pmf(k), 0.25);
  }
  Rng rng(17);
  int counts[4] = {};
  constexpr int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) {
    const uint64_t key = d.Sample(rng);
    ASSERT_LT(key, 4u);
    ++counts[key];
  }
  for (int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(kSamples), 0.25, 0.02);
  }
}

TEST(CappedZipfPmf, RespectsCap) {
  const auto pmf = CappedZipfPmf(100, 0.99, 0.02);
  double sum = 0.0;
  for (double p : pmf) {
    EXPECT_LE(p, 0.02 * (1.0 + 1e-9));
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(CappedZipfPmf, UnbindingCapReturnsZipf) {
  const auto pmf = CappedZipfPmf(100, 0.9, 1.0);
  ZipfDistribution zipf(100, 0.9);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_NEAR(pmf[i], zipf.Pmf(i), 1e-12);
  }
}

TEST(CappedZipfPmf, ClippedMassGoesToTail) {
  const auto raw = CappedZipfPmf(1000, 0.99, 1.0);
  const auto capped = CappedZipfPmf(1000, 0.99, 0.005);
  EXPECT_LT(capped[0], raw[0]);
  EXPECT_GT(capped[999], raw[999]);  // tail inflated by renormalization
}

TEST(CappedZipfPmf, HeadIsFlatAtCap) {
  const auto pmf = CappedZipfPmf(1000, 0.99, 0.01);
  // The hottest keys all sit exactly at the cap.
  EXPECT_NEAR(pmf[0], 0.01, 1e-9);
  EXPECT_NEAR(pmf[1], 0.01, 1e-9);
  EXPECT_LT(pmf[999], 0.01);
}

TEST(CappedZipfPmf, InfeasibleCapReturnsUniform) {
  // cap < 1/num_keys is unsatisfiable (a pmf over n keys cannot be everywhere
  // below 1/n); the clip-and-renormalize loop used to run its 64 rounds and
  // silently return a cap-violating pmf. The closest satisfiable pmf is uniform.
  const auto pmf = CappedZipfPmf(100, 0.99, 0.001);
  double sum = 0.0;
  for (double p : pmf) {
    EXPECT_DOUBLE_EQ(p, 0.01);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // The boundary cap == 1/n is exactly feasible, and only by the uniform pmf.
  const auto boundary = CappedZipfPmf(100, 0.99, 0.01);
  for (double p : boundary) {
    EXPECT_DOUBLE_EQ(p, 0.01);
  }
}

}  // namespace
}  // namespace distcache
