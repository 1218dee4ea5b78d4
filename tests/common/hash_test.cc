#include "common/hash.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/random.h"

namespace distcache {
namespace {

TEST(Mix64, Deterministic) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(42), Mix64(43));
}

TEST(Mix64, ZeroIsNotFixedPoint) { EXPECT_NE(Mix64(0), 0u); }

TEST(Mix64, AvalancheFlipsManyBits) {
  // Flipping one input bit should flip roughly half the output bits.
  int total = 0;
  for (uint64_t x = 1; x <= 64; ++x) {
    const uint64_t a = Mix64(x);
    const uint64_t b = Mix64(x ^ 1);
    total += std::popcount(a ^ b);
  }
  const double avg = total / 64.0;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(Mix64, BucketsAreBalanced) {
  constexpr int kBuckets = 16;
  constexpr int kSamples = 16000;
  std::vector<int> counts(kBuckets, 0);
  for (uint64_t x = 0; x < kSamples; ++x) {
    ++counts[Mix64(x) % kBuckets];
  }
  for (int c : counts) {
    EXPECT_GT(c, kSamples / kBuckets / 2);
    EXPECT_LT(c, kSamples / kBuckets * 2);
  }
}

TEST(HashCombine, OrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(HashBytes, DeterministicAndSeedSensitive) {
  const char data[] = "distcache";
  EXPECT_EQ(HashBytes(data, sizeof(data)), HashBytes(data, sizeof(data)));
  EXPECT_NE(HashBytes(data, sizeof(data), 1), HashBytes(data, sizeof(data), 2));
}

TEST(HashBytes, LengthSensitive) {
  const char data[] = "distcache";
  EXPECT_NE(HashBytes(data, 4), HashBytes(data, 5));
}

TEST(TabulationHash, Deterministic) {
  TabulationHash h(7);
  EXPECT_EQ(h(123456), h(123456));
}

TEST(TabulationHash, SeedChangesFunction) {
  TabulationHash h1(1);
  TabulationHash h2(2);
  int differing = 0;
  for (uint64_t k = 0; k < 100; ++k) {
    differing += h1(k) != h2(k) ? 1 : 0;
  }
  EXPECT_EQ(differing, 100);
}

TEST(TabulationHash, FewCollisionsOnSequentialKeys) {
  TabulationHash h(3);
  std::set<uint64_t> values;
  for (uint64_t k = 0; k < 10000; ++k) {
    values.insert(h(k));
  }
  EXPECT_EQ(values.size(), 10000u);  // 64-bit collisions over 10k keys ~ impossible
}

TEST(TabulationHash, BucketsAreBalanced) {
  TabulationHash h(11);
  constexpr int kBuckets = 32;
  std::vector<int> counts(kBuckets, 0);
  for (uint64_t k = 0; k < 32000; ++k) {
    ++counts[h(k) % kBuckets];
  }
  for (int c : counts) {
    EXPECT_GT(c, 500);
    EXPECT_LT(c, 1500);
  }
}

// The property DistCache's analysis needs: the two layer hashes must be independent,
// i.e., knowing h0's bucket must not help predict h1's bucket.
TEST(HashFamily, LayerFunctionsAreIndependent) {
  HashFamily family(2, 99);
  constexpr size_t kBuckets = 8;
  // Joint histogram of (h0 bucket, h1 bucket) should be ~uniform over 64 cells.
  std::vector<int> joint(kBuckets * kBuckets, 0);
  constexpr int kKeys = 64000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ++joint[family.Bucket(0, k, kBuckets) * kBuckets + family.Bucket(1, k, kBuckets)];
  }
  const double expected = static_cast<double>(kKeys) / (kBuckets * kBuckets);
  double chi2 = 0.0;
  for (int c : joint) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 63 degrees of freedom; 99.9th percentile ≈ 103. Allow generous slack.
  EXPECT_LT(chi2, 150.0);
}

TEST(HashFamily, SizeAndDistinctness) {
  HashFamily family(3, 5);
  EXPECT_EQ(family.size(), 3u);
  EXPECT_NE(family.Hash(0, 42), family.Hash(1, 42));
  EXPECT_NE(family.Hash(1, 42), family.Hash(2, 42));
}

TEST(HashFamily, SameSeedSameFamily) {
  HashFamily a(2, 123);
  HashFamily b(2, 123);
  for (uint64_t k = 0; k < 50; ++k) {
    EXPECT_EQ(a.Hash(0, k), b.Hash(0, k));
    EXPECT_EQ(a.Hash(1, k), b.Hash(1, k));
  }
}

// The byte-wise definition: the XOR of one table word per key byte, over all
// eight bytes, with the tables drawn the way the constructor draws them.
uint64_t ReferenceTabulation(uint64_t seed, uint64_t key) {
  Rng rng(Mix64(seed ^ 0x7ab1e5eedULL));
  uint64_t table[8][256];
  for (auto& row : table) {
    for (auto& cell : row) {
      cell = rng.Next();
    }
  }
  uint64_t h = 0;
  for (int i = 0; i < 8; ++i) {
    h ^= table[i][static_cast<uint8_t>(key >> (8 * i))];
  }
  return h;
}

TEST(TabulationHash, MatchesEightByteDefinitionOnBothSidesOf2To32) {
  // Keys below 2^32 take the four-lookup path; the rest read all eight bytes.
  for (const uint64_t seed : {uint64_t{0}, uint64_t{7}, uint64_t{0x5eedc0de}}) {
    const TabulationHash h(seed);
    std::vector<uint64_t> keys = {0,
                                  1,
                                  (uint64_t{1} << 32) - 1,
                                  uint64_t{1} << 32,
                                  (uint64_t{1} << 32) + 1,
                                  ~uint64_t{0}};
    Rng rng(seed + 1);
    for (int i = 0; i < 200; ++i) {
      keys.push_back(rng.Next());
      keys.push_back(rng.Next() >> 32);
      keys.push_back(rng.NextBounded(uint64_t{1} << 27));
    }
    for (const uint64_t key : keys) {
      ASSERT_EQ(h(key), ReferenceTabulation(seed, key))
          << "seed " << seed << " key " << key;
    }
  }
}

}  // namespace
}  // namespace distcache
