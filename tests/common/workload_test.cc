#include "common/workload.h"

#include <gtest/gtest.h>

namespace distcache {
namespace {

TEST(WorkloadGenerator, ReadOnlyProducesNoWrites) {
  WorkloadConfig cfg;
  cfg.num_keys = 1000;
  cfg.write_ratio = 0.0;
  WorkloadGenerator gen(cfg);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(gen.Next().type, OpType::kGet);
  }
}

TEST(WorkloadGenerator, WriteOnlyProducesAllWrites) {
  WorkloadConfig cfg;
  cfg.num_keys = 1000;
  cfg.write_ratio = 1.0;
  WorkloadGenerator gen(cfg);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(gen.Next().type, OpType::kPut);
  }
}

TEST(WorkloadGenerator, WriteRatioIsRespected) {
  WorkloadConfig cfg;
  cfg.num_keys = 1000;
  cfg.write_ratio = 0.3;
  WorkloadGenerator gen(cfg);
  int writes = 0;
  constexpr int kOps = 50000;
  for (int i = 0; i < kOps; ++i) {
    writes += gen.Next().type == OpType::kPut ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(writes) / kOps, 0.3, 0.02);
}

TEST(WorkloadGenerator, KeysInRange) {
  WorkloadConfig cfg;
  cfg.num_keys = 500;
  cfg.zipf_theta = 0.99;
  WorkloadGenerator gen(cfg);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(gen.Next().key, 500u);
  }
}

TEST(WorkloadGenerator, DeterministicFromSeed) {
  WorkloadConfig cfg;
  cfg.num_keys = 1000;
  cfg.write_ratio = 0.5;
  WorkloadGenerator a(cfg);
  WorkloadGenerator b(cfg);
  for (int i = 0; i < 100; ++i) {
    const Op x = a.Next();
    const Op y = b.Next();
    EXPECT_EQ(x.key, y.key);
    EXPECT_EQ(x.type, y.type);
  }
}

TEST(PhasedWorkload, PhasesSwitchThetaWriteRatioAndShift) {
  WorkloadConfig cfg;
  cfg.num_keys = 1000;
  cfg.zipf_theta = 0.99;
  cfg.write_ratio = 0.0;
  WorkloadPhase phase;
  phase.start_request = 500;
  phase.zipf_theta = 0.0;  // uniform
  phase.write_ratio = 1.0;
  phase.hot_shift = 100;
  cfg.phases = {phase};
  WorkloadGenerator gen(cfg);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(gen.Next().type, OpType::kGet);
  }
  EXPECT_EQ(gen.hot_shift(), 0u);
  for (int i = 0; i < 500; ++i) {
    const Op op = gen.Next();
    EXPECT_EQ(op.type, OpType::kPut);
    EXPECT_LT(op.key, 1000u);  // rotation wraps inside the keyspace
  }
  EXPECT_EQ(gen.hot_shift(), 100u);
  EXPECT_DOUBLE_EQ(gen.write_ratio(), 1.0);
}

TEST(PhasedWorkload, HotShiftRotatesRanks) {
  WorkloadConfig cfg;
  cfg.num_keys = 1000;
  cfg.zipf_theta = 0.99;
  WorkloadConfig shifted = cfg;
  WorkloadPhase phase;
  phase.start_request = 0;
  phase.zipf_theta = cfg.zipf_theta;
  phase.hot_shift = 250;
  shifted.phases = {phase};
  WorkloadGenerator a(cfg);
  WorkloadGenerator b(shifted);
  for (int i = 0; i < 2000; ++i) {
    // Identical RNG streams: the shifted generator's key is the rotation of the
    // unshifted one, rank for rank.
    EXPECT_EQ((a.Next().key + 250) % 1000, b.Next().key);
  }
}

TEST(ParsePhaseList, ParsesAndSortsValidLists) {
  std::vector<WorkloadPhase> phases;
  std::string error;
  ASSERT_TRUE(ParsePhaseList("500000:0.9:0.1:777,0:0.99:0.0", &phases, &error))
      << error;
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].start_request, 0u);  // sorted by start
  EXPECT_DOUBLE_EQ(phases[0].zipf_theta, 0.99);
  EXPECT_EQ(phases[1].start_request, 500000u);
  EXPECT_DOUBLE_EQ(phases[1].write_ratio, 0.1);
  EXPECT_EQ(phases[1].hot_shift, 777u);
}

TEST(ParsePhaseList, RejectsMalformedInput) {
  std::vector<WorkloadPhase> phases;
  std::string error;
  // Wrong arity, non-numeric fields, NaN, out-of-range ratios, negatives —
  // including whitespace-prefixed negatives, which bare strtoull would
  // silently wrap to huge uint64 values.
  for (const char* bad :
       {"", "0:0.99", "0:0.99:0.0:1:2", "x:0.99:0.0", "0:nan:0.0", "0:0.99:1.5",
        "0:1.2:0.0", "0:0.99:-0.1", "-5:0.99:0.0", "0:0.99:0.0:abc",
        "0:0.99:0.0, -5:0.9:0.1", " 1:0.99:0.0", "0:0.99:0.0: -3"}) {
    error.clear();
    EXPECT_FALSE(ParsePhaseList(bad, &phases, &error)) << "accepted: " << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(BuildPopularityVector, HeadPlusTailIsOne) {
  auto dist = MakeDistribution(100000, 0.99);
  const PopularityVector pv = BuildPopularityVector(*dist, 1000);
  double head = 0.0;
  for (double p : pv.head) {
    head += p;
  }
  EXPECT_NEAR(head + pv.tail_mass, 1.0, 1e-9);
  EXPECT_EQ(pv.head.size(), 1000u);
}

TEST(BuildPopularityVector, TopKClampsToNumKeys) {
  auto dist = MakeDistribution(50, 0.9);
  const PopularityVector pv = BuildPopularityVector(*dist, 1000);
  EXPECT_EQ(pv.head.size(), 50u);
  EXPECT_NEAR(pv.tail_mass, 0.0, 1e-9);
}

TEST(BuildPopularityVector, UniformHead) {
  auto dist = MakeDistribution(1000, 0.0);
  const PopularityVector pv = BuildPopularityVector(*dist, 10);
  for (double p : pv.head) {
    EXPECT_DOUBLE_EQ(p, 0.001);
  }
  EXPECT_NEAR(pv.tail_mass, 0.99, 1e-9);
}

TEST(KeyOfRank, MatchesModuloRotation) {
  // The conditional subtract covers rank and shift both below num_keys; larger
  // shifts keep the division. Shift 0 is the identity.
  for (const uint64_t n : {uint64_t{1}, uint64_t{2}, uint64_t{7}, uint64_t{1000}}) {
    for (const uint64_t shift : {uint64_t{0}, uint64_t{1}, n - 1, n, 3 * n + 5}) {
      for (uint64_t rank = 0; rank < n; ++rank) {
        const uint64_t want = shift == 0 ? rank : (rank + shift) % n;
        ASSERT_EQ(KeyOfRank(rank, shift, n), want)
            << "n " << n << " shift " << shift << " rank " << rank;
      }
    }
  }
}

}  // namespace
}  // namespace distcache
