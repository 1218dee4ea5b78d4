// Failure-injection and recovery tests for the request-level engines (§4.4 /
// Fig. 11): blackholed-candidate degradation, controller-remap recovery, and
// sequential-vs-sharded / fluid parity under the paper's event series.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/sim_backend.h"
#include "tests/sim/sim_test_util.h"

namespace distcache {
namespace {

SimBackendConfig SmallConfig() {
  SimBackendConfig cfg;
  cfg.cluster.mechanism = Mechanism::kDistCache;
  cfg.cluster.num_spine = 8;
  cfg.cluster.num_racks = 8;
  cfg.cluster.servers_per_rack = 4;
  cfg.cluster.per_switch_objects = 50;
  cfg.cluster.num_keys = 1'000'000;
  cfg.cluster.zipf_theta = 0.99;
  cfg.cluster.seed = 7;
  return cfg;
}

constexpr uint64_t kRequests = 400'000;

double RelDiff(double a, double b) {
  return b == 0.0 ? std::abs(a) : std::abs(a - b) / std::abs(b);
}

// The paper's Fig. 11 series scaled onto [0, kRequests): fail spines 0 and 1 at
// 25% / 30%, controller recovery at 55%, switches restored at 80%.
std::vector<ClusterEvent> Fig11Events() {
  return {
      ClusterEvent::FailSpine(kRequests / 4, 0),
      ClusterEvent::FailSpine(kRequests * 3 / 10, 1),
      ClusterEvent::RunRecovery(kRequests * 55 / 100),
      ClusterEvent::RecoverSpine(kRequests * 8 / 10, 0),
      ClusterEvent::RecoverSpine(kRequests * 8 / 10, 1),
  };
}

// A failed spine's candidates degrade to the surviving copy instead of being
// routed (and lost): with the failure injected at request 0, the dead switch
// serves nothing for the whole run while the leaf layer absorbs its share.
TEST(SequentialFailure, RouteToFailedCopyDegradesToSingleChoice) {
  SimBackendConfig cfg = SmallConfig();
  const BackendStats healthy =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  ASSERT_GT(healthy.spine_load()[0], 0.0);

  cfg.events = {ClusterEvent::FailSpine(0, 0)};
  const BackendStats failed =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  EXPECT_EQ(failed.spine_load()[0], 0.0);  // dead switch never serves a request
  EXPECT_GT(failed.leaf_hits, healthy.leaf_hits);  // pairs degraded to the leaf
  EXPECT_GT(failed.dropped, 0u);  // pre-recovery ECMP transit share blackholes
}

// The Fig. 11 shape, request-level: full delivery while healthy, a dip while the
// dead spines blackhole their transit share, and full recovery once the
// controller remaps — with the hit ratio returning to its healthy level.
TEST(SequentialFailure, HitRatioAndDeliveryRecoverAfterRemap) {
  SimBackendConfig cfg = SmallConfig();
  cfg.sample_interval = kRequests / 10;
  const BackendStats healthy =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  ASSERT_EQ(healthy.series.size(), 10u);
  const double healthy_hit = healthy.hit_ratio();

  cfg.events = Fig11Events();
  const BackendStats failed =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  ASSERT_EQ(failed.series.size(), 10u);

  // Interval 0-1: healthy. Intervals 3-4: both spines dead, pre-recovery.
  // Intervals 6+: controller has remapped.
  EXPECT_DOUBLE_EQ(failed.series[0].delivered_fraction(), 1.0);
  EXPECT_LT(failed.series[3].delivered_fraction(), 0.9);
  EXPECT_LT(failed.series[3].hit_ratio(), healthy_hit - 0.03);
  for (size_t i = 6; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(failed.series[i].delivered_fraction(), 1.0) << "interval " << i;
    EXPECT_NEAR(failed.series[i].hit_ratio(), healthy_hit, 0.02) << "interval " << i;
  }
}

// An empty timeline must leave the engines bit-identical to their historical
// behaviour: no extra RNG draws, no stat drift.
TEST(Failure, EmptyTimelineIsIdentityForSequential) {
  const SimBackendConfig cfg = SmallConfig();
  SimBackendConfig with_empty = cfg;
  with_empty.events.clear();
  const BackendStats a = MakeSimBackend(BackendKind::kSequential, cfg)->Run(100'000);
  const BackendStats b =
      MakeSimBackend(BackendKind::kSequential, with_empty)->Run(100'000);
  ExpectSameStats(a, b, StatsScope::kOneShard);
  EXPECT_EQ(a.dropped, 0u);
}

// Acceptance: sharded vs sequential hit-ratio parity within 1% under the Fig. 11
// event series (the sharded engine applies the multicast timeline at each
// shard's scaled local clock, so aggregate stats must track the reference).
TEST(ShardedFailure, HitRatioParityWithSequentialUnderFig11Series) {
  SimBackendConfig cfg = SmallConfig();
  cfg.events = Fig11Events();
  cfg.sample_interval = kRequests / 10;
  const BackendStats seq =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  cfg.shards = 4;
  const BackendStats shard =
      MakeSimBackend(BackendKind::kSharded, cfg)->Run(kRequests);
  EXPECT_LT(RelDiff(shard.hit_ratio(), seq.hit_ratio()), 0.01)
      << "sharded " << shard.hit_ratio() << " vs sequential " << seq.hit_ratio();
  EXPECT_LT(RelDiff(static_cast<double>(shard.dropped),
                    static_cast<double>(seq.dropped)),
            0.05);
}

// Post-recovery engine parity against the fluid model (the bench_fig11 acceptance
// bar): after the controller remap both request-level engines deliver everything,
// matching the fluid model's achieved/offered fraction within 5%.
TEST(Failure, PostRecoveryThroughputMatchesFluidWithin5Percent) {
  SimBackendConfig cfg = SmallConfig();
  cfg.events = Fig11Events();
  cfg.sample_interval = kRequests / 10;
  const BackendStats fluid =
      MakeSimBackend(BackendKind::kFluid, cfg)->Run(kRequests);
  cfg.shards = 4;
  const BackendStats shard =
      MakeSimBackend(BackendKind::kSharded, cfg)->Run(kRequests);
  ASSERT_FALSE(fluid.series.empty());
  ASSERT_FALSE(shard.series.empty());
  const double fluid_final = fluid.series.back().delivered_fraction();
  const double shard_final = shard.series.back().delivered_fraction();
  EXPECT_GT(fluid_final, 0.0);
  EXPECT_LT(RelDiff(shard_final, fluid_final), 0.05);
  // And during the failure window both models show a real dip.
  EXPECT_LT(fluid.series[4].delivered_fraction(), 0.95);
  EXPECT_LT(shard.series[4].delivered_fraction(), 0.95);
}

// Regression: the fluid backend must honour the timeline even with no sampling
// grid (events used to be quantized to interval starts only, so sample_interval
// == 0 — a single interval starting at 0 — silently dropped every event).
TEST(FluidFailure, TimelineAppliesWithoutSampling) {
  SimBackendConfig cfg = SmallConfig();
  cfg.events = {ClusterEvent::FailSpine(kRequests / 4, 0),
                ClusterEvent::FailSpine(kRequests / 4, 1),
                ClusterEvent::RunRecovery(kRequests * 3 / 4)};
  const BackendStats st = MakeSimBackend(BackendKind::kFluid, cfg)->Run(kRequests);
  EXPECT_GT(st.dropped, 0u);  // the failure window's losses must be accounted
  ASSERT_EQ(st.series.size(), 3u);  // segments: healthy / failed / recovered
  EXPECT_DOUBLE_EQ(st.series[0].delivered_fraction(), 1.0);
  EXPECT_LT(st.series[1].delivered_fraction(), 0.95);
  EXPECT_DOUBLE_EQ(st.series[2].delivered_fraction(), 1.0);
}

// CacheReplication under failure: replicated reads spread over the alive spines
// only — no load ever lands on the dead switch after the failure event.
TEST(ShardedFailure, ReplicatedReadsAvoidDeadSpines) {
  SimBackendConfig cfg = SmallConfig();
  cfg.cluster.mechanism = Mechanism::kCacheReplication;
  cfg.events = {ClusterEvent::FailSpine(0, 2)};
  cfg.shards = 2;
  const BackendStats st = MakeSimBackend(BackendKind::kSharded, cfg)->Run(200'000);
  EXPECT_EQ(st.spine_load()[2], 0.0);
  EXPECT_GT(st.cache_hits, 0u);
}

}  // namespace
}  // namespace distcache
