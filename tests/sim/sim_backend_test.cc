#include "sim/sim_backend.h"
#include "tests/sim/sim_test_util.h"

#include <gtest/gtest.h>

#include <cmath>

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

TEST(SequentialBackend, ExactlyDeterministicForSameSeed) {
  const SimBackendConfig cfg = SmallConfig();
  const BackendStats a =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  const BackendStats b =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  ExpectSameStats(a, b, StatsScope::kOneShard);
}

// The tentpole determinism criterion: the same seed must produce the same aggregate
// statistics whether the cluster is simulated on 1 shard or N shards — within
// statistical tolerance, since each shard samples its own request slice.
TEST(ShardedBackend, AggregateStatsMatchAcrossShardCounts) {
  SimBackendConfig cfg = SmallConfig();
  cfg.shards = 1;
  const BackendStats one =
      MakeSimBackend(BackendKind::kSharded, cfg)->Run(kRequests);
  for (uint32_t shards : {2u, 4u}) {
    cfg.shards = shards;
    const BackendStats many =
        MakeSimBackend(BackendKind::kSharded, cfg)->Run(kRequests);
    EXPECT_EQ(many.requests, kRequests);
    EXPECT_LT(RelDiff(many.hit_ratio(), one.hit_ratio()), 0.02)
        << shards << " shards: hit ratio " << many.hit_ratio() << " vs "
        << one.hit_ratio();
    EXPECT_LT(RelDiff(many.CacheImbalance(), one.CacheImbalance()), 0.05)
        << shards << " shards: cache imbalance " << many.CacheImbalance()
        << " vs " << one.CacheImbalance();
    EXPECT_LT(RelDiff(many.ServerImbalance(), one.ServerImbalance()), 0.05)
        << shards << " shards: server imbalance " << many.ServerImbalance()
        << " vs " << one.ServerImbalance();
  }
}

// The sharded runtime must reproduce the sequential reference's statistics: same
// hit ratio and load shape, within the tolerance the acceptance criteria demand.
TEST(ShardedBackend, MatchesSequentialReference) {
  SimBackendConfig cfg = SmallConfig();
  const BackendStats seq =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  cfg.shards = 4;
  const BackendStats shard =
      MakeSimBackend(BackendKind::kSharded, cfg)->Run(kRequests);
  EXPECT_LT(RelDiff(shard.hit_ratio(), seq.hit_ratio()), 0.05);
  EXPECT_LT(RelDiff(shard.CacheImbalance(), seq.CacheImbalance()), 0.05);
  EXPECT_LT(RelDiff(shard.ServerImbalance(), seq.ServerImbalance()), 0.05);
  // Total charged load must be conserved: every read costs exactly one unit
  // somewhere (read-only workload).
  double seq_total = 0.0;
  double shard_total = 0.0;
  for (const auto* v : {&seq.spine_load(), &seq.leaf_load(), &seq.server_load}) {
    for (double x : *v) seq_total += x;
  }
  for (const auto* v : {&shard.spine_load(), &shard.leaf_load(), &shard.server_load}) {
    for (double x : *v) shard_total += x;
  }
  EXPECT_NEAR(seq_total, static_cast<double>(kRequests), 1e-6);
  EXPECT_NEAR(shard_total, static_cast<double>(kRequests), 1e-6);
}

// Request-level hit ratios must converge to the fluid model's analytic cached mass.
TEST(Backends, HitRatioMatchesFluidAnalytic) {
  SimBackendConfig cfg = SmallConfig();
  const BackendStats fluid =
      MakeSimBackend(BackendKind::kFluid, cfg)->Run(kRequests);
  const BackendStats seq =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  EXPECT_LT(RelDiff(seq.hit_ratio(), fluid.hit_ratio()), 0.02)
      << "sequential " << seq.hit_ratio() << " vs fluid " << fluid.hit_ratio();
}

// Writes charge coherence costs: with a write ratio the cache layers absorb
// coherence_switch_cost per cached copy and servers pay the two-phase overhead.
TEST(Backends, WriteCoherenceCostsMatchBetweenEngines) {
  SimBackendConfig cfg = SmallConfig();
  cfg.cluster.write_ratio = 0.2;
  const BackendStats seq =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  cfg.shards = 4;
  const BackendStats shard =
      MakeSimBackend(BackendKind::kSharded, cfg)->Run(kRequests);
  EXPECT_GT(seq.writes, kRequests / 10);
  EXPECT_LT(RelDiff(static_cast<double>(shard.writes), static_cast<double>(seq.writes)),
            0.05);
  double seq_total = 0.0;
  double shard_total = 0.0;
  for (const auto* v : {&seq.spine_load(), &seq.leaf_load(), &seq.server_load}) {
    for (double x : *v) seq_total += x;
  }
  for (const auto* v : {&shard.spine_load(), &shard.leaf_load(), &shard.server_load}) {
    for (double x : *v) shard_total += x;
  }
  EXPECT_LT(RelDiff(shard_total, seq_total), 0.05);
}

TEST(ShardedBackend, ShardCountDoesNotChangeRequestTotal) {
  SimBackendConfig cfg = SmallConfig();
  cfg.shards = 3;  // does not divide kRequests evenly
  const BackendStats st =
      MakeSimBackend(BackendKind::kSharded, cfg)->Run(100'001);
  EXPECT_EQ(st.requests, 100'001u);
  EXPECT_EQ(st.reads + st.writes, 100'001u);
}

}  // namespace
}  // namespace distcache
