// Compact route tables (the PR 9 memory tentpole): the table stores only the
// hot prefix of ranks that can ever be cached, and the engines recompute the
// uncached tail's server inline from the placement hash. The contract under
// test is *bit identity*: a run on compact tables must match a run on the
// pre-compaction dense layout field for field — same counters, same per-node
// load vectors to the last ulp — across engines, hierarchy depths, and the
// full failure/shift/realloc timeline. (The dense runs transitively match the
// PR 4/5/6 golden pins, which the golden tests assert against the compact
// default.)
#include <gtest/gtest.h>

#include "common/workload.h"
#include "sim/cluster_model.h"
#include "sim/route_table.h"
#include "sim/sim_backend.h"
#include "tests/sim/sim_test_util.h"

namespace distcache {
namespace {

// Engine sweep: {sequential, sharded x1} x {L=2, L=3} x {static, full
// timeline}, dense vs compact. x1 is the deterministic substrate the golden
// pins use — at 2+ shards the spine/leaf split is scheduling-dependent
// (telemetry arrival timing feeds the PoT choice), so bit-level comparison is
// only defined at one shard; multi-shard parity is sim_backend_test.cc's
// statistical job. Multiproc gets the same x1 treatment in multiproc_test.cc
// (it needs the runnability skip).
TEST(CompactRoutes, EnginesBitIdenticalToDenseTables) {
  constexpr uint64_t kRequests = 200'000;
  for (const BackendKind kind : {BackendKind::kSequential, BackendKind::kSharded}) {
    for (const size_t layers : {size_t{2}, size_t{3}}) {
      for (const bool timeline : {false, true}) {
        SimBackendConfig bcfg = GoldenBackendConfig();
        if (layers == 3) {
          bcfg.cluster.cache_layers.assign(3, LayerSpec{8, 50});
        }
        if (timeline) {
          bcfg.events = FullTimeline();
          bcfg.sample_interval = 40'000;
        }
        const BackendStats compact =
            MakeSimBackend(kind, bcfg)->Run(kRequests);
        SimBackendConfig dense_cfg = bcfg;
        dense_cfg.dense_routes = true;
        const BackendStats dense =
            MakeSimBackend(kind, dense_cfg)->Run(kRequests);
        SCOPED_TRACE((kind == BackendKind::kSequential ? "sequential" : "sharded") +
                     std::string(" L=") + std::to_string(layers) +
                     (timeline ? " timeline" : " static"));
        // Field for field, doubles included: compaction must not change one
        // bit of any statistic.
        ExpectSameStats(compact, dense, StatsScope::kOneShard);
        // The dense build must actually be the pre-compaction layout and the
        // compact one must actually be small — guard against both modes
        // silently collapsing into one.
        EXPECT_GT(dense.route_table_bytes, compact.route_table_bytes);
      }
    }
  }
}

// Property test: the compact table is a strict prefix of the dense one, and
// every rank at or past the prefix is uncached in the dense build with exactly
// the server the placement hash yields — i.e. the branch-free fallback in
// EngineCore::Process reads the same route the dense entry stored.
TEST(CompactRoutes, TailRanksResolveToPlacementServer) {
  SimBackendConfig bcfg = GoldenBackendConfig();
  for (const uint64_t hot_shift : {uint64_t{0}, uint64_t{12'345}}) {
    ClusterModel model(bcfg.cluster);
    const RouteTable compact = BuildRouteTable(model, hot_shift);
    const RouteTable dense = BuildDenseRouteTable(model, hot_shift);
    ASSERT_EQ(dense.entries.size(), model.pool);
    ASSERT_LT(compact.entries.size(), dense.entries.size());
    if (hot_shift == 0) {
      // Identity rotation: the prefix is exactly the allocation's cached span.
      ASSERT_EQ(compact.entries.size(), model.allocation->CachedRankEnd());
    } else if (!compact.entries.empty()) {
      // Rotated rank space: the table ends at the deepest cached *table* rank
      // (a pre-refill shift can legally rotate every cached key out of the
      // pool window, leaving an empty prefix — all-fallback, still correct).
      EXPECT_NE(compact.entries.back().kind, RouteEntry::kUncached);
    }
    // Stored prefix: identical entries (field-wise: the struct has padding
    // bytes memcmp would trip on) and identical overflow runs.
    for (size_t rank = 0; rank < compact.entries.size(); ++rank) {
      const RouteEntry& c = compact.entries[rank];
      const RouteEntry& d = dense.entries[rank];
      ASSERT_TRUE(c.kind == d.kind && c.num == d.num && c.server == d.server &&
                  c.c0 == d.c0 && c.c1 == d.c1)
          << "prefix rank " << rank;
    }
    EXPECT_EQ(compact.overflow, dense.overflow);
    // Computed tail: every dropped entry was uncached with the placement server.
    for (size_t rank = compact.entries.size(); rank < dense.entries.size();
         ++rank) {
      const RouteEntry& e = dense.entries[rank];
      ASSERT_EQ(e.kind, RouteEntry::kUncached) << "rank " << rank;
      ASSERT_EQ(e.num, 0) << "rank " << rank;
      const uint64_t key = KeyOfRank(rank, hot_shift, bcfg.cluster.num_keys);
      ASSERT_EQ(e.server, model.placement.ServerOf(key)) << "rank " << rank;
    }
  }
}

// The memory claim at memory-wall geometry: with a candidate pool that
// approaches the key space and a cached set 100x smaller, the per-snapshot
// bytes drop >= 50x — and the builders reserve exactly (capacity == size, the
// no-doubling-spike fix), so bytes() measures real footprint.
TEST(CompactRoutes, SnapshotBytesDropAtMemwallGeometry) {
  SimBackendConfig bcfg = GoldenBackendConfig();
  bcfg.cluster.num_keys = 4'000'000;
  bcfg.cluster.candidate_pool = 2'000'000;
  ClusterModel model(bcfg.cluster, /*build_popularity=*/false);
  EXPECT_EQ(model.pool, 2'000'000u);
  const RouteTable compact = BuildRouteTable(model);
  const RouteTable dense = BuildDenseRouteTable(model);
  EXPECT_EQ(compact.entries.capacity(), compact.entries.size());
  EXPECT_EQ(compact.overflow.capacity(), compact.overflow.size());
  EXPECT_EQ(dense.entries.capacity(), dense.entries.size());
  EXPECT_GE(dense.bytes(), 50 * compact.bytes())
      << "dense " << dense.bytes() << " B vs compact " << compact.bytes() << " B";
}

// The downward probe the compact build used to run: from the top of the pool,
// drop table ranks until one routes a cached key. O(pool), kept here as the
// reference for the O(cached keys) end computation.
uint64_t ProbedEnd(const ClusterModel& model, uint64_t hot_shift) {
  uint64_t end = model.pool;
  while (end > 0 &&
         !model.allocation
              ->CopiesOf(KeyOfRank(end - 1, hot_shift, model.cfg.num_keys))
              .cached()) {
    --end;
  }
  return end;
}

// The compact end is found from the cached keys: for each, the last table rank
// below the pool that queries it. It must equal the probe for every rotation —
// none, by one, by half and by all but one of the key space, and a shift that
// rotates the hottest cached keys past the pool while the rest stay inside —
// before and after a refill (which ranks keys through the observed index), at
// depth 2 and 3, and for a pool larger than the key space (where a key is
// queried by several table ranks).
TEST(CompactRoutes, EndFromCachedKeysMatchesDownwardProbe) {
  for (const size_t layers : {size_t{2}, size_t{3}}) {
    for (const uint64_t num_keys : {uint64_t{1'000'000}, uint64_t{3'000}}) {
      SimBackendConfig bcfg = GoldenBackendConfig();
      bcfg.cluster.num_keys = num_keys;
      if (layers == 3) {
        bcfg.cluster.cache_layers.assign(3, LayerSpec{8, 50});
      }
      ClusterModel model(bcfg.cluster, /*build_popularity=*/false);
      const uint64_t n = num_keys;
      ASSERT_EQ(model.pool > n, num_keys == 3'000);
      for (const bool refilled : {false, true}) {
        // Post-refill the hot set starts at key n/3; a few duplicates ride
        // along (first occurrence wins), and so does an id outside the key
        // space, which a rotated table never queries.
        const uint64_t hot_base = refilled ? n / 3 : 0;
        if (refilled) {
          std::vector<uint64_t> hottest(model.pool);
          for (uint64_t r = 0; r < hottest.size(); ++r) {
            hottest[r] = (hot_base + r) % n;
          }
          hottest[3] = n + 5;
          hottest[7] = hottest[2];
          hottest[100] = hottest[50];
          model.ReallocateCache(hottest);
        }
        // Rotating by half the cached span wraps the cached keys below it to
        // table ranks near n, past the pool; the keys above it stay inside.
        const uint64_t wrap = hot_base + model.allocation->CachedRankEnd() / 2;
        for (const uint64_t hot_shift : {uint64_t{0}, uint64_t{1}, n / 2, n - 1, wrap}) {
          SCOPED_TRACE("L=" + std::to_string(layers) + " keys=" + std::to_string(n) +
                       (refilled ? " refilled" : "") +
                       " shift=" + std::to_string(hot_shift));
          const RouteTable compact = BuildRouteTable(model, hot_shift);
          EXPECT_EQ(compact.entries.size(), ProbedEnd(model, hot_shift));
          if (n > model.pool && hot_shift == wrap) {
            EXPECT_GT(compact.entries.size(), 0u);
            EXPECT_LT(compact.entries.size(), model.allocation->CachedRankEnd());
          }
        }
      }
    }
  }
}

// The candidate_pool override must leave the *default* auto shape untouched
// (0 = the historical 8x-budget pool every golden pins) and clamp to num_keys.
TEST(CompactRoutes, CandidatePoolOverrideDefaultsAndClamps) {
  SimBackendConfig bcfg = GoldenBackendConfig();
  const ClusterModel auto_model(bcfg.cluster, /*build_popularity=*/false);
  EXPECT_EQ(auto_model.pool, 8u * (8 + 8) * 50);
  bcfg.cluster.candidate_pool = bcfg.cluster.num_keys + 1'000'000;
  const ClusterModel clamped(bcfg.cluster, /*build_popularity=*/false);
  EXPECT_EQ(clamped.pool, bcfg.cluster.num_keys);
}

}  // namespace
}  // namespace distcache
