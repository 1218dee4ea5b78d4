// Multi-layer hierarchy tests for the layer-generic engine stack (§3.1).
//
// Two families:
//  * L=2 golden parity — the layer refactor must be a strict behavioral no-op
//    for the historical spine/leaf deployment: the constants below were captured
//    from the pre-refactor build (same seeds, same configs) and every counter
//    must match exactly, every double bit-for-bit (the refactor changed data
//    layout, never arithmetic or RNG draw order).
//  * L>=3 behavior — the depth the refactor unlocks: sequential/sharded/fluid
//    parity, per-layer budget enforcement, and the full reconfiguration timeline
//    (failure, hot-spot shift, online re-allocation) at three layers.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/cluster_model.h"
#include "sim/route_table.h"
#include "sim/sim_backend.h"
#include "tests/sim/sim_test_util.h"

namespace distcache {
namespace {

// Captured from the pre-refactor (seed) build: sequential engine, 200k requests
// on GoldenCluster(). Integer counters must be exact; the doubles are exact too
// because every load is a sum of binary fractions (1.0, 2.0, 0.25-based costs).
TEST(TwoLayerGolden, SequentialStaticRunMatchesSeedBuild) {
  SimBackendConfig bcfg;
  bcfg.cluster = GoldenCluster();
  const BackendStats st =
      MakeSimBackend(BackendKind::kSequential, bcfg)->Run(200'000);

  EXPECT_EQ(st.reads, 160392u);
  EXPECT_EQ(st.writes, 39608u);
  EXPECT_EQ(st.cache_hits, 70787u);
  EXPECT_EQ(st.spine_hits, 38066u);
  EXPECT_EQ(st.leaf_hits, 32721u);
  EXPECT_EQ(st.server_reads, 89605u);
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_DOUBLE_EQ(st.hit_ratio(), 0.44133747319068284);
  EXPECT_DOUBLE_EQ(st.CacheImbalance(), 1.6673291479820629);
  EXPECT_DOUBLE_EQ(st.ServerImbalance(), 2.418872676205579);
  ASSERT_EQ(st.cache_load.size(), 2u);
  const LoadSummary spine = Summarize(st.spine_load());
  const LoadSummary leaf = Summarize(st.leaf_load());
  const LoadSummary server = Summarize(st.server_load);
  EXPECT_DOUBLE_EQ(spine.sum, 72370.0);
  EXPECT_DOUBLE_EQ(spine.max, 14524.0);
  EXPECT_DOUBLE_EQ(leaf.sum, 67005.0);
  EXPECT_DOUBLE_EQ(leaf.max, 14523.0);
  EXPECT_DOUBLE_EQ(server.sum, 137786.5);
  EXPECT_DOUBLE_EQ(server.max, 10415.25);
}

// The cache-policy layer must be invisible at the default: an explicit
// cache_policy = kDistCache (with the hierarchy/write knobs at their defaults)
// takes the same zero-overhead static path and reproduces the golden above
// bit-for-bit — no extra RNG draws, no perturbed load arithmetic.
TEST(TwoLayerGolden, ExplicitDistCachePolicyKeepsSeedGolden) {
  SimBackendConfig bcfg;
  bcfg.cluster = GoldenCluster();
  bcfg.cluster.cache_policy = CachePolicyKind::kDistCache;
  bcfg.cluster.cache_hierarchy = HierarchyMode::kInclusive;
  bcfg.cluster.write_policy = WritePolicy::kWriteThrough;
  const BackendStats st =
      MakeSimBackend(BackendKind::kSequential, bcfg)->Run(200'000);

  EXPECT_EQ(st.reads, 160392u);
  EXPECT_EQ(st.writes, 39608u);
  EXPECT_EQ(st.cache_hits, 70787u);
  EXPECT_EQ(st.spine_hits, 38066u);
  EXPECT_EQ(st.leaf_hits, 32721u);
  EXPECT_EQ(st.server_reads, 89605u);
  EXPECT_DOUBLE_EQ(st.hit_ratio(), 0.44133747319068284);
  EXPECT_DOUBLE_EQ(st.CacheImbalance(), 1.6673291479820629);
  EXPECT_DOUBLE_EQ(st.ServerImbalance(), 2.418872676205579);
}

// kStaticTopK shares the static contents and the per-request RNG stream with
// kDistCache (the PoT router draws from its own seed, so removing it does not
// shift the request stream): on an event-free run the what-is-cached counters
// must match the golden exactly — only the load *distribution* may differ, and
// it must differ for the worse (serial first-candidate routing concentrates
// load; the PoT spread is the paper's contribution this policy isolates).
TEST(TwoLayerGolden, StaticTopKMatchesDistCacheContentsButNotBalance) {
  SimBackendConfig bcfg;
  bcfg.cluster = GoldenCluster();
  bcfg.cluster.cache_policy = CachePolicyKind::kStaticTopK;
  const BackendStats st =
      MakeSimBackend(BackendKind::kSequential, bcfg)->Run(200'000);

  EXPECT_EQ(st.reads, 160392u);
  EXPECT_EQ(st.writes, 39608u);
  EXPECT_EQ(st.cache_hits, 70787u);
  EXPECT_EQ(st.server_reads, 89605u);
  EXPECT_EQ(st.dropped, 0u);
  // Serial routing sends every two-copy read to the spine copy: the spine/leaf
  // split collapses upward and balance degrades vs the PoT golden (1.667).
  EXPECT_GT(st.spine_hits, 38066u);
  EXPECT_LT(st.leaf_hits, 32721u);
  EXPECT_GT(st.CacheImbalance(), 1.6673291479820629);
}

// Same capture discipline, with the full reconfiguration timeline: two failures,
// controller recovery, a hot-spot shift, an observed-count re-allocation, switch
// restoration, and a workload phase change — the complete §4.4 + §6.4 loop.
TEST(TwoLayerGolden, SequentialTimelineRunMatchesSeedBuild) {
  SimBackendConfig bcfg;
  bcfg.cluster = GoldenCluster();
  bcfg.sample_interval = 40'000;
  bcfg.events = {ClusterEvent::FailSpine(20'000, 0),
                 ClusterEvent::FailSpine(20'000, 1),
                 ClusterEvent::RunRecovery(60'000),
                 ClusterEvent::ShiftHotspot(80'000, 500'000),
                 ClusterEvent::ReallocateCache(100'000),
                 ClusterEvent::RecoverSpine(120'000, 0),
                 ClusterEvent::RecoverSpine(120'000, 1)};
  bcfg.phases = {WorkloadPhase{140'000, 0.9, 0.1, 1234}};
  const BackendStats st =
      MakeSimBackend(BackendKind::kSequential, bcfg)->Run(200'000);

  EXPECT_EQ(st.reads, 166263u);
  EXPECT_EQ(st.writes, 33737u);
  EXPECT_EQ(st.cache_hits, 40050u);
  EXPECT_EQ(st.spine_hits, 18535u);
  EXPECT_EQ(st.leaf_hits, 21515u);
  EXPECT_EQ(st.server_reads, 119785u);
  EXPECT_EQ(st.dropped, 8473u);
  EXPECT_DOUBLE_EQ(st.hit_ratio(), 0.24088341964237384);
  EXPECT_DOUBLE_EQ(st.CacheImbalance(), 1.5254139744159887);
  EXPECT_DOUBLE_EQ(st.ServerImbalance(), 1.4645623367675571);

  const uint64_t golden_series[5][5] = {
      // requests, delivered, dropped, reads, cache_hits
      {40'000, 35'847, 4'153, 31'835, 13'074},
      {40'000, 35'680, 4'320, 32'091, 13'138},
      {40'000, 40'000, 0, 32'172, 6'887},
      {40'000, 40'000, 0, 34'121, 6'951},
      {40'000, 40'000, 0, 36'044, 0},
  };
  ASSERT_EQ(st.series.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(st.series[i].requests, golden_series[i][0]) << i;
    EXPECT_EQ(st.series[i].delivered, golden_series[i][1]) << i;
    EXPECT_EQ(st.series[i].dropped, golden_series[i][2]) << i;
    EXPECT_EQ(st.series[i].reads, golden_series[i][3]) << i;
    EXPECT_EQ(st.series[i].cache_hits, golden_series[i][4]) << i;
  }
}

// The fluid engine went through the same generalization; its analytic numbers
// must also match the seed build exactly.
TEST(TwoLayerGolden, FluidStaticRunMatchesSeedBuild) {
  SimBackendConfig bcfg;
  bcfg.cluster = GoldenCluster();
  const BackendStats st = MakeSimBackend(BackendKind::kFluid, bcfg)->Run(200'000);
  EXPECT_EQ(st.reads, 160000u);
  EXPECT_EQ(st.cache_hits, 70678u);
  EXPECT_DOUBLE_EQ(st.hit_ratio(), 0.44173750000000001);
  EXPECT_DOUBLE_EQ(st.CacheImbalance(), 1.8615175922618381);
  EXPECT_DOUBLE_EQ(st.ServerImbalance(), 2.4594788041275812);
}

// An explicit {spine, leaf} LayerSpec vector is the same deployment as the
// legacy num_spine/num_racks fields: stats must agree bit for bit.
TEST(TwoLayerGolden, ExplicitLayerVectorMatchesLegacyShape) {
  SimBackendConfig legacy;
  legacy.cluster = GoldenCluster();
  SimBackendConfig layered = legacy;
  layered.cluster.cache_layers = {{8, 50}, {8, 50}};

  const BackendStats a =
      MakeSimBackend(BackendKind::kSequential, legacy)->Run(100'000);
  const BackendStats b =
      MakeSimBackend(BackendKind::kSequential, layered)->Run(100'000);
  ExpectSameStats(a, b, StatsScope::kOneShard);
}

ClusterConfig ThreeLayerCluster() {
  ClusterConfig cfg;
  cfg.num_spine = 16;
  cfg.num_racks = 16;
  cfg.servers_per_rack = 8;
  cfg.num_keys = 2'000'000;
  cfg.zipf_theta = 0.99;
  cfg.seed = 42;
  cfg.cache_layers = {{16, 66}, {16, 66}, {16, 66}};
  return cfg;
}

// Per-layer budgets and the one-copy-per-layer rule hold at depth 3, and every
// head key's candidates stack up exactly as CopiesOf reports.
TEST(ThreeLayer, AllocationRespectsPerLayerBudgets) {
  const ClusterConfig cfg = ThreeLayerCluster();
  ClusterModel model(cfg);
  EXPECT_EQ(model.allocation->num_layers(), 3u);
  for (size_t l = 0; l < 3; ++l) {
    for (const auto& contents : model.allocation->layer_contents(l)) {
      EXPECT_LE(contents.size(), 66u);
    }
  }
  size_t multi_copy = 0;
  for (uint64_t key = 0; key < 50; ++key) {
    const CacheCopies copies = model.allocation->CopiesOf(key);
    uint32_t last_layer = 0;
    for (uint8_t i = 0; i < copies.num; ++i) {
      if (i > 0) {
        EXPECT_GT(copies.nodes[i].layer, last_layer);  // ascending, one per layer
      }
      last_layer = copies.nodes[i].layer;
    }
    multi_copy += copies.num == 3 ? 1 : 0;
  }
  // The globally hottest keys are at the top of all three rankings.
  EXPECT_GE(multi_copy, 40u);
}

TEST(ThreeLayer, SequentialShardedFluidParity) {
  SimBackendConfig bcfg;
  bcfg.cluster = ThreeLayerCluster();
  const BackendStats seq =
      MakeSimBackend(BackendKind::kSequential, bcfg)->Run(400'000);
  bcfg.shards = 4;
  const BackendStats shd =
      MakeSimBackend(BackendKind::kSharded, bcfg)->Run(400'000);
  const BackendStats fluid =
      MakeSimBackend(BackendKind::kFluid, bcfg)->Run(400'000);

  EXPECT_GT(seq.hit_ratio(), 0.4);
  EXPECT_NEAR(shd.hit_ratio() / seq.hit_ratio(), 1.0, 0.015);
  EXPECT_NEAR(seq.hit_ratio() / fluid.hit_ratio(), 1.0, 0.02);
  EXPECT_NEAR(shd.CacheImbalance() / seq.CacheImbalance(), 1.0, 0.05);
  ASSERT_EQ(seq.cache_load.size(), 3u);
  ASSERT_EQ(shd.cache_load.size(), 3u);
  // Every layer absorbs real traffic (the mid layer is not a dead pass-through).
  for (size_t l = 0; l < 3; ++l) {
    double seq_layer = 0.0;
    double shd_layer = 0.0;
    for (double x : seq.cache_load[l]) seq_layer += x;
    for (double x : shd.cache_load[l]) shd_layer += x;
    EXPECT_GT(seq_layer, 0.0) << "layer " << l;
    EXPECT_NEAR(shd_layer / seq_layer, 1.0, 0.05) << "layer " << l;
  }
}

// The full reconfiguration timeline at L=3: spine failures blackhole, the
// controller remaps, the hot set shifts, the observed-count re-allocation
// restores the hit ratio, and the switches return home — same semantics as the
// two-layer Fig. 11 / §6.4 loop, now over a three-layer hierarchy.
TEST(ThreeLayer, FailureShiftReallocTimeline) {
  SimBackendConfig bcfg;
  bcfg.cluster = ThreeLayerCluster();
  const uint64_t requests = 1'000'000;
  bcfg.sample_interval = requests / 10;
  bcfg.events = {ClusterEvent::FailSpine(requests * 1 / 10, 0),
                 ClusterEvent::FailSpine(requests * 1 / 10, 1),
                 ClusterEvent::RunRecovery(requests * 3 / 10),
                 ClusterEvent::RecoverSpine(requests * 4 / 10, 0),
                 ClusterEvent::RecoverSpine(requests * 4 / 10, 1),
                 ClusterEvent::ShiftHotspot(requests * 5 / 10, 1'000'000),
                 ClusterEvent::ReallocateCache(requests * 7 / 10)};

  for (const BackendKind kind : {BackendKind::kSequential, BackendKind::kSharded}) {
    bcfg.shards = kind == BackendKind::kSharded ? 4 : 1;
    const BackendStats st = MakeSimBackend(kind, bcfg)->Run(requests);
    ASSERT_EQ(st.series.size(), 10u);
    const double pre = st.series[0].hit_ratio();
    EXPECT_GT(pre, 0.4);
    // Failure window (intervals 1-2): ECMP transit through 2/16 dead spines
    // drops requests.
    EXPECT_GT(st.series[1].dropped + st.series[2].dropped, 0u);
    // Post-remap, pre-shift: delivery restored.
    EXPECT_EQ(st.series[4].dropped, 0u);
    // Shift window (intervals 5-6): the cached set went cold.
    EXPECT_LT(st.series[6].hit_ratio(), 0.1 * pre);
    // Re-allocation (interval 7+): the observed hot set is cached again.
    EXPECT_GT(st.series[9].hit_ratio(), 0.9 * pre);
    EXPECT_GT(st.dropped, 0u);
  }
}

// Deliberate fix over the seed build (documented in CHANGES.md): a
// CacheReplication key crowded out of its rack's leaf budget used to route and
// charge a phantom "leaf 0" copy; its route entry now carries a leaf candidate
// only when the copy exists.
TEST(Replication, KeysWithoutLeafCopyHaveNoLeafCandidate) {
  ClusterConfig cfg;
  cfg.mechanism = Mechanism::kCacheReplication;
  cfg.num_spine = 4;
  cfg.num_racks = 4;
  cfg.servers_per_rack = 2;
  cfg.num_keys = 100'000;
  // Leaf budget far below the replicated set: some of the 40 globally hottest
  // keys cannot get a leaf copy.
  cfg.cache_layers = {{4, 40}, {4, 4}};
  ClusterModel model(cfg);
  const RouteTable routes = BuildRouteTable(model);
  int without_leaf = 0;
  for (uint64_t rank = 0; rank < 40; ++rank) {
    const RouteEntry& e = routes.entries[rank];
    ASSERT_EQ(e.kind, RouteEntry::kReplicated) << rank;
    const CacheCopies copies = model.allocation->CopiesOf(rank);
    if (copies.leaf()) {
      ASSERT_EQ(e.num, 1u) << rank;
      EXPECT_EQ(UnpackCandidate(e.c0).layer, 1u) << rank;
    } else {
      EXPECT_EQ(e.num, 0u) << rank;  // no phantom leaf-0 candidate
      ++without_leaf;
    }
  }
  EXPECT_GT(without_leaf, 0);

  // The engine path over such entries must run clean (reads spread over the
  // spine replicas only; writes touch only real copies).
  SimBackendConfig bcfg;
  bcfg.cluster = cfg;
  bcfg.cluster.write_ratio = 0.2;
  const BackendStats st =
      MakeSimBackend(BackendKind::kSequential, bcfg)->Run(100'000);
  EXPECT_GT(st.hit_ratio(), 0.0);
  EXPECT_EQ(st.dropped, 0u);
}

// Depth sweep sanity: at a fixed total budget the hit ratio is budget-bound
// (roughly depth-independent) and balance does not degrade with depth.
TEST(MultiLayer, DepthSweepKeepsBalance) {
  SimBackendConfig two;
  two.cluster = ThreeLayerCluster();
  two.cluster.cache_layers = {{16, 100}, {16, 100}};
  SimBackendConfig four;
  four.cluster = ThreeLayerCluster();
  four.cluster.cache_layers = {{16, 50}, {16, 50}, {16, 50}, {16, 50}};

  const BackendStats l2 = MakeSimBackend(BackendKind::kSequential, two)->Run(300'000);
  const BackendStats l4 =
      MakeSimBackend(BackendKind::kSequential, four)->Run(300'000);
  EXPECT_NEAR(l4.hit_ratio() / l2.hit_ratio(), 1.0, 0.1);
  EXPECT_LT(l4.CacheImbalance(), l2.CacheImbalance() * 1.2);
}

}  // namespace
}  // namespace distcache
