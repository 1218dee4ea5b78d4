// Multi-process backend tests (sim/multiproc_backend.h):
//
//  * x1 bit-identity — a one-process multiproc run exchanges no messages, so it
//    must reproduce the in-process sharded engine's golden pins bit for bit
//    (the same constants scaling_test.cc pins, static and full-timeline): the
//    substrate swap — fork, arena rings, stats codec — is a strict behavioral
//    no-op for the simulated cluster.
//  * multi-process parity — hit ratio, balance and drop counters agree across
//    1, 2 and 4 shard processes within the same statistical tolerance as the
//    in-process engine (telemetry arrival timing is scheduling-dependent by
//    design, now across processes).
//  * crash isolation — a shard process SIGKILLed mid-run must be detected by
//    the supervisor: the run returns (never hangs) with the survivors' partial
//    stats and failed_shards reporting the dead shard.
//  * dynamic cache policies — an LRU run over the full timeline goes through
//    the same arena re-allocation rendezvous as the static policies and must
//    match the in-process engine at x1 field for field.
//  * stats codec — the arena hand-off format round-trips BackendStats exactly,
//    doubles bit for bit, and rejects truncated or mutated buffers.
//
// Everything that forks is skipped under TSan (TSan's runtime does not follow
// fork-without-exec children; the in-process engines keep TSan coverage of the
// shared ring/transport logic) and on hosts where the arena cannot be mapped.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/random.h"
#include "runtime/fault_plan.h"
#include "sim/multiproc_backend.h"
#include "sim/sim_backend.h"
#include "sim/stats_codec.h"

#if defined(__SANITIZE_THREAD__)
#define DISTCACHE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DISTCACHE_TSAN 1
#endif
#endif

namespace distcache {
namespace {

bool MultiprocRunnable() {
#if defined(DISTCACHE_TSAN)
  return false;
#else
  return MultiprocBackend::Supported();
#endif
}

#define SKIP_UNLESS_MULTIPROC_RUNNABLE()                                  \
  do {                                                                    \
    if (!MultiprocRunnable()) {                                           \
      GTEST_SKIP() << "multiproc backend not runnable here (TSan build, " \
                      "non-Linux, or shm arena unavailable)";             \
    }                                                                     \
  } while (0)

// The scaling_test.cc golden cluster (8 spines, 8 racks, 4 servers/rack, 1M
// keys, zipf 0.99, 20% writes, seed 42) and batch size — the bit-level pins
// are only valid at the batch size they were captured under.
SimBackendConfig GoldenBackendConfig(uint32_t shards) {
  SimBackendConfig bcfg;
  bcfg.cluster.num_spine = 8;
  bcfg.cluster.num_racks = 8;
  bcfg.cluster.servers_per_rack = 4;
  bcfg.cluster.per_switch_objects = 50;
  bcfg.cluster.num_keys = 1'000'000;
  bcfg.cluster.zipf_theta = 0.99;
  bcfg.cluster.write_ratio = 0.2;
  bcfg.cluster.seed = 42;
  bcfg.shards = shards;
  bcfg.batch_size = 64;
  return bcfg;
}

std::vector<ClusterEvent> FullTimeline() {
  return {ClusterEvent::FailSpine(40'000, 2), ClusterEvent::RunRecovery(60'000),
          ClusterEvent::ShiftHotspot(90'000, 12'345),
          ClusterEvent::ReallocateCache(120'000),
          ClusterEvent::RecoverSpine(150'000, 2)};
}

struct LoadSummary {
  double sum = 0.0;
  double max = 0.0;
};

LoadSummary Summarize(const std::vector<double>& loads) {
  LoadSummary s;
  for (double x : loads) {
    s.sum += x;
    s.max = std::max(s.max, x);
  }
  return s;
}

// The exact constants ShardedGolden.SingleShardStaticRunMatchesPreRefactorBuild
// pins for the in-process engine: one substrate's goldens are the other's.
TEST(MultiprocGolden, SingleProcessStaticRunMatchesShardedGolden) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  const BackendStats st =
      MakeSimBackend(BackendKind::kMultiproc, GoldenBackendConfig(1))
          ->Run(200'000);

  EXPECT_EQ(st.reads, 159921u);
  EXPECT_EQ(st.writes, 40079u);
  EXPECT_EQ(st.cache_hits, 70684u);
  EXPECT_EQ(st.spine_hits, 37907u);
  EXPECT_EQ(st.leaf_hits, 32777u);
  EXPECT_EQ(st.server_reads, 89237u);
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_EQ(st.failed_shards, 0u);
  EXPECT_DOUBLE_EQ(st.hit_ratio(), 0.4419932341593662);
  EXPECT_DOUBLE_EQ(st.CacheImbalance(), 1.6847555511301404);
  EXPECT_DOUBLE_EQ(st.ServerImbalance(), 2.463468562519127);
  const LoadSummary spine = Summarize(st.spine_load());
  const LoadSummary leaf = Summarize(st.leaf_load());
  const LoadSummary server = Summarize(st.server_load);
  EXPECT_DOUBLE_EQ(spine.sum, 72909.0);
  EXPECT_DOUBLE_EQ(spine.max, 14805.0);
  EXPECT_DOUBLE_EQ(leaf.sum, 67693.0);
  EXPECT_DOUBLE_EQ(leaf.max, 14805.0);
  EXPECT_DOUBLE_EQ(server.sum, 138055.75);
  EXPECT_DOUBLE_EQ(server.max, 10628.0);
  // One process: nothing crosses the arena.
  EXPECT_EQ(st.cross_shard_messages, 0u);
  EXPECT_EQ(st.ring_messages, 0u);
  EXPECT_EQ(st.contended_receives, 0u);
}

// And the full failure+shift+realloc timeline pins: the locally-queued
// timeline and the arena realloc rendezvous must collapse, at one process, to
// exactly the in-process controller's computation.
TEST(MultiprocGolden, SingleProcessTimelineRunMatchesShardedGolden) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  SimBackendConfig bcfg = GoldenBackendConfig(1);
  bcfg.events = FullTimeline();
  bcfg.sample_interval = 40'000;
  const BackendStats st =
      MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(200'000);

  EXPECT_EQ(st.reads, 159917u);
  EXPECT_EQ(st.writes, 40083u);
  EXPECT_EQ(st.cache_hits, 59286u);
  EXPECT_EQ(st.spine_hits, 28850u);
  EXPECT_EQ(st.leaf_hits, 30436u);
  EXPECT_EQ(st.server_reads, 98995u);
  EXPECT_EQ(st.dropped, 2148u);
  EXPECT_DOUBLE_EQ(st.hit_ratio(), 0.37072981609209776);
  EXPECT_DOUBLE_EQ(st.CacheImbalance(), 1.285477107402653);
  EXPECT_DOUBLE_EQ(st.ServerImbalance(), 1.7278636677037489);
  const LoadSummary spine = Summarize(st.spine_load());
  const LoadSummary leaf = Summarize(st.leaf_load());
  const LoadSummary server = Summarize(st.server_load);
  EXPECT_DOUBLE_EQ(spine.sum, 57452.0);
  EXPECT_DOUBLE_EQ(spine.max, 9387.0);
  EXPECT_DOUBLE_EQ(leaf.sum, 59398.0);
  EXPECT_DOUBLE_EQ(leaf.max, 9388.0);
  EXPECT_DOUBLE_EQ(server.sum, 145761.5);
  EXPECT_DOUBLE_EQ(server.max, 7870.5);
  // The series geometry survives the codec hand-off (200k / 40k intervals).
  EXPECT_EQ(st.series.size(), 5u);
}

// Belt and braces beyond the pinned constants: whatever the in-process engine
// computes at x1 today — including future legitimate golden updates — the
// multiproc substrate must match it field for field.
TEST(MultiprocGolden, SingleProcessTracksInProcessShardedExactly) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  SimBackendConfig bcfg = GoldenBackendConfig(1);
  bcfg.events = FullTimeline();
  bcfg.sample_interval = 50'000;
  bcfg.queue.arrival.rate = 24.0;  // open-loop: exercises the latency path
  const BackendStats sharded =
      MakeSimBackend(BackendKind::kSharded, bcfg)->Run(150'000);
  const BackendStats multiproc =
      MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(150'000);

  EXPECT_EQ(multiproc.requests, sharded.requests);
  EXPECT_EQ(multiproc.reads, sharded.reads);
  EXPECT_EQ(multiproc.cache_hits, sharded.cache_hits);
  EXPECT_EQ(multiproc.spine_hits, sharded.spine_hits);
  EXPECT_EQ(multiproc.server_reads, sharded.server_reads);
  EXPECT_EQ(multiproc.dropped, sharded.dropped);
  ASSERT_EQ(multiproc.cache_load.size(), sharded.cache_load.size());
  for (size_t l = 0; l < sharded.cache_load.size(); ++l) {
    ASSERT_EQ(multiproc.cache_load[l].size(), sharded.cache_load[l].size());
    for (size_t i = 0; i < sharded.cache_load[l].size(); ++i) {
      EXPECT_EQ(multiproc.cache_load[l][i], sharded.cache_load[l][i])
          << "layer " << l << " node " << i;  // bit-exact, not NEAR
    }
  }
  EXPECT_EQ(multiproc.latency.total(), sharded.latency.total());
  EXPECT_EQ(multiproc.latency.finite_sum(), sharded.latency.finite_sum());
  ASSERT_EQ(multiproc.series.size(), sharded.series.size());
  for (size_t i = 0; i < sharded.series.size(); ++i) {
    EXPECT_EQ(multiproc.series[i].requests, sharded.series[i].requests);
    EXPECT_EQ(multiproc.series[i].cache_hits, sharded.series[i].cache_hits);
  }
}

// Shard-process parity on the full timeline, mirroring the in-process
// tolerance test: the process substrate must not change what the cluster does.
TEST(MultiprocScaling, TimelineStatsParityAcross124Processes) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  constexpr uint64_t kRequests = 400'000;
  std::vector<BackendStats> runs;
  for (uint32_t shards : {1u, 2u, 4u}) {
    SimBackendConfig bcfg = GoldenBackendConfig(shards);
    bcfg.events = FullTimeline();
    runs.push_back(
        MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(kRequests));
  }
  const BackendStats& ref = runs.front();
  ASSERT_GT(ref.hit_ratio(), 0.2);
  ASSERT_GT(ref.dropped, 0u);
  for (size_t i = 1; i < runs.size(); ++i) {
    const BackendStats& st = runs[i];
    EXPECT_EQ(st.requests, kRequests);
    EXPECT_EQ(st.failed_shards, 0u);
    EXPECT_NEAR(st.hit_ratio(), ref.hit_ratio(), 0.02) << "shards run " << i;
    EXPECT_NEAR(st.CacheImbalance(), ref.CacheImbalance(),
                0.12 * ref.CacheImbalance())
        << "shards run " << i;
    const double drop_ref = static_cast<double>(ref.dropped);
    EXPECT_NEAR(static_cast<double>(st.dropped), drop_ref, 0.15 * drop_ref)
        << "shards run " << i;
  }
}

// A dynamic cache policy over the full timeline (fail, recovery, shift,
// re-allocation): the re-allocation runs through the same arena rendezvous as
// for static policies. At x1 every field must equal the in-process engine's;
// at x2 the run must complete with every request accounted for.
TEST(MultiprocPolicy, LruTimelineMatchesShardedAtOneAndCompletesAtTwo) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  constexpr uint64_t kRequests = 200'000;
  SimBackendConfig bcfg = GoldenBackendConfig(1);
  bcfg.cluster.cache_policy = CachePolicyKind::kLru;
  bcfg.cluster.cache_hierarchy = HierarchyMode::kInclusive;
  bcfg.cluster.write_policy = WritePolicy::kWriteThrough;
  bcfg.events = FullTimeline();
  bcfg.sample_interval = 40'000;
  const BackendStats sharded =
      MakeSimBackend(BackendKind::kSharded, bcfg)->Run(kRequests);
  const BackendStats multiproc =
      MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(kRequests);

  ASSERT_GT(sharded.hit_ratio(), 0.2);
  EXPECT_EQ(multiproc.failed_shards, 0u);
  EXPECT_EQ(multiproc.requests, sharded.requests);
  EXPECT_EQ(multiproc.reads, sharded.reads);
  EXPECT_EQ(multiproc.writes, sharded.writes);
  EXPECT_EQ(multiproc.cache_hits, sharded.cache_hits);
  EXPECT_EQ(multiproc.spine_hits, sharded.spine_hits);
  EXPECT_EQ(multiproc.leaf_hits, sharded.leaf_hits);
  EXPECT_EQ(multiproc.server_reads, sharded.server_reads);
  EXPECT_EQ(multiproc.cache_write_hits, sharded.cache_write_hits);
  EXPECT_EQ(multiproc.writebacks, sharded.writebacks);
  EXPECT_EQ(multiproc.dropped, sharded.dropped);
  EXPECT_EQ(multiproc.cache_load, sharded.cache_load);  // bit-exact doubles
  EXPECT_EQ(multiproc.server_load, sharded.server_load);
  ASSERT_EQ(multiproc.series.size(), sharded.series.size());
  for (size_t i = 0; i < sharded.series.size(); ++i) {
    EXPECT_EQ(multiproc.series[i].requests, sharded.series[i].requests);
    EXPECT_EQ(multiproc.series[i].delivered, sharded.series[i].delivered);
    EXPECT_EQ(multiproc.series[i].dropped, sharded.series[i].dropped);
    EXPECT_EQ(multiproc.series[i].reads, sharded.series[i].reads);
    EXPECT_EQ(multiproc.series[i].cache_hits, sharded.series[i].cache_hits);
  }

  bcfg.shards = 2;
  const BackendStats two =
      MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(kRequests);
  EXPECT_EQ(two.failed_shards, 0u);
  EXPECT_EQ(two.requests, kRequests);
  EXPECT_EQ(two.reads + two.writes, kRequests);
}

// The crash-isolation contract: SIGKILL one shard process mid-run. The
// supervisor must reap the corpse, wind the survivors down via the abort flag,
// merge their *partial* stats, and report the dead shard — never hang on the
// quota-end rendezvous.
TEST(MultiprocCrash, KilledShardIsReportedAndSurvivorsReturnPartialStats) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  constexpr uint64_t kRequests = 400'000;
  MultiprocBackend backend(GoldenBackendConfig(2));
  backend.TestCrashShardAt(/*shard=*/1, /*after_requests=*/10'000);
  const BackendStats st = backend.Run(kRequests);

  EXPECT_EQ(st.failed_shards, 1u);
  // The survivor's full quota is merged; the dead shard contributes nothing.
  EXPECT_GE(st.requests, kRequests / 2);
  EXPECT_LT(st.requests, kRequests);
  EXPECT_GT(st.reads + st.writes, 0u);
}

TEST(MultiprocCrash, CrashDuringReallocateRendezvousDoesNotHang) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  // The dead shard (killed at 10k) never reaches the re-allocation rendezvous
  // at 120k — the survivor would wait for its report forever if the abort flag
  // were not checked inside the rendezvous wait.
  constexpr uint64_t kRequests = 400'000;
  SimBackendConfig bcfg = GoldenBackendConfig(2);
  bcfg.events = FullTimeline();
  MultiprocBackend backend(bcfg);
  backend.TestCrashShardAt(/*shard=*/0, /*after_requests=*/10'000);
  const BackendStats st = backend.Run(kRequests);

  EXPECT_EQ(st.failed_shards, 1u);
  EXPECT_LT(st.requests, kRequests);  // survivor wound down early or finished
}

// The compact-vs-dense leg for this substrate (route_compact_test.cc covers
// the in-process engines): a dense-table multiproc run must reproduce the same
// timeline pins as the compact default — the fallback branch and the stored
// tail entry are bit-identical routes.
TEST(MultiprocGolden, DenseRoutesTimelineRunMatchesCompactPins) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  SimBackendConfig bcfg = GoldenBackendConfig(1);
  bcfg.events = FullTimeline();
  bcfg.dense_routes = true;
  const BackendStats st =
      MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(200'000);
  EXPECT_EQ(st.reads, 159917u);
  EXPECT_EQ(st.writes, 40083u);
  EXPECT_EQ(st.cache_hits, 59286u);
  EXPECT_EQ(st.spine_hits, 28850u);
  EXPECT_EQ(st.leaf_hits, 30436u);
  EXPECT_EQ(st.server_reads, 98995u);
  EXPECT_EQ(st.dropped, 2148u);
  EXPECT_DOUBLE_EQ(st.hit_ratio(), 0.37072981609209776);
  EXPECT_DOUBLE_EQ(st.CacheImbalance(), 1.285477107402653);
  EXPECT_DOUBLE_EQ(st.ServerImbalance(), 1.7278636677037489);
}

// Memory accounting fields (PR 9): a multiproc run reports its peak RSS, the
// one shared arena, and the per-process sampler; the route tables live in the
// arena, so the per-process route figure is zero by design.
TEST(MultiprocMemory, RunReportsArenaAndRssBytes) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  SimBackendConfig bcfg = GoldenBackendConfig(2);
  bcfg.events = FullTimeline();
  const BackendStats st = MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(200'000);
  EXPECT_EQ(st.failed_shards, 0u);
  EXPECT_GT(st.peak_rss_bytes, 0u);
  EXPECT_GT(st.arena_bytes, 0u);
  EXPECT_GT(st.sampler_bytes, 0u);
  EXPECT_EQ(st.route_table_bytes, 0u);  // arena-resident, counted in arena_bytes
  EXPECT_EQ(st.respawned_shards, 0u);
}

// ---- respawn ---------------------------------------------------------------

TEST(MultiprocRespawn, KilledShardIsRespawnedAndTheRunCompletes) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  constexpr uint64_t kRequests = 400'000;
  SimBackendConfig bcfg = GoldenBackendConfig(2);
  bcfg.respawn = true;
  MultiprocBackend backend(bcfg);
  backend.TestCrashShardAt(/*shard=*/1, /*after_requests=*/10'000);
  const BackendStats st = backend.Run(kRequests);

  // The second incarnation re-joins from the arena-resident plan, re-runs its
  // quota from the start of its deterministic stream, and the run completes in
  // full: no failed shards, every request accounted for exactly once.
  EXPECT_EQ(st.failed_shards, 0u);
  EXPECT_EQ(st.respawned_shards, 1u);
  EXPECT_EQ(st.requests, kRequests);
  EXPECT_EQ(st.reads + st.writes, kRequests);
}

TEST(MultiprocRespawn, RespawnedControllerShardSurvivesReallocRendezvous) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  // Kill shard 0 — the realloc controller — before the rendezvous at 120k. The
  // respawned incarnation must republish its (idempotent, deterministic)
  // heavy-hitter report, rerun the controller computation, and publish the
  // rebuilt tables; the peer must neither hang nor observe torn state.
  constexpr uint64_t kRequests = 400'000;
  SimBackendConfig bcfg = GoldenBackendConfig(2);
  bcfg.events = FullTimeline();
  bcfg.respawn = true;
  MultiprocBackend backend(bcfg);
  backend.TestCrashShardAt(/*shard=*/0, /*after_requests=*/10'000);
  const BackendStats st = backend.Run(kRequests);

  EXPECT_EQ(st.failed_shards, 0u);
  EXPECT_EQ(st.respawned_shards, 1u);
  EXPECT_EQ(st.requests, kRequests);
}

// ---- stats codec -----------------------------------------------------------

TEST(StatsCodec, RoundTripsARealRunBitForBit) {
  // A real open-loop timeline run populates every field: counters, loads,
  // latency histogram, interval series with per-interval histograms.
  SimBackendConfig bcfg = GoldenBackendConfig(1);
  bcfg.events = FullTimeline();
  bcfg.sample_interval = 40'000;
  bcfg.queue.arrival.rate = 24.0;
  const BackendStats st =
      MakeSimBackend(BackendKind::kSequential, bcfg)->Run(200'000);
  ASSERT_FALSE(st.latency.empty());
  ASSERT_FALSE(st.series.empty());

  const size_t bound = StatsCodecBound(
      st.cache_load.size(),
      st.cache_load.empty() ? 0 : st.cache_load.size() * st.cache_load[0].size(),
      st.server_load.size(), st.series.size());
  std::vector<uint8_t> buf(bound);
  const size_t len = SerializeBackendStats(st, buf.data(), buf.size());
  ASSERT_GT(len, 0u);
  ASSERT_LE(len, bound);

  BackendStats rt;
  ASSERT_TRUE(DeserializeBackendStats(buf.data(), len, &rt));
  EXPECT_EQ(rt.requests, st.requests);
  EXPECT_EQ(rt.reads, st.reads);
  EXPECT_EQ(rt.writes, st.writes);
  EXPECT_EQ(rt.cache_hits, st.cache_hits);
  EXPECT_EQ(rt.spine_hits, st.spine_hits);
  EXPECT_EQ(rt.leaf_hits, st.leaf_hits);
  EXPECT_EQ(rt.server_reads, st.server_reads);
  EXPECT_EQ(rt.dropped, st.dropped);
  EXPECT_EQ(rt.failed_shards, st.failed_shards);
  // Memory fields (PR 9): a real sequential run stamps RSS, table and sampler
  // bytes — they must survive the hand-off too.
  EXPECT_GT(st.peak_rss_bytes, 0u);
  EXPECT_GT(st.route_table_bytes, 0u);
  EXPECT_GT(st.sampler_bytes, 0u);
  EXPECT_EQ(rt.peak_rss_bytes, st.peak_rss_bytes);
  EXPECT_EQ(rt.route_table_bytes, st.route_table_bytes);
  EXPECT_EQ(rt.sampler_bytes, st.sampler_bytes);
  EXPECT_EQ(rt.arena_bytes, st.arena_bytes);
  EXPECT_EQ(rt.respawned_shards, st.respawned_shards);
  EXPECT_EQ(rt.wall_seconds, st.wall_seconds);  // == : bit-exact double
  ASSERT_EQ(rt.cache_load.size(), st.cache_load.size());
  for (size_t l = 0; l < st.cache_load.size(); ++l) {
    ASSERT_EQ(rt.cache_load[l], st.cache_load[l]);  // element bit-exact
  }
  EXPECT_EQ(rt.server_load, st.server_load);
  EXPECT_EQ(rt.latency.counts(), st.latency.counts());
  EXPECT_EQ(rt.latency.total(), st.latency.total());
  EXPECT_EQ(rt.latency.infinite(), st.latency.infinite());
  EXPECT_EQ(rt.latency.finite_sum(), st.latency.finite_sum());
  ASSERT_EQ(rt.series.size(), st.series.size());
  for (size_t i = 0; i < st.series.size(); ++i) {
    EXPECT_EQ(rt.series[i].requests, st.series[i].requests);
    EXPECT_EQ(rt.series[i].delivered, st.series[i].delivered);
    EXPECT_EQ(rt.series[i].dropped, st.series[i].dropped);
    EXPECT_EQ(rt.series[i].reads, st.series[i].reads);
    EXPECT_EQ(rt.series[i].cache_hits, st.series[i].cache_hits);
    EXPECT_EQ(rt.series[i].latency.counts(), st.series[i].latency.counts());
    EXPECT_EQ(rt.series[i].latency.finite_sum(),
              st.series[i].latency.finite_sum());
  }
}

TEST(StatsCodec, RejectsTruncatedBuffersWithoutCrashing) {
  BackendStats st;
  st.requests = 123;
  st.respawned_shards = 2;
  st.arena_bytes = 1u << 20;
  st.cache_load = {{1.0, 2.0}, {3.0}};
  st.server_load = {4.0, 5.0};
  std::vector<uint8_t> buf(StatsCodecBound(2, 3, 2, 0));
  const size_t len = SerializeBackendStats(st, buf.data(), buf.size());
  ASSERT_GT(len, 0u);

  BackendStats out;
  for (size_t cut : {size_t{0}, size_t{1}, size_t{7}, len / 2, len - 1}) {
    EXPECT_FALSE(DeserializeBackendStats(buf.data(), cut, &out))
        << "accepted a " << cut << "-byte truncation of " << len;
    EXPECT_EQ(out.requests, 0u);  // value-initialized on failure
  }
  ASSERT_TRUE(DeserializeBackendStats(buf.data(), len, &out));
  EXPECT_EQ(out.requests, 123u);
  EXPECT_EQ(out.respawned_shards, 2u);
  EXPECT_EQ(out.arena_bytes, 1u << 20);

  // And a too-small serialize target reports 0, never a partial write claim.
  std::vector<uint8_t> tiny(8);
  EXPECT_EQ(SerializeBackendStats(st, tiny.data(), tiny.size()), 0u);
}

// Seeded mutation of real arena blobs. The supervisor deserializes bytes a
// child process wrote, so the reader must survive any damage: every mutated
// blob either fails to parse (leaving empty stats) or parses into vectors no
// larger than its bytes can hold — never a crash or a length-word-sized
// allocation. The blob comes from a two-process timeline run with open-loop
// latency (per-interval histograms) and injected faults (a fault series).
// Three mutation classes: a random byte flip at every position, truncation at
// every length, and every 8-byte word (the length words among them) set to
// huge values.
size_t PayloadBytes(const BackendStats& st) {
  size_t bytes = st.server_load.size() * sizeof(double) +
                 st.latency.counts().size() * sizeof(uint64_t) +
                 st.fault_events.size() * 16;
  for (const std::vector<double>& layer : st.cache_load) {
    bytes += layer.size() * sizeof(double);
  }
  for (const BackendStats::IntervalPoint& pt : st.series) {
    bytes += 5 * sizeof(uint64_t) + pt.latency.counts().size() * sizeof(uint64_t);
  }
  return bytes;
}

// Parses the first `len` bytes of `blob`; returns whether they parsed.
bool ExpectSafeParse(const std::vector<uint8_t>& blob, size_t len,
                     const BackendStats& original, const char* what,
                     size_t at) {
  BackendStats out;
  if (!DeserializeBackendStats(blob.data(), len, &out)) {
    EXPECT_TRUE(out.cache_load.empty() && out.server_load.empty() &&
                out.series.empty() && out.fault_events.empty() &&
                out.latency.empty())
        << what << " at " << at << ": rejected blob left partial stats";
    return false;
  }
  EXPECT_LE(PayloadBytes(out), len) << what << " at " << at;
  // Whatever parsed must be safe to consume the way the supervisor does.
  BackendStats merged = original;
  merged.Merge(out);
  (void)out.latency.Percentile(99.0);
  (void)DeterministicStatsDigest(merged);
  return true;
}

TEST(StatsCodec, MutatedArenaBlobsNeverCrashTheReader) {
  SKIP_UNLESS_MULTIPROC_RUNNABLE();
  constexpr uint64_t kRequests = 200'000;
  SimBackendConfig bcfg = GoldenBackendConfig(2);
  bcfg.events = FullTimeline();
  bcfg.sample_interval = 50'000;
  bcfg.queue.arrival.rate = 24.0;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("drop:0@10000:2,delay:1@20000:1", 2, kRequests,
                             bcfg.cluster.seed, &bcfg.fault_plan, &error))
      << error;
  const BackendStats st =
      MakeSimBackend(BackendKind::kMultiproc, bcfg)->Run(kRequests);
  ASSERT_EQ(st.failed_shards, 0u);
  ASSERT_FALSE(st.latency.empty());
  ASSERT_FALSE(st.series.empty());
  ASSERT_FALSE(st.fault_events.empty());

  const size_t bound = StatsCodecBound(
      st.cache_load.size(),
      st.cache_load.size() * st.cache_load[0].size(), st.server_load.size(),
      st.series.size(), st.fault_events.size());
  std::vector<uint8_t> valid(bound);
  const size_t len = SerializeBackendStats(st, valid.data(), valid.size());
  ASSERT_GT(len, 0u);
  valid.resize(len);
  ASSERT_TRUE(ExpectSafeParse(valid, len, st, "unmutated", 0));

  Rng rng(0x5eedb10bULL);
  std::vector<uint8_t> blob = valid;
  for (size_t i = 0; i < len; ++i) {
    const uint8_t mask = static_cast<uint8_t>(1 + rng.NextBounded(255));
    blob[i] ^= mask;
    ExpectSafeParse(blob, len, st, "byte flip", i);
    blob[i] ^= mask;
  }
  for (size_t cut = 0; cut < len; ++cut) {
    EXPECT_FALSE(ExpectSafeParse(valid, cut, st, "truncation", cut))
        << "accepted a " << cut << "-byte truncation of " << len;
  }
  const uint64_t huge[] = {~0ull, 1ull << 63, 1ull << 40, len / 8 + 1};
  for (size_t at = 0; at + 8 <= len; at += 8) {
    for (const uint64_t value : huge) {
      std::memcpy(blob.data() + at, &value, sizeof(value));
      ExpectSafeParse(blob, len, st, "huge word", at);
    }
    std::memcpy(blob.data() + at, valid.data() + at, 8);
  }
}

}  // namespace
}  // namespace distcache
