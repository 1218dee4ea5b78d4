// Fixtures shared by the sim suite: the golden cluster, the §4.4 + §6.4
// composite timeline, and one BackendStats comparator expanded from the stats
// field table (sim/sim_backend.h), so a new stats field is compared everywhere
// without touching a test.
#ifndef DISTCACHE_TESTS_SIM_SIM_TEST_UTIL_H_
#define DISTCACHE_TESTS_SIM_SIM_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

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

// The multiproc engine forks. TSan's runtime does not follow
// fork-without-exec children, and some hosts cannot map the shared arena, so
// every multiproc test starts with SKIP_UNLESS_MULTIPROC_RUNNABLE().
inline bool MultiprocRunnable() {
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

// The golden cluster every bit-level pin of the suite was captured on: 8
// spines, 8 racks x 4 servers, 50 objects per switch, 1M keys, Zipf-0.99, 20%
// writes, seed 42.
inline ClusterConfig GoldenCluster() {
  ClusterConfig cfg;
  cfg.num_spine = 8;
  cfg.num_racks = 8;
  cfg.servers_per_rack = 4;
  cfg.per_switch_objects = 50;
  cfg.num_keys = 1'000'000;
  cfg.zipf_theta = 0.99;
  cfg.write_ratio = 0.2;
  cfg.seed = 42;
  return cfg;
}

// GoldenCluster() at the pre-refactor batch size 64. Batch size changes the
// shard engines' RNG draw interleaving, so their pins hold only at the batch
// size they were captured under.
inline SimBackendConfig GoldenBackendConfig(uint32_t shards = 1) {
  SimBackendConfig bcfg;
  bcfg.cluster = GoldenCluster();
  bcfg.shards = shards;
  bcfg.batch_size = 64;
  return bcfg;
}

// The §4.4 + §6.4 composite: failure, recovery remap, hot-spot shift, online
// re-allocation from observed counts, switch restoration.
inline std::vector<ClusterEvent> FullTimeline() {
  return {ClusterEvent::FailSpine(40'000, 2), ClusterEvent::RunRecovery(60'000),
          ClusterEvent::ShiftHotspot(90'000, 12'345),
          ClusterEvent::ReallocateCache(120'000),
          ClusterEvent::RecoverSpine(150'000, 2)};
}

// Sum and max of one load vector; the goldens pin both bit for bit.
struct LoadSummary {
  double sum = 0.0;
  double max = 0.0;
};

inline LoadSummary Summarize(const std::vector<double>& loads) {
  LoadSummary s;
  for (double x : loads) {
    s.sum += x;
    s.max = std::max(s.max, x);
  }
  return s;
}

// Which fields two runs are expected to share (StatsKind in sim_backend.h).
enum class StatsScope {
  // Same seed and fault plan at any shard count: kDigest and kDerived rows,
  // the series counters and the digest.
  kAnyShardCount,
  // Two one-shard runs that must be bit-identical: additionally the kOneShard
  // rows, every per-node load and the latency histograms.
  kOneShard,
  // A codec round trip: additionally the kEngine rows and the fault series.
  kEverything,
};

inline bool ScopeCompares(StatsScope scope, StatsKind kind) {
  switch (kind) {
    case StatsKind::kDigest:
    case StatsKind::kDerived:
      return true;
    case StatsKind::kOneShard:
      return scope != StatsScope::kAnyShardCount;
    case StatsKind::kEngine:
      return scope == StatsScope::kEverything;
  }
  return true;
}

#define DISTCACHE_EXPECT_SAME_STAT(name, type, merge, kind) \
  if (ScopeCompares(scope, StatsKind::kind)) {              \
    EXPECT_EQ(a.name, b.name) << #name;                     \
  }

inline void ExpectSameScalars(const BackendStats& a, const BackendStats& b,
                              StatsScope scope) {
  DISTCACHE_BACKEND_STATS_SCALARS(DISTCACHE_EXPECT_SAME_STAT)
}

inline void ExpectSameCounters(const BackendStats::IntervalPoint& a,
                               const BackendStats::IntervalPoint& b,
                               StatsScope scope) {
  DISTCACHE_INTERVAL_POINT_COUNTERS(DISTCACHE_EXPECT_SAME_STAT)
}

#undef DISTCACHE_EXPECT_SAME_STAT

// Bucket for bucket; the sum compares bit for bit.
inline void ExpectSameHistogram(const LatencyHistogram& a,
                                const LatencyHistogram& b) {
  EXPECT_EQ(a.counts(), b.counts());
  EXPECT_EQ(a.total(), b.total());
  EXPECT_EQ(a.infinite(), b.infinite());
  EXPECT_EQ(a.finite_sum(), b.finite_sum());
}

// Expects `a` and `b` to agree on every field `scope` covers; doubles compare
// with ==, so loads and latency sums must match to the last bit.
inline void ExpectSameStats(const BackendStats& a, const BackendStats& b,
                            StatsScope scope) {
  EXPECT_EQ(DeterministicStatsDigest(a), DeterministicStatsDigest(b));
  ExpectSameScalars(a, b, scope);
  const bool one_shard = scope != StatsScope::kAnyShardCount;
  ASSERT_EQ(a.series.size(), b.series.size());
  for (size_t i = 0; i < a.series.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "series point " << i);
    ExpectSameCounters(a.series[i], b.series[i], scope);
    if (one_shard) {
      ExpectSameHistogram(a.series[i].latency, b.series[i].latency);
    }
  }
  if (one_shard) {
    EXPECT_EQ(a.cache_load, b.cache_load);
    EXPECT_EQ(a.server_load, b.server_load);
    ExpectSameHistogram(a.latency, b.latency);
  }
  if (scope == StatsScope::kEverything) {
    ASSERT_EQ(a.fault_events.size(), b.fault_events.size());
    for (size_t i = 0; i < a.fault_events.size(); ++i) {
      EXPECT_EQ(a.fault_events[i].shard, b.fault_events[i].shard) << i;
      EXPECT_EQ(a.fault_events[i].kind, b.fault_events[i].kind) << i;
      EXPECT_EQ(a.fault_events[i].at, b.fault_events[i].at) << i;
    }
  }
}

}  // namespace distcache

#endif  // DISTCACHE_TESTS_SIM_SIM_TEST_UTIL_H_
