// Phase-boundary tests for the phased workload timeline (common/workload.h +
// sim/engine_core.h): sampler-rebuild determinism, zero-length phases, shifts
// landing exactly on batch boundaries, and cross-engine behaviour of theta /
// write-ratio phase switches.
#include <gtest/gtest.h>

#include <cmath>

#include "common/alias_sampler.h"
#include "common/random.h"
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

constexpr uint64_t kRequests = 200'000;

double RelDiff(double a, double b) {
  return b == 0.0 ? std::abs(a) : std::abs(a - b) / std::abs(b);
}

WorkloadPhase Phase(uint64_t start, double theta, double write, uint64_t shift) {
  WorkloadPhase p;
  p.start_request = start;
  p.zipf_theta = theta;
  p.write_ratio = write;
  p.hot_shift = shift;
  return p;
}

// Alias-table rebuild determinism: rebuilding from the same pmf twice produces
// identical tables — the same RNG state then yields the identical post-shift key
// stream, which is what keeps phased runs reproducible on every shard count.
TEST(PhaseBoundary, AliasRebuildIsDeterministic) {
  std::vector<double> pmf(1000);
  for (size_t i = 0; i < pmf.size(); ++i) {
    pmf[i] = 1.0 / static_cast<double>(i + 1);
  }
  const AliasSampler a(pmf);
  const AliasSampler b(pmf);
  Rng rng_a(123);
  Rng rng_b(123);
  std::vector<uint32_t> batch_a(4096);
  std::vector<uint32_t> batch_b(4096);
  a.SampleBatch(rng_a, batch_a.data(), batch_a.size());
  b.SampleBatch(rng_b, batch_b.data(), batch_b.size());
  EXPECT_EQ(batch_a, batch_b);
}

// End-to-end determinism with a phase timeline: same seed ⇒ identical aggregate
// counters, for the sequential engine and for a 1-shard sharded run (one request
// stream each, so equality is exact, sampler rebuilds and all).
TEST(PhaseBoundary, PhasedRunsAreDeterministicPerStream) {
  SimBackendConfig cfg = SmallConfig();
  cfg.phases = {Phase(0, 0.99, 0.0, 0),
                Phase(kRequests / 4, 0.9, 0.1, 1000),
                Phase(kRequests / 2, 0.95, 0.0, 500'000)};
  for (const BackendKind kind :
       {BackendKind::kSequential, BackendKind::kSharded}) {
    const BackendStats a = MakeSimBackend(kind, cfg)->Run(kRequests);
    const BackendStats b = MakeSimBackend(kind, cfg)->Run(kRequests);
    ExpectSameStats(a, b, StatsScope::kOneShard);
  }
}

// 1-vs-N-shard parity under a phase timeline: each shard rebuilds its sampler at
// its scaled boundary, so aggregate stats must track the single-stream run.
TEST(PhaseBoundary, ShardCountParityUnderPhaseTimeline) {
  SimBackendConfig cfg = SmallConfig();
  cfg.phases = {Phase(0, 0.99, 0.0, 0),
                Phase(kRequests / 2, 0.9, 0.2, 0)};
  cfg.shards = 1;
  const BackendStats one = MakeSimBackend(BackendKind::kSharded, cfg)->Run(kRequests);
  cfg.shards = 4;
  const BackendStats four = MakeSimBackend(BackendKind::kSharded, cfg)->Run(kRequests);
  EXPECT_LT(RelDiff(four.hit_ratio(), one.hit_ratio()), 0.02);
  EXPECT_LT(RelDiff(static_cast<double>(four.writes),
                    static_cast<double>(one.writes)),
            0.05);
  EXPECT_LT(RelDiff(four.CacheImbalance(), one.CacheImbalance()), 0.05);
}

// A zero-length phase (two phases at the same timestamp) applies and is
// immediately superseded — the run is bit-identical to one with the survivor
// only. Guards the tie-break rule: later list entry wins, no RNG is consumed.
TEST(PhaseBoundary, ZeroLengthPhaseIsSuperseded) {
  SimBackendConfig with_zero = SmallConfig();
  with_zero.phases = {Phase(kRequests / 4, 0.5, 0.3, 123),
                      Phase(kRequests / 4, 0.9, 0.1, 1000)};
  SimBackendConfig survivor_only = SmallConfig();
  survivor_only.phases = {Phase(kRequests / 4, 0.9, 0.1, 1000)};
  const BackendStats a =
      MakeSimBackend(BackendKind::kSequential, with_zero)->Run(kRequests);
  const BackendStats b =
      MakeSimBackend(BackendKind::kSequential, survivor_only)->Run(kRequests);
  ExpectSameStats(a, b, StatsScope::kOneShard);
}

// A shift scheduled exactly at a batch boundary (and at an exact per-shard quota
// split) applies once, cleanly: determinism holds, the request count is exact,
// and the post-shift collapse appears in the series exactly at the boundary.
TEST(PhaseBoundary, ShiftExactlyAtBatchBoundary) {
  SimBackendConfig cfg = SmallConfig();
  cfg.shards = 2;
  // 200'000 requests over 2 shards = 100'000/shard; the shift at 100'000 scales
  // to local clock 50'000 exactly, which with batch 50 is a batch edge — the
  // boundary-check equality case (at_local <= processed with at_local ==
  // processed) must fire exactly once, before the first post-boundary batch.
  cfg.batch_size = 50;
  cfg.sample_interval = kRequests / 10;
  cfg.events = {
      ClusterEvent::ShiftHotspot(kRequests / 2, cfg.cluster.num_keys / 2)};
  const BackendStats a = MakeSimBackend(BackendKind::kSharded, cfg)->Run(kRequests);
  const BackendStats b = MakeSimBackend(BackendKind::kSharded, cfg)->Run(kRequests);
  EXPECT_EQ(a.requests, kRequests);
  ExpectSameStats(a, b, StatsScope::kAnyShardCount);
  ASSERT_EQ(a.series.size(), 10u);
  EXPECT_GT(a.series[3].hit_ratio(), 0.3);   // healthy before the boundary
  EXPECT_LT(a.series[6].hit_ratio(), 0.05);  // collapsed right after it
}

// Write-ratio phases charge coherence costs only while active: a run that is
// read-only in phase 0 and 30% writes in phase 1 must land between the two
// static extremes on write count, and conserve total charged load.
TEST(PhaseBoundary, WriteRatioPhaseTakesEffectMidRun) {
  SimBackendConfig cfg = SmallConfig();
  cfg.phases = {Phase(kRequests / 2, 0.99, 0.3, 0)};
  const BackendStats st =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  // Writes only in the second half: expectation 0.3 * kRequests / 2.
  const double expected = 0.3 * static_cast<double>(kRequests) / 2.0;
  EXPECT_GT(static_cast<double>(st.writes), 0.8 * expected);
  EXPECT_LT(static_cast<double>(st.writes), 1.2 * expected);
}

// Phase timestamps at or beyond the Run never fire (same contract as events).
TEST(PhaseBoundary, PhaseAtRunEndNeverFires) {
  SimBackendConfig cfg = SmallConfig();
  SimBackendConfig with_late = cfg;
  with_late.phases = {Phase(kRequests, 0.5, 0.5, 42)};
  const BackendStats a = MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  const BackendStats b =
      MakeSimBackend(BackendKind::kSequential, with_late)->Run(kRequests);
  ExpectSameStats(a, b, StatsScope::kOneShard);
}

// An empty phase list must leave the engines bit-identical to their historical
// behaviour (no extra RNG draws) — the phased-timeline analogue of the
// empty-event-timeline identity.
TEST(PhaseBoundary, EmptyPhaseListIsIdentity) {
  const SimBackendConfig cfg = SmallConfig();
  SimBackendConfig with_empty = cfg;
  with_empty.phases.clear();
  const BackendStats a = MakeSimBackend(BackendKind::kSequential, cfg)->Run(100'000);
  const BackendStats b =
      MakeSimBackend(BackendKind::kSequential, with_empty)->Run(100'000);
  ExpectSameStats(a, b, StatsScope::kOneShard);
}

}  // namespace
}  // namespace distcache
