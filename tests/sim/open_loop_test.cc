// Open-loop virtual time (EngineCore::ConfigureOpenLoop): arrival process,
// per-node FIFO queueing, and the latency histograms it produces — plus the
// contract that enabling none of it leaves the closed-loop path untouched.
#include <gtest/gtest.h>

#include <cmath>

#include "cluster/latency.h"
#include "sim/sim_backend.h"
#include "tests/sim/sim_test_util.h"

namespace distcache {
namespace {

SimBackendConfig BaseConfig() {
  SimBackendConfig cfg;
  cfg.cluster.mechanism = Mechanism::kDistCache;
  cfg.cluster.num_spine = 8;
  cfg.cluster.num_racks = 8;
  cfg.cluster.servers_per_rack = 16;
  cfg.cluster.per_switch_objects = 50;
  cfg.cluster.num_keys = 1'000'000;
  cfg.cluster.zipf_theta = 0.99;
  cfg.cluster.seed = 42;
  return cfg;
}

SimBackendConfig OpenLoopConfig(double lambda) {
  SimBackendConfig cfg = BaseConfig();
  cfg.queue.arrival.rate = lambda;
  cfg.queue.service_rates = {6.0};
  cfg.queue.server_service_rate = 1.0;
  cfg.queue.hop_cost = 0.2;
  return cfg;
}

constexpr uint64_t kRequests = 200'000;

// The clock is a pure overlay: every counter and every load cell of an
// open-loop run must be bit-identical to the closed-loop run with the same
// seed — the time RNG is a separate stream and the request path is unchanged.
TEST(OpenLoop, CountersBitIdenticalToClosedLoop) {
  const BackendStats closed =
      MakeSimBackend(BackendKind::kSequential, BaseConfig())->Run(kRequests);
  const BackendStats open =
      MakeSimBackend(BackendKind::kSequential, OpenLoopConfig(24.0))
          ->Run(kRequests);
  EXPECT_TRUE(closed.latency.empty());
  EXPECT_FALSE(open.latency.empty());
  ExpectSameScalars(open, closed, StatsScope::kOneShard);
  EXPECT_EQ(open.cache_load, closed.cache_load);
  EXPECT_EQ(open.server_load, closed.server_load);
}

// Every delivered request records exactly one latency sample, in every engine:
// the histogram total equals the delivered count.
TEST(OpenLoop, OneSamplePerDeliveredRequest) {
  for (const BackendKind kind :
       {BackendKind::kSequential, BackendKind::kSharded}) {
    SimBackendConfig cfg = OpenLoopConfig(24.0);
    cfg.shards = kind == BackendKind::kSharded ? 4 : 1;
    const BackendStats st = MakeSimBackend(kind, cfg)->Run(kRequests);
    EXPECT_EQ(st.latency.total(), st.requests - st.dropped)
        << "backend kind " << static_cast<int>(kind);
  }
}

// The Poisson arrival process is deterministic per seed: two open-loop runs
// agree bucket-for-bucket.
TEST(OpenLoop, DeterministicPerSeed) {
  const SimBackendConfig cfg = OpenLoopConfig(24.0);
  const BackendStats a =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  const BackendStats b =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  EXPECT_EQ(a.latency.counts(), b.latency.counts());
  EXPECT_EQ(a.latency.total(), b.latency.total());
}

// Shard-merged histograms agree across shard counts within bucket resolution:
// each shard is an independent full-rate slice of the same arrival process, so
// the union's percentiles converge to the one-shard run's (exact bucket
// equality is impossible by construction — the time streams differ per shard).
TEST(OpenLoop, PercentilesAgreeAcrossShardCounts) {
  SimBackendConfig cfg = OpenLoopConfig(24.0);
  cfg.shards = 1;
  const BackendStats one =
      MakeSimBackend(BackendKind::kSharded, cfg)->Run(kRequests);
  for (uint32_t shards : {2u, 4u}) {
    cfg.shards = shards;
    const BackendStats many =
        MakeSimBackend(BackendKind::kSharded, cfg)->Run(kRequests);
    EXPECT_EQ(many.latency.total(), many.requests - many.dropped);
    for (const double p : {50.0, 99.0}) {
      const double a = one.latency.Percentile(p);
      const double b = many.latency.Percentile(p);
      EXPECT_LT(std::abs(a - b) / a, 0.10)
          << shards << " shards: p" << p << " " << b << " vs " << a;
    }
  }
}

// Light-load validation against the fluid engine's M/M/1 closed form: the
// measured median must track the analytic mixture's within model error (the
// histogram resolves ~4.4% per bucket; the fluid load split adds a few
// percent more).
TEST(OpenLoop, LightLoadMedianTracksAnalyticForm) {
  const SimBackendConfig cfg = OpenLoopConfig(8.0);
  const BackendStats measured =
      MakeSimBackend(BackendKind::kSequential, cfg)->Run(kRequests);
  const BackendStats fluid =
      MakeSimBackend(BackendKind::kFluid, cfg)->Run(kRequests);
  ASSERT_FALSE(fluid.latency.empty());
  const double analytic = fluid.latency.Percentile(50.0);
  const double p50 = measured.latency.Percentile(50.0);
  EXPECT_LT(std::abs(p50 - analytic) / analytic, 0.15)
      << "measured p50 " << p50 << " vs analytic " << analytic;
  // Neither side saturates at this load.
  EXPECT_EQ(measured.latency.infinite(), 0u);
  EXPECT_EQ(fluid.latency.infinite(), 0u);
}

// Burst phases raise the measured tail: the same mean-adjusted load delivered
// in bursts must queue harder than the smooth process.
TEST(OpenLoop, BurstsInflateTail) {
  SimBackendConfig smooth = OpenLoopConfig(48.0);
  SimBackendConfig bursty = OpenLoopConfig(48.0);
  bursty.queue.arrival.burst_factor = 2.0;
  bursty.queue.arrival.burst_every = 200.0;
  bursty.queue.arrival.burst_duration = 50.0;
  const BackendStats a =
      MakeSimBackend(BackendKind::kSequential, smooth)->Run(kRequests);
  const BackendStats b =
      MakeSimBackend(BackendKind::kSequential, bursty)->Run(kRequests);
  EXPECT_GT(b.latency.Percentile(99.0), a.latency.Percentile(99.0));
}

}  // namespace
}  // namespace distcache
