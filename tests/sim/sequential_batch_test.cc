// Batch-size invariance of the sequential engine: it draws each request's
// inputs in the request-at-a-time RNG order and cuts its batches at every
// timeline action, sample point and telemetry epoch, and runs requests one at
// a time while transit drops draw from the core RNG. A run must therefore be
// bit-identical at every batch_size — the digest, the interval series, the
// hit split and every per-node load.
#include <gtest/gtest.h>

#include <vector>

#include "sim/cluster_model.h"
#include "sim/engine_core.h"
#include "sim/sim_backend.h"
#include "tests/sim/sim_test_util.h"

namespace distcache {
namespace {

constexpr uint32_t kBatchSizes[] = {1, 2, 7, 256, 4096};

// Runs `config` at every batch size and compares each run with batch_size 1,
// the request-at-a-time order. Returns that reference run.
BackendStats ExpectBatchSizeInvariant(SimBackendConfig config, uint64_t requests) {
  config.batch_size = 1;
  const BackendStats reference =
      MakeSimBackend(BackendKind::kSequential, config)->Run(requests);
  EXPECT_EQ(reference.requests, requests);
  for (const uint32_t batch : kBatchSizes) {
    SCOPED_TRACE(testing::Message() << "batch_size " << batch);
    config.batch_size = batch;
    ExpectSameStats(
        MakeSimBackend(BackendKind::kSequential, config)->Run(requests),
        reference, StatsScope::kOneShard);
  }
  return reference;
}

// The TwoLayerGolden full timeline: writes, two spine failures that blackhole
// transit until recovery, a hot-spot shift, an observed-count re-allocation,
// switch restoration, a workload phase and interval sampling.
TEST(SequentialBatch, FullTimelineIsBatchSizeInvariant) {
  SimBackendConfig config;
  config.cluster = GoldenCluster();
  config.sample_interval = 40'000;
  config.events = {ClusterEvent::FailSpine(20'000, 0),
                   ClusterEvent::FailSpine(20'000, 1),
                   ClusterEvent::RunRecovery(60'000),
                   ClusterEvent::ShiftHotspot(80'000, 500'000),
                   ClusterEvent::ReallocateCache(100'000),
                   ClusterEvent::RecoverSpine(120'000, 0),
                   ClusterEvent::RecoverSpine(120'000, 1)};
  config.phases = {WorkloadPhase{140'000, 0.9, 0.1, 1234}};
  const BackendStats st = ExpectBatchSizeInvariant(config, 200'000);
  EXPECT_GT(st.dropped, 0u);  // transit drops drew from the core RNG
  EXPECT_EQ(st.series.size(), 5u);
}

// Two-level sampling with a shift and a re-allocation, sampled at points that
// coincide with neither an action nor a telemetry epoch.
TEST(SequentialBatch, TwoLevelShiftReallocIsBatchSizeInvariant) {
  SimBackendConfig config;
  config.cluster = GoldenCluster();
  config.cluster.write_ratio = 0.0;
  config.two_level_sampling = true;
  config.sample_interval = 30'000;
  config.events = {ClusterEvent::ShiftHotspot(50'000, 500'000),
                   ClusterEvent::ReallocateCache(100'000)};
  const BackendStats st = ExpectBatchSizeInvariant(config, 150'000);
  EXPECT_EQ(st.series.size(), 5u);
  EXPECT_GT(st.series.back().cache_hits, 0u);  // the re-allocation restored hits
}

// The dynamic LRU policy under open-loop arrivals, over a failure, recovery,
// shift and restoration: the policy's replacement state and the virtual-time
// queues must see the same request order at every batch size.
TEST(SequentialBatch, LruOpenLoopIsBatchSizeInvariant) {
  SimBackendConfig config;
  config.cluster = GoldenCluster();
  config.cluster.cache_policy = CachePolicyKind::kLru;
  config.queue.arrival.rate = 20.0;
  config.sample_interval = 25'000;
  config.events = {ClusterEvent::FailSpine(30'000, 2),
                   ClusterEvent::RunRecovery(45'000),
                   ClusterEvent::ShiftHotspot(70'000, 12'345),
                   ClusterEvent::RecoverSpine(90'000, 2)};
  const BackendStats st = ExpectBatchSizeInvariant(config, 120'000);
  EXPECT_GT(st.dropped, 0u);
  EXPECT_GT(st.latency.total(), 0u);
}

struct NullSink {
  void AddCacheLoad(CacheNodeId, double) {}
  void AddServerLoad(uint32_t, double) {}
};

// NextAdvanceAt is the first index at which AdvanceTo acts: the ceiling of a
// fractional (shard-scaled) action timestamp or sample point, the smaller of
// the two, and UINT64_MAX once neither remains within range.
TEST(SequentialBatch, NextAdvanceAtIsTheFirstIndexAdvanceToActsAt) {
  ClusterConfig cluster = GoldenCluster();
  ClusterModel model(cluster);
  EngineCore core(&model, 1, 2, /*enable_observer=*/false);
  BackendStats st;
  core.BindStats(&st);
  EXPECT_EQ(core.NextAdvanceAt(), UINT64_MAX);

  core.SetSampleStep(2.5);
  EngineCore::Action shift;
  shift.at_local = 10.5;
  shift.event = ClusterEvent::ShiftHotspot(0, 7);
  core.QueueAction(shift);
  EngineCore::Action far;
  far.at_local = 1e30;
  far.event = ClusterEvent::ShiftHotspot(0, 9);
  core.QueueAction(far);

  std::vector<uint64_t> acted;
  for (uint64_t i = 0; i <= 12; ++i) {
    const uint64_t next = core.NextAdvanceAt();
    core.AdvanceTo(i);
    if (i == next) {
      acted.push_back(i);
    }
    EXPECT_GT(core.NextAdvanceAt(), i);
  }
  // Sample points 2.5, 5, 7.5, 10, 12.5 and the shift at 10.5.
  EXPECT_EQ(acted, (std::vector<uint64_t>{3, 5, 8, 10, 11}));
  EXPECT_EQ(core.hot_shift(), 7u);
  EXPECT_EQ(st.series.size(), 4u);
  EXPECT_EQ(core.NextAdvanceAt(), 13u);

  core.SetSampleStep(0.0);
  EXPECT_EQ(core.NextAdvanceAt(), UINT64_MAX);  // the 1e30 action
}

}  // namespace
}  // namespace distcache
