// Recording windows of the heavy-hitter observer (EngineCore): a read is
// recorded only while the next pending observer reset is a kReallocateCache,
// so the counts a re-allocation reads are exactly the ones it would have read
// with the observer always on, and nothing is recorded that a reset wipes
// before anyone looks.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/cluster_model.h"
#include "sim/engine_core.h"
#include "sim/route_table.h"

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
  cfg.cluster.write_ratio = 0.0;
  cfg.cluster.seed = 11;
  return cfg;
}

constexpr uint64_t kRequests = 40'000;

struct CountingSink {
  void AddCacheLoad(CacheNodeId, double) {}
  void AddServerLoad(uint32_t, double) {}
};

// Drives one EngineCore through `config`'s timeline the way the sequential
// backend does (AdvanceTo before each request), over a bucket stream that
// cycles through the 32 hottest ranks so every window sees repeated keys.
// `probe` runs before request i's AdvanceTo — i.e. after i requests.
class WindowHarness {
 public:
  explicit WindowHarness(const SimBackendConfig& config)
      : config_(config),
        model_(config.cluster),
        core_(&model_, 1, 2, TimelineNeedsObserver(config.events)) {
    core_.SetRoutes(std::make_shared<const RouteTable>(BuildRouteTable(model_)));
    plan_ = BuildTimelinePlan(config_, model_);
    stats_.cache_load = model_.ZeroCacheLoads();
    stats_.server_load.assign(model_.num_servers(), 0.0);
    core_.BindStats(&stats_);
    core_.SetReallocateHook([this]() -> std::shared_ptr<const RouteTable> {
      realloc_counts_.push_back(core_.ObservedCounts().size());
      return nullptr;
    });
    for (const TimelineStep& step : plan_) {
      core_.QueueAction({static_cast<double>(step.at_request), step.is_phase,
                         step.phase, step.event, step.pmf, step.routes});
    }
  }

  template <typename Probe>
  void Run(uint64_t requests, Probe probe) {
    CountingSink sink;
    for (uint64_t i = 0; i < requests; ++i) {
      probe(i);
      core_.AdvanceTo(i);
      const uint32_t bucket = static_cast<uint32_t>(i % 32);
      core_.ProcessBatch(sink, &bucket, 1);
    }
  }

  const EngineCore& core() const { return core_; }
  // ObservedCounts().size() as each re-allocation read it.
  const std::vector<size_t>& realloc_counts() const { return realloc_counts_; }

 private:
  SimBackendConfig config_;
  ClusterModel model_;
  EngineCore core_;
  std::vector<TimelineStep> plan_;
  BackendStats stats_;
  std::vector<size_t> realloc_counts_;
};

TEST(ObserverWindow, RecordsOnlyBetweenShiftAndReallocation) {
  SimBackendConfig config = SmallConfig();
  const uint64_t shift_at = kRequests / 4;
  const uint64_t realloc_at = kRequests / 2;
  config.events = {ClusterEvent::ShiftHotspot(shift_at, 12'345),
                   ClusterEvent::ReallocateCache(realloc_at)};
  WindowHarness h(config);
  size_t before_shift = 0;
  size_t before_realloc = 0;
  h.Run(kRequests, [&](uint64_t i) {
    if (i == shift_at) {
      before_shift = h.core().ObservedCounts().size();
    } else if (i == realloc_at) {
      before_realloc = h.core().ObservedCounts().size();
    }
  });
  // The shift resets the observer, so the reads before it are never read.
  EXPECT_EQ(before_shift, 0u);
  EXPECT_GT(before_realloc, 0u);
  ASSERT_EQ(h.realloc_counts().size(), 1u);
  EXPECT_EQ(h.realloc_counts()[0], before_realloc);
  // Nothing reads the observer after the last re-allocation.
  EXPECT_TRUE(h.core().ObservedCounts().empty());
}

TEST(ObserverWindow, PhaseBoundaryClosesTheEarlierWindow) {
  SimBackendConfig config = SmallConfig();
  const uint64_t first_realloc = kRequests / 4;
  const uint64_t phase_at = kRequests / 2;
  const uint64_t second_realloc = 3 * kRequests / 4;
  config.events = {ClusterEvent::ReallocateCache(first_realloc),
                   ClusterEvent::ReallocateCache(second_realloc)};
  WorkloadPhase phase;
  phase.start_request = phase_at;
  phase.zipf_theta = 0.99;
  config.phases = {phase};
  WindowHarness h(config);
  size_t before_first = 0;
  size_t before_phase = 0;
  size_t before_second = 0;
  h.Run(kRequests, [&](uint64_t i) {
    if (i == first_realloc) {
      before_first = h.core().ObservedCounts().size();
    } else if (i == phase_at) {
      before_phase = h.core().ObservedCounts().size();
    } else if (i == second_realloc) {
      before_second = h.core().ObservedCounts().size();
    }
  });
  // Recording from the start of the run up to the first re-allocation...
  EXPECT_GT(before_first, 0u);
  // ...then off until the phase boundary, whose reset would wipe it anyway...
  EXPECT_EQ(before_phase, 0u);
  // ...then on again up to the second re-allocation, and off after it.
  EXPECT_GT(before_second, 0u);
  ASSERT_EQ(h.realloc_counts().size(), 2u);
  EXPECT_EQ(h.realloc_counts()[0], before_first);
  EXPECT_EQ(h.realloc_counts()[1], before_second);
  EXPECT_TRUE(h.core().ObservedCounts().empty());
}

TEST(ObserverWindow, ReallocatePendingUntilTheLastReallocation) {
  SimBackendConfig config = SmallConfig();
  config.events = {ClusterEvent::ReallocateCache(kRequests / 4),
                   ClusterEvent::ReallocateCache(kRequests / 2)};
  WindowHarness h(config);
  std::vector<bool> pending;
  h.Run(kRequests, [&](uint64_t i) {
    if (i == kRequests / 4 + 1 || i == kRequests / 2 + 1) {
      pending.push_back(h.core().ReallocatePending());
    }
  });
  // After the first re-allocation the second is still ahead; after the second
  // none is.
  EXPECT_EQ(pending, (std::vector<bool>{true, false}));
}

}  // namespace
}  // namespace distcache
