// Hot-spot shift under a full cluster engine (§6.4): the workload's entire hot
// set rotates onto previously-cold keys mid-run, the cache hit ratio collapses,
// and the controller restores it by re-allocating the cache from observed
// heavy-hitter counts and pushing the new routes — the engine-level version of
// the paper's cache-update experiment, driven through the phased workload
// timeline (SimBackendConfig::events, sim/engine_core.h).
//
//   $ ./examples/hotspot_shift
//
// This observer + controller re-allocation is the one implementation of the
// paper's cache update in the repo; for the three-engine parity version of this
// experiment, see bench/bench_hotspot_shift.cc.
#include <cstdio>

#include "sim/sim_backend.h"

using namespace distcache;

int main() {
  SimBackendConfig cfg;
  cfg.cluster.num_spine = 8;
  cfg.cluster.num_racks = 8;
  cfg.cluster.servers_per_rack = 4;
  cfg.cluster.per_switch_objects = 50;
  cfg.cluster.num_keys = 1'000'000;
  cfg.cluster.zipf_theta = 0.99;
  cfg.cluster.seed = 42;

  constexpr uint64_t kRequests = 600'000;
  cfg.sample_interval = kRequests / 12;  // one row per "epoch"
  // The hot set moves at one third of the run; the controller reacts at two
  // thirds: every popularity rank r queries key (r + keys/2) % keys afterwards.
  const uint64_t shift_at = kRequests / 3;
  const uint64_t realloc_at = 2 * kRequests / 3;
  cfg.events = {ClusterEvent::ShiftHotspot(shift_at, cfg.cluster.num_keys / 2),
                ClusterEvent::ReallocateCache(realloc_at)};

  auto backend = MakeSimBackend(BackendKind::kSequential, cfg);
  const BackendStats stats = backend->Run(kRequests);

  std::printf("%-7s %-10s %-12s\n", "epoch", "hit ratio", "event");
  for (size_t i = 0; i < stats.series.size(); ++i) {
    const uint64_t start = i * cfg.sample_interval;
    const char* event = "";
    if (start <= shift_at && shift_at < start + cfg.sample_interval) {
      event = "hot set shifted";
    } else if (start <= realloc_at && realloc_at < start + cfg.sample_interval) {
      event = "cache re-allocated";
    }
    std::printf("%-7zu %-10.3f %s\n", i, stats.series[i].hit_ratio(), event);
  }
  std::printf("overall hit ratio %.3f, cache imbalance %.3f\n", stats.hit_ratio(),
              stats.CacheImbalance());
  return 0;
}
