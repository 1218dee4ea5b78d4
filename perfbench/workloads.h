// The benchmark's three named workloads: one SimBackendConfig and request count
// each, derived only from the workload name and the seed. Every workload uses
// the paper's default cluster (§6.2: 32 spines, 32 racks x 32 servers, 100
// objects per switch, 100M keys, Zipf-0.99) unless its entry says otherwise;
// README.md records why each was chosen.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>

#include "sim/sim_backend.h"

namespace perfbench {

struct Workload {
  std::string name;
  distcache::BackendKind kind = distcache::BackendKind::kSequential;
  distcache::SimBackendConfig config;
  uint64_t requests = 0;
  // The engine whose hit ratio and cache imbalance the trials must match
  // (sim_backend.h contract 4): the fluid model, except where it
  // re-allocates from the exact hot set instead of observed counts.
  distcache::BackendKind reference = distcache::BackendKind::kFluid;
};

// Shard count for the parallel engines: the host's cores, at most 4.
inline uint32_t BenchShards() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::clamp(n, 1u, 4u);
}

// Fills *out for `name`; false when the name is unknown.
inline bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  using distcache::BackendKind;
  using distcache::ClusterEvent;
  Workload w;
  w.name = name;
  w.config.cluster.seed = seed;
  distcache::ClusterConfig& c = w.config.cluster;
  if (name == "static_zipf") {
    // The Fig. 9(c) read-only hot path on the in-process sharded engine.
    w.kind = BackendKind::kSharded;
    w.config.shards = BenchShards();
    w.requests = 64'000'000;
  } else if (name == "shift_realloc") {
    // §6.4: hot set rotated by half the key space at 1/4 of the run, cache
    // re-allocated from observed heavy hitters at 1/2, shard processes.
    w.kind = BackendKind::kMultiproc;
    w.config.shards = BenchShards();
    w.requests = 16'000'000;
    w.config.events = {ClusterEvent::ShiftHotspot(w.requests / 4, c.num_keys / 2),
                       ClusterEvent::ReallocateCache(w.requests / 2)};
    w.reference = BackendKind::kSequential;
  } else if (name == "memwall_100m") {
    // 100M keys with a 32M-rank candidate pool and ~1M cache slots: compact
    // routes and the two-level sampler, where setup is a large share of a run.
    w.kind = BackendKind::kSequential;
    c.candidate_pool = 32'000'000;
    c.per_switch_objects = 16'384;
    w.config.two_level_sampling = true;
    w.requests = 16'000'000;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
