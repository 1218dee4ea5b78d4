// Figure 9(c): normalized throughput vs number of storage servers (read-only).
// Racks (and spine switches) scale together, 32 servers per rack, per the paper's
// testbed discipline of rate-limiting every switch to one rack's aggregate.
//
// Paper shape: NoCache and CachePartition plateau; DistCache tracks CacheReplication
// and scales linearly. Our stability-based measurement exposes one honest deviation:
// Theorem 1 requires max_i p_i * R <= T~/2, and with Zipf-0.99 over 100M keys the
// hottest object alone (p0 ~ 4.95%) exceeds what its two copies can absorb once the
// system passes ~2000 servers, so strict DistCache saturates there. The paper's
// remark on non-uniform cache nodes (§3.3) addresses exactly this: with realistically
// faster spine switches (here 8x a rack's aggregate, which is still far below an
// actual Tofino:server ratio), linear scaling holds through 4096 servers. We print
// both, plus Zipf-0.9 where the precondition binds later.
#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "sim/sim_backend.h"

namespace distcache {
namespace {

double Measure(Mechanism m, uint32_t racks, double theta, double spine_capacity) {
  ClusterConfig cfg = PaperDefaultConfig(m);
  cfg.num_spine = racks;
  cfg.num_racks = racks;
  cfg.zipf_theta = theta;
  cfg.spine_capacity = spine_capacity;
  ClusterSim sim(cfg);
  return sim.SaturationThroughput(/*tolerance=*/0.01);
}

void Run(BenchJson& json) {
  PrintHeader("Figure 9(c): scalability (read-only, zipf-0.99)",
              "racks = spines, 32 servers/rack; 'DistCache*' = fast-spine variant "
              "(spine capacity 8x rack aggregate, §3.3 non-uniform remark)");
  std::printf("%-8s %12s %12s %18s %16s %10s\n", "servers", "DistCache", "DistCache*",
              "CacheReplication", "CachePartition", "NoCache");
  const std::vector<uint32_t> rack_sweep =
      SmokeSweep<uint32_t>({4u, 8u}, {4u, 8u, 16u, 32u, 64u, 128u});
  std::vector<double> servers_series, distcache_series;
  for (uint32_t racks : rack_sweep) {
    const double distcache = Measure(Mechanism::kDistCache, racks, 0.99, 0.0);
    servers_series.push_back(racks * 32.0);
    distcache_series.push_back(distcache);
    std::printf("%-8u", racks * 32);
    std::printf(" %12.0f", distcache);
    std::printf(" %12.0f", Measure(Mechanism::kDistCache, racks, 0.99, 8.0 * 32.0));
    std::printf(" %18.0f", Measure(Mechanism::kCacheReplication, racks, 0.99, 0.0));
    std::printf(" %16.0f", Measure(Mechanism::kCachePartition, racks, 0.99, 0.0));
    std::printf(" %10.0f\n", Measure(Mechanism::kNoCache, racks, 0.99, 0.0));
  }
  json.Series("servers", servers_series);
  json.Series("distcache_saturation", distcache_series);
  PrintHeader("Figure 9(c) auxiliary: zipf-0.9 (theorem precondition binds later)", "");
  std::printf("%-8s %12s %18s\n", "servers", "DistCache", "CacheReplication");
  const std::vector<uint32_t> aux_sweep =
      SmokeSweep<uint32_t>({4u}, {4u, 8u, 16u, 32u, 64u});
  for (uint32_t racks : aux_sweep) {
    std::printf("%-8u %12.0f %18.0f\n", racks * 32,
                Measure(Mechanism::kDistCache, racks, 0.9, 0.0),
                Measure(Mechanism::kCacheReplication, racks, 0.9, 0.0));
  }

  // Engine scaling: the same fig-9(c) workload executed request-by-request through
  // the pluggable SimBackend engines (see sim/sim_backend.h). The sharded runtime
  // must reproduce the sequential reference's cache hit ratio and load-imbalance
  // stats within 5%. Both engines run batched; on a 4-vCPU VM (three runs) the
  // sequential engine reads 10.5-14.3 Mreq/s, sharded x1 1.5-1.8x that and
  // sharded x4 4.3-5.9x.
  PrintHeader("Engine throughput on the fig-9(c) workload (requests/s of the simulator itself)",
              "paper-default cluster, zipf-0.99, read-only; 8M requests per engine");
  const uint64_t kRequests = BenchSmoke() ? 200'000 : 8'000'000;
  json.Config("engine_requests", static_cast<double>(kRequests));
  SimBackendConfig bcfg;
  bcfg.cluster = PaperDefaultConfig(Mechanism::kDistCache);
  double sequential_mrps = 0.0;
  std::printf("%-16s %10s %10s %12s %12s %12s\n", "engine", "Mreq/s", "speedup",
              "hit ratio", "cache imb", "server imb");
  for (uint32_t shards : {0u, 1u, 2u, 4u}) {
    bcfg.shards = shards == 0 ? 1 : shards;
    auto backend = MakeSimBackend(
        shards == 0 ? BackendKind::kSequential : BackendKind::kSharded, bcfg);
    const BackendStats stats = backend->Run(kRequests);
    if (shards == 0) {
      sequential_mrps = stats.throughput_mrps();
    }
    char label[32];
    char key[32];
    if (shards == 0) {
      std::snprintf(label, sizeof(label), "%s", backend->name().c_str());
      std::snprintf(key, sizeof(key), "%s", backend->name().c_str());
    } else {
      std::snprintf(label, sizeof(label), "%s x%u", backend->name().c_str(), shards);
      std::snprintf(key, sizeof(key), "%s_x%u", backend->name().c_str(), shards);
    }
    std::printf("%-16s %10.2f %9.2fx %12.4f %12.3f %12.3f\n", label,
                stats.throughput_mrps(),
                sequential_mrps > 0 ? stats.throughput_mrps() / sequential_mrps : 0.0,
                stats.hit_ratio(), stats.CacheImbalance(), stats.ServerImbalance());
    json.Metric(std::string(key) + "_mrps", stats.throughput_mrps());
    json.Metric(std::string(key) + "_hit_ratio", stats.hit_ratio());
    json.Metric(std::string(key) + "_cache_imbalance", stats.CacheImbalance());
  }
}

}  // namespace
}  // namespace distcache

int main(int argc, char** argv) {
  distcache::BenchJson json(argc, argv, "fig9c");
  distcache::Run(json);
  return 0;
}
