// perfbench_harness — the compiled half of the DistCache benchmark. run.py
// drives it; each invocation does one job and prints one JSON line:
//
//   perfbench_harness trial <workload> <seed> <traced:0|1>
//       One closed-loop trial through the public engine API: MakeSimBackend,
//       then SimBackend::Run, with a host-speed probe timed before and after.
//       Reports the end-to-end figures, the engine's transport and failure
//       counters, and the per-trial correctness checks.
//       run.py starts one process per trial, so ru_maxrss is this trial's own.
//   perfbench_harness reference <workload> <seed>
//       The workload's reference engine on the same config: the hit ratio
//       and cache imbalance the trials must match (sim_backend.h contract 4).
//   perfbench_harness layers <workload> <seed> <arena_bytes>
//       The traced per-layer replays (layers.cc).
//   perfbench_harness fingerprint
//       The compiler and build type this binary was built with.
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "json.h"
#include "trace.h"
#include "workloads.h"
#include "sim/sim_backend.h"
#include "sim/stats_codec.h"

namespace perfbench {

int RunLayers(const Workload& w, uint64_t arena_bytes);

namespace {

using distcache::BackendStats;

// Peak resident set of the trial: this process's own high-water mark and that
// of every child it reaped (the multiproc engine's shard processes). The
// process's mark comes from VmHWM, not ru_maxrss: after exec, ru_maxrss still
// counts the launching process's pages, which would bury small workloads under
// run.py's own footprint (and so does the engines' peak_rss_bytes).
uint64_t TrialPeakRssBytes() {
  uint64_t self_kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      unsigned long long kib = 0;
      if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) {
        self_kib = kib;
        break;
      }
    }
    std::fclose(f);
  }
  struct rusage children {};
  getrusage(RUSAGE_CHILDREN, &children);
  return std::max<uint64_t>(self_kib, static_cast<uint64_t>(children.ru_maxrss)) *
         1024;
}

double SumLoads(const BackendStats& st) {
  double total = 0.0;
  for (const auto& layer : st.cache_load) {
    for (double x : layer) total += x;
  }
  for (double x : st.server_load) total += x;
  return total;
}

// A fixed loop shaped like the engines' request path: per iteration a random
// draw, an alias-table lookup, a hash, a route lookup and a load-array update,
// over L2-sized tables (650 KB), as the paper cluster's are. It is the
// benchmark's own code, so no change to the simulator moves it; its speed
// moves only with the host's. Its tables are mapped directly, not taken from
// malloc, so the probe leaves the trial's allocator state as it found it.
// Returns nanoseconds per iteration.
double ProbeLoopNs() {
  constexpr uint32_t kSlots = 1u << 16;
  constexpr uint32_t kRoutes = 1u << 15;
  constexpr uint32_t kNodes = 1088;
  constexpr uint32_t kIters = 2'000'000;
  uint64_t x = 0;
  const auto next = [&x] {  // SplitMix64
    uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  constexpr size_t kBytes =
      (2 * kSlots + kRoutes) * sizeof(uint32_t) + kNodes * sizeof(double);
  void* block = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (block == MAP_FAILED) {
    std::perror("perfbench_harness: probe mmap");
    std::exit(1);
  }
  uint32_t* threshold = static_cast<uint32_t*>(block);
  uint32_t* alias = threshold + kSlots;
  uint32_t* route = alias + kSlots;
  double* load = reinterpret_cast<double*>(route + kRoutes);  // zero-filled
  for (uint32_t i = 0; i < kSlots; ++i) {
    threshold[i] = static_cast<uint32_t>(next());
    alias[i] = static_cast<uint32_t>(next() % kSlots);
  }
  for (uint32_t i = 0; i < kRoutes; ++i) {
    route[i] = static_cast<uint32_t>(next() % kNodes);
  }
  const int64_t t0 = MonotonicNs();
  for (uint32_t i = 0; i < kIters; ++i) {
    const uint64_t r = next();
    const uint32_t slot = static_cast<uint32_t>(r >> 48);
    const uint64_t key =
        static_cast<uint32_t>(r) < threshold[slot] ? slot : alias[slot];
    load[route[((key * 0xff51afd7ed558ccdULL) >> 40) & (kRoutes - 1)]] += 1.0;
  }
  const int64_t t1 = MonotonicNs();
  munmap(block, kBytes);
  return static_cast<double>(t1 - t0) / kIters;
}

// The probe loop on `threads` threads at once, as many as the engine runs
// shards, so a parallel engine's probe loads the CPUs its shards use. Returns
// the threads' mean nanoseconds per iteration.
double HostProbeNs(uint32_t threads) {
  std::vector<double> ns(threads);
  std::vector<std::thread> others;
  for (uint32_t i = 1; i < threads; ++i) {
    others.emplace_back([&ns, i] { ns[i] = ProbeLoopNs(); });
  }
  ns[0] = ProbeLoopNs();
  for (std::thread& t : others) t.join();
  double sum = 0.0;
  for (double x : ns) sum += x;
  return sum / threads;
}

// The host's speed around one trial: the median of kProbeReps probes before
// MakeSimBackend and kProbeReps after Run. A host that runs the probe slower
// runs the simulator slower too, so throughput × probe time cancels part of
// the drift a shared host adds, while a change to the simulator still moves it.
constexpr int kProbeReps = 3;

// The workloads are closed loops and record no latency, so their virtual
// latency is read off the run's own load split: every node is an M/M/1 station
// whose arrival share is the share of load the run charged it, and a read's
// latency is its hop cost plus the sojourn at the node that served it (the
// model of cluster/latency.h and the open-loop engines). The offered rate puts
// the busiest node at kMixtureUtilisation, so the figure stays finite on every
// split and a worse balance shows as a lower rate at a longer tail. Returns the
// p-th percentile (0..100) of the read latency mixture.
constexpr double kMixtureUtilisation = 0.59;

double LoadMixturePercentile(const BackendStats& st,
                             const distcache::SimBackendConfig& config,
                             double p) {
  struct Station {
    double share;
    double mu;
    double hops;
  };
  const std::vector<double> cache_rates =
      distcache::ResolveServiceRates(config.queue, config.cluster);
  const double total = SumLoads(st);
  std::vector<Station> stations;
  for (size_t l = 0; l < st.cache_load.size(); ++l) {
    for (double x : st.cache_load[l]) {
      stations.push_back({x / total, cache_rates[l], l + 1.0});
    }
  }
  const double server_hops = static_cast<double>(st.cache_load.size()) + 1.0;
  for (double x : st.server_load) {
    stations.push_back({x / total, config.queue.server_service_rate, server_hops});
  }
  double saturation_rate = std::numeric_limits<double>::infinity();
  for (const Station& s : stations) {
    if (s.share > 0.0) saturation_rate = std::min(saturation_rate, s.mu / s.share);
  }
  const double rate = kMixtureUtilisation * saturation_rate;
  const double hop = config.queue.hop_cost;
  const auto cdf = [&](double t) {
    double f = 0.0;
    for (const Station& s : stations) {
      const double wait = t - s.hops * hop;
      if (s.share > 0.0 && wait > 0.0) {
        f += s.share * (1.0 - std::exp(-(s.mu - rate * s.share) * wait));
      }
    }
    return f;
  };
  const double q = p / 100.0;
  double lo = 0.0;
  double hi = 1.0;
  while (cdf(hi) < q && hi < 1e12) hi *= 2.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    (cdf(mid) < q ? lo : hi) = mid;
  }
  return hi;
}

// The per-trial correctness checks; returns the names of those that failed.
std::vector<std::string> CheckTrial(const Workload& w, const BackendStats& st,
                                    double virt_p50, double virt_p99) {
  std::vector<std::string> failed;
  const auto check = [&failed](bool ok, const char* name) {
    if (!ok) failed.push_back(name);
  };
  check(st.requests == w.requests, "requests_executed");
  check(st.reads + st.writes == st.requests, "reads_plus_writes");
  check(st.spine_hits + st.leaf_hits == st.cache_hits, "layer_hit_split");
  check(st.dropped == 0, "no_drops");
  check(st.cache_hits + st.server_reads == st.reads, "read_conservation");
  check(st.failed_shards == 0, "failed_shards");
  check(st.degraded_fraction == 0.0, "degraded_fraction");
  if (w.config.cluster.write_ratio == 0.0) {
    // Read-only: every read charges exactly one load unit somewhere.
    check(std::abs(SumLoads(st) - static_cast<double>(st.reads)) <=
              1e-9 * static_cast<double>(st.reads),
          "load_conservation");
  }
  check(std::isfinite(virt_p50) && std::isfinite(virt_p99) && virt_p50 > 0.0,
        "virt_latency_finite");
  return failed;
}

int RunTrial(const Workload& w, bool traced) {
  Tracer tracer(traced);
  std::unique_ptr<distcache::SimBackend> backend;
  std::vector<double> probe_ns;
  const uint32_t probe_threads =
      w.kind == distcache::BackendKind::kSequential ? 1 : w.config.shards;
  for (int i = 0; i < kProbeReps; ++i) {
    probe_ns.push_back(HostProbeNs(probe_threads));
  }
  const int64_t t0 = MonotonicNs();
  {
    ScopedSpan span(tracer, "MakeSimBackend");
    backend = distcache::MakeSimBackend(w.kind, w.config);
  }
  const int64_t t1 = MonotonicNs();
  BackendStats st;
  {
    ScopedSpan span(tracer, "Run");
    st = backend->Run(w.requests);
  }
  const int64_t t2 = MonotonicNs();
  // Read before the probes below map their tables.
  const uint64_t peak_rss_bytes = TrialPeakRssBytes();
  for (int i = 0; i < kProbeReps; ++i) {
    probe_ns.push_back(HostProbeNs(probe_threads));
  }
  std::sort(probe_ns.begin(), probe_ns.end());
  const double probe_median_ns =
      0.5 * (probe_ns[kProbeReps - 1] + probe_ns[kProbeReps]);
  const double setup_s = static_cast<double>(t1 - t0) * 1e-9;
  const double run_s = static_cast<double>(t2 - t1) * 1e-9;

  const double virt_p50 = LoadMixturePercentile(st, w.config, 50.0);
  const double virt_p99 = LoadMixturePercentile(st, w.config, 99.0);
  const std::vector<std::string> failed = CheckTrial(w, st, virt_p50, virt_p99);

  JsonWriter out;
  out.StringList("failed_checks", failed);
  out.Num("setup_s", setup_s);
  out.Num("run_s", run_s);
  out.Num("probe_ns", probe_median_ns);
  out.Int("requests", st.requests);
  const double mrps = static_cast<double>(st.requests) / run_s / 1e6;
  out.Num("throughput_mrps", mrps);
  // Simulated requests per probe iteration: Mreq/s × ns/iteration / 1000.
  out.Num("throughput_per_probe", mrps * probe_median_ns * 1e-3);
  out.Num("peak_rss_mib",
          static_cast<double>(peak_rss_bytes) / (1024.0 * 1024.0));
  out.Num("hit_ratio", st.hit_ratio());
  out.Num("cache_imbalance", st.CacheImbalance());
  out.Num("server_imbalance", st.ServerImbalance());
  out.Num("virt_p50", virt_p50);
  out.Num("virt_p99", virt_p99);
  out.Hex("digest", distcache::DeterministicStatsDigest(st));
  out.Num("wall_seconds", st.wall_seconds);
  out.Int("shards", w.config.shards);
  out.Int("ring_messages", st.ring_messages);
  out.Int("cross_shard_messages", st.cross_shard_messages);
  out.Int("uncontended_receives", st.uncontended_receives);
  out.Int("contended_receives", st.contended_receives);
  out.Int("failed_shards", st.failed_shards);
  out.Int("respawned_shards", st.respawned_shards);
  out.Int("heartbeat_misses", st.heartbeat_misses);
  out.Int("controller_failovers", st.controller_failovers);
  out.Int("arena_bytes", st.arena_bytes);
  out.Raw("spans", tracer.Json());
  std::printf("%s\n", out.Finish().c_str());
  return 0;
}

int RunReference(const Workload& w) {
  const int64_t t0 = MonotonicNs();
  const BackendStats st =
      distcache::MakeSimBackend(w.reference, w.config)->Run(w.requests);
  JsonWriter out;
  out.Num("hit_ratio", st.hit_ratio());
  out.Num("cache_imbalance", st.CacheImbalance());
  out.Num("server_imbalance", st.ServerImbalance());
  out.Num("elapsed_s", static_cast<double>(MonotonicNs() - t0) * 1e-9);
  std::printf("%s\n", out.Finish().c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness trial <workload> <seed> <traced>\n"
               "       perfbench_harness reference <workload> <seed>\n"
               "       perfbench_harness layers <workload> <seed> <arena_bytes>\n"
               "       perfbench_harness fingerprint\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::string(argv[1]) == "fingerprint") {
    std::printf("{\"compiler\":\"%s\",\"build_type\":\"%s\"}\n",
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
    return 0;
  }
  if (argc < 4) {
    return Usage();
  }
  const std::string mode = argv[1];
  Workload w;
  if (!MakeWorkload(argv[2], std::strtoull(argv[3], nullptr, 10), &w)) {
    std::fprintf(stderr, "unknown workload: %s\n", argv[2]);
    return 2;
  }
  if (mode == "trial" && argc == 5) {
    return RunTrial(w, std::string(argv[4]) == "1");
  }
  if (mode == "reference" && argc == 4) {
    return RunReference(w);
  }
  if (mode == "layers" && argc == 5) {
    return RunLayers(w, std::strtoull(argv[4], nullptr, 10));
  }
  return Usage();
}
