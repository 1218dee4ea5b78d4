// The traced run's per-layer replays. Each replay calls one layer's public
// functions from here, on the workload's own config and inputs, inside a span;
// spans inside the engines are not part of this benchmark. A layer the
// workload's engine does not run reads 0, so the traced figures show which
// layers each workload exercises. Metric names are `<module>.<metric>`;
// README.md maps each to the end-to-end metric and workload it should move.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/alias_sampler.h"
#include "common/hash.h"
#include "common/random.h"
#include "json.h"
#include "runtime/shm_arena.h"
#include "runtime/shm_ring.h"
#include "runtime/spsc_ring.h"
#include "sim/cluster_model.h"
#include "sim/engine_core.h"
#include "sim/route_table.h"
#include "sim/shard_message.h"
#include "sim/stats_codec.h"
#include "sketch/heavy_hitter.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace distcache;

constexpr uint32_t kReplayRequests = 4'000'000;  // captured bucket stream
constexpr int kHotReps = 3;    // repetitions of each hot-path replay
constexpr int kSetupReps = 3;  // repetitions of each setup-layer call
constexpr int kSmallReps = 51; // repetitions of microsecond-scale calls
constexpr uint64_t kRingMessages = 200'000;
constexpr size_t kRingCapacity = 256;  // both engines' data-ring capacity

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Times `fn` inside a span named `name`; returns seconds.
template <typename Fn>
double Timed(Tracer& tracer, const std::string& name, int parent, Fn&& fn) {
  ScopedSpan span(tracer, name, parent);
  const int64_t t0 = MonotonicNs();
  fn();
  return static_cast<double>(MonotonicNs() - t0) * 1e-9;
}

// The workload sampler its engine draws from: the two-level sampler when
// two-level sampling is on, else the alias table. (The sequential engine
// without two-level sampling draws from an inverse-CDF table; no workload
// runs it.)
struct EngineSampler {
  std::unique_ptr<AliasSampler> alias;
  std::unique_ptr<TwoLevelSampler> two_level;

  EngineSampler(const Workload& w, const ClusterModel& model) {
    if (w.config.two_level_sampling) {
      two_level = std::make_unique<TwoLevelSampler>(
          model.cfg.num_keys, model.cfg.zipf_theta, model.pool);
    } else {
      alias = std::make_unique<AliasSampler>(model.head_with_tail);
    }
  }
  size_t bytes() const { return two_level ? two_level->bytes() : alias->bytes(); }
  void Fill(Rng& rng, uint32_t* out, size_t n) const {
    if (two_level) {
      two_level->SampleBatch(rng, out, n);
    } else {
      alias->SampleBatch(rng, out, n);
    }
  }
};

// Charges loads into local cumulative counters and refreshes the telemetry
// view in place — the sequential engine's sink, with no transport behind it.
struct LocalSink {
  BackendStats* st;
  LoadTracker* view;
  void AddCacheLoad(CacheNodeId node, double delta) {
    double& load = st->cache_load[node.layer][node.index];
    load += delta;
    view->Set(node, load);
  }
  void AddServerLoad(uint32_t server, double delta) {
    st->server_load[server] += delta;
  }
};

// The engines' heavy-hitter observer sizing (sim/engine_core.cc).
HeavyHitterDetector::Config ObserverConfig(uint64_t pool) {
  HeavyHitterDetector::Config cfg;
  cfg.sketch.width = 1 << 18;
  cfg.sketch.counter_max = std::numeric_limits<uint32_t>::max();
  cfg.report_threshold = 2;
  cfg.max_reports_per_epoch = static_cast<size_t>(2 * pool);
  return cfg;
}

class LayerReplay {
 public:
  LayerReplay(const Workload& w, uint64_t arena_bytes)
      : w_(w),
        arena_bytes_(arena_bytes),
        seed_(w.config.cluster.seed),
        shards_(w.kind == BackendKind::kSequential ? 1 : w.config.shards),
        observer_(TimelineNeedsObserver(w.config.events)) {}

  int Run() {
    root_ = tracer_.Begin("layers");
    Setup();
    HotPath();
    if (observer_) {
      Sketch();
      Realloc();
    } else {
      for (const char* name : {"sketch.record_ns", "sketch.top_reports_us",
                               "sketch.merge_reports_us", "sim.realloc_compute_s"}) {
        Put(name, 0.0);
      }
    }
    Transport();
    tracer_.End(root_);
    if (!ring_ok_) {
      std::fprintf(stderr, "ring replay lost or reordered messages\n");
      return 1;
    }
    JsonWriter metrics;
    for (const auto& [name, value] : metrics_) {
      metrics.Num(name.c_str(), value);
    }
    JsonWriter out;
    out.Raw("metrics", metrics.Finish());
    out.Raw("spans", tracer_.Json());
    std::printf("%s\n", out.Finish().c_str());
    return 0;
  }

 private:
  void Put(const std::string& name, double value) { metrics_[name] = value; }

  // Model, route table, sampler and plan: what MakeSimBackend builds, in the
  // engines' order (the base routes snapshot the allocation before the plan
  // walk mutates the controller state).
  void Setup() {
    const int parent = tracer_.Begin("setup", root_);
    std::vector<double> model_s, route_s, sampler_s, plan_s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      sampler_.reset();
      plan_.clear();
      routes_.reset();
      model_.reset();
      model_s.push_back(Timed(tracer_, "ClusterModel", parent, [&] {
        model_ = std::make_unique<ClusterModel>(w_.config.cluster,
                                                !w_.config.two_level_sampling);
      }));
      route_s.push_back(Timed(tracer_, "BuildRouteTable", parent, [&] {
        routes_ = std::make_shared<const RouteTable>(BuildRouteTable(*model_));
      }));
      sampler_s.push_back(Timed(tracer_, "sampler_build", parent, [&] {
        sampler_ = std::make_unique<EngineSampler>(w_, *model_);
      }));
      plan_s.push_back(Timed(tracer_, "BuildTimelinePlan", parent, [&] {
        plan_ = BuildTimelinePlan(w_.config, *model_);
      }));
    }
    tracer_.End(parent);
    Put("sim.model_build_s", Median(model_s));
    Put("sim.route_build_s", Median(route_s));
    Put("sim.route_table_bytes",
        static_cast<double>(PlanRouteTableBytes(routes_.get(), plan_)));
    Put("common.sampler_build_s", Median(sampler_s));
    Put("common.sampler_bytes", static_cast<double>(sampler_->bytes()));
    Put("sim.plan_build_s", Median(plan_s));
    Put("bench.setup_layers_s", Median(model_s) + Median(route_s) +
                                    Median(sampler_s) + Median(plan_s));
  }

  // One EngineCore::ProcessBatch pass over the captured stream, at the
  // engine's batch size. Returns ns per request; leaves the stats in *st.
  double ReplayCore(const std::string& name, int parent, bool observer,
                    BackendStats* st) {
    EngineCore core(model_.get(), HashCombine(seed_, 0xc1057e4ULL),
                    HashCombine(seed_, 0x90076eULL), observer);
    *st = BackendStats{};
    st->cache_load = model_->ZeroCacheLoads();
    st->server_load.assign(model_->num_servers(), 0.0);
    core.BindStats(st);
    core.SetRoutes(routes_);
    LocalSink sink{st, &core.view()};
    const uint32_t batch = w_.config.batch_size;
    const double s = Timed(tracer_, name, parent, [&] {
      for (uint32_t i = 0; i < kReplayRequests; i += batch) {
        core.ProcessBatch(sink, buckets_.data() + i,
                          std::min(batch, kReplayRequests - i));
      }
    });
    return s * 1e9 / kReplayRequests;
  }

  void HotPath() {
    const int parent = tracer_.Begin("hot_path", root_);
    buckets_.resize(kReplayRequests);
    Rng rng(HashCombine(seed_, 0x5a3b1e5ULL));
    std::vector<double> sample_ns, core_ns, observer_ns;
    for (int rep = 0; rep < kHotReps; ++rep) {
      sample_ns.push_back(Timed(tracer_, "sampler.Sample", parent, [&] {
                            sampler_->Fill(rng, buckets_.data(), kReplayRequests);
                          }) *
                          1e9 / kReplayRequests);
    }
    for (int rep = 0; rep < kHotReps; ++rep) {
      core_ns.push_back(
          ReplayCore("EngineCore::ProcessBatch", parent, false, &partial_));
      if (observer_) {
        observer_ns.push_back(ReplayCore("EngineCore::ProcessBatch+observer",
                                         parent, true, &partial_));
      }
    }
    tracer_.End(parent);
    Put("common.sample_ns", Median(sample_ns));
    Put("sim.core_ns", Median(core_ns));
    Put("sim.core_observer_ns", Median(observer_ns));
    // The core variant the workload's engine runs, for sim.unexplained_ns.
    Put("bench.engine_core_ns", Median(observer_ ? observer_ns : core_ns));
  }

  // Heavy-hitter observer and controller aggregation over the post-shift key
  // stream, split into one slice per shard as the engines split it.
  void Sketch() {
    const int parent = tracer_.Begin("sketch", root_);
    const ClusterConfig& cc = model_->cfg;
    const uint64_t shift = HotShift();
    std::vector<uint64_t> keys(kReplayRequests);
    Rng tail_rng(HashCombine(seed_, 0x7a11ULL));
    for (uint32_t i = 0; i < kReplayRequests; ++i) {
      const uint64_t rank =
          buckets_[i] == model_->pool
              ? model_->pool + tail_rng.NextBounded(cc.num_keys - model_->pool)
              : buckets_[i];
      keys[i] = KeyOfRank(rank, shift, cc.num_keys);
    }
    std::vector<double> record_ns, top_us, merge_us;
    for (int rep = 0; rep < kHotReps; ++rep) {
      std::vector<std::unique_ptr<HeavyHitterDetector>> detectors;
      for (uint32_t s = 0; s < shards_; ++s) {
        detectors.push_back(
            std::make_unique<HeavyHitterDetector>(ObserverConfig(model_->pool)));
      }
      const uint32_t slice = kReplayRequests / shards_;
      record_ns.push_back(Timed(tracer_, "HeavyHitterDetector::Record", parent, [&] {
                            for (uint32_t i = 0; i < slice * shards_; ++i) {
                              detectors[i / slice]->Record(keys[i]);
                            }
                          }) *
                          1e9 / (slice * shards_));
      reports_.clear();
      for (const auto& d : detectors) {
        top_us.push_back(Timed(tracer_, "TopReports", parent, [&] {
                           reports_.push_back(d->TopReports());
                         }) *
                         1e6);
      }
      merge_us.push_back(Timed(tracer_, "MergeHeavyHitterReports", parent, [&] {
                           merged_ = MergeHeavyHitterReports(reports_);
                         }) *
                         1e6);
    }
    tracer_.End(parent);
    Put("sketch.record_ns", Median(record_ns));
    Put("sketch.top_reports_us", Median(top_us));
    Put("sketch.merge_reports_us", Median(merge_us));
  }

  // The controller's re-allocation: refill from the merged reports, rebuild
  // the routes, rebuild the rest of the timeline's snapshots.
  void Realloc() {
    const int parent = tracer_.Begin("control_plane", root_);
    std::vector<uint64_t> hottest;
    for (const auto& [key, count] : merged_) {
      hottest.push_back(key);
    }
    const std::vector<uint8_t> alive(model_->cfg.num_spine, 1);
    // The engines rebuild the plan steps after the one that re-allocated.
    size_t from = 0;
    while (from < plan_.size() &&
           (plan_[from].is_phase ||
            plan_[from].event.kind != ClusterEvent::Kind::kReallocateCache)) {
      ++from;
    }
    ++from;
    std::vector<double> realloc_s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      realloc_s.push_back(Timed(tracer_, "ReallocateCache", parent, [&] {
        model_->ReallocateCache(hottest);
        BuildRouteTable(*model_, HotShift());
        RebuildPlanSuffixRoutes(plan_, from, *model_, alive, HotShift());
      }));
    }
    tracer_.End(parent);
    Put("sim.realloc_compute_s", Median(realloc_s));
  }

  size_t CacheNodes() const {
    size_t n = 0;
    for (const LayerSpec& layer : model_->layers) n += layer.nodes;
    return n;
  }

  uint64_t HotShift() const {
    for (const ClusterEvent& e : w_.config.events) {
      if (e.kind == ClusterEvent::Kind::kShiftHotspot) {
        return e.value;
      }
    }
    return 0;
  }

  // Ring transport, stats codec, merge and arena: what the parallel engines
  // add around the request core. The sequential engine has none of them.
  void Transport() {
    const int parent = tracer_.Begin("transport", root_);
    double ring_ns = 0.0;
    double merge_us = 0.0;
    double ser_us = 0.0;
    double de_us = 0.0;
    double blob_bytes = 0.0;
    double map_us = 0.0;
    if (w_.kind != BackendKind::kSequential) {
      std::vector<double> ring, merge;
      for (int rep = 0; rep < kHotReps; ++rep) {
        ring.push_back(Timed(tracer_, "ring", parent, [&] {
                         ring_ok_ &= w_.kind == BackendKind::kSharded ? ShardedRing()
                                                                      : ShmRing();
                       }) *
                       1e9 / kRingMessages);
      }
      ring_ns = Median(ring);
      for (int rep = 0; rep < kSmallReps; ++rep) {
        BackendStats merged;
        merge.push_back(Timed(tracer_, "BackendStats::Merge", parent, [&] {
                          for (uint32_t s = 0; s < shards_; ++s) {
                            merged.Merge(partial_);
                          }
                        }) *
                        1e6);
      }
      merge_us = Median(merge);
    }
    if (w_.kind == BackendKind::kMultiproc) {
      std::vector<uint8_t> blob(StatsCodecBound(partial_.cache_load.size(),
                                                CacheNodes(),
                                                partial_.server_load.size(), 0));
      std::vector<double> ser, de, map;
      size_t len = 0;
      for (int rep = 0; rep < kSmallReps; ++rep) {
        ser.push_back(Timed(tracer_, "SerializeBackendStats", parent, [&] {
                        len = SerializeBackendStats(partial_, blob.data(),
                                                    blob.size());
                      }) *
                      1e6);
        BackendStats back;
        de.push_back(Timed(tracer_, "DeserializeBackendStats", parent, [&] {
                       DeserializeBackendStats(blob.data(), len, &back);
                     }) *
                     1e6);
      }
      for (int rep = 0; rep < kHotReps && arena_bytes_ > 0; ++rep) {
        map.push_back(Timed(tracer_, "ShmArena::Map", parent, [&] {
                        ShmArena arena;
                        if (arena.Map(arena_bytes_, false)) {
                          // First touch of every page, as the engine's setup
                          // and prefault do.
                          for (size_t off = 0; off < arena.size(); off += 4096) {
                            arena.base()[off] = 1;
                          }
                        }
                      }) *
                      1e6);
      }
      ser_us = Median(ser);
      de_us = Median(de);
      blob_bytes = static_cast<double>(len);
      map_us = Median(map);
    }
    tracer_.End(parent);
    Put("runtime.ring_ns_per_msg", ring_ns);
    Put("sim.merge_us", merge_us);
    Put("sim.codec_serialize_us", ser_us);
    Put("sim.codec_deserialize_us", de_us);
    Put("sim.stats_blob_bytes", blob_bytes);
    Put("runtime.arena_map_us", map_us);
  }

  // The sharded engine's telemetry message over its in-process ring: one
  // producer and one consumer thread, and both know the message count, so
  // the consumer never polls a ring the producer has finished with.
  // Returns whether every message arrived, in order.
  bool ShardedRing() const {
    const size_t nodes = CacheNodes();
    SpscRing<ShardMsg> ring(kRingCapacity);
    std::thread producer([&] {
      for (uint64_t i = 0; i < kRingMessages; ++i) {
        ShardMsg msg;
        msg.kind = ShardMsg::Kind::kTelemetry;
        msg.cache_partials.assign(nodes, static_cast<double>(i));
        while (!ring.TryPush(std::move(msg))) {
        }
      }
    });
    bool in_order = true;
    for (uint64_t got = 0; got < kRingMessages;) {
      if (auto msg = ring.TryPop()) {
        in_order &= msg->cache_partials.front() == static_cast<double>(got);
        ++got;
      }
    }
    producer.join();
    return in_order;
  }

  // The multiproc engine's shared-memory ring at its telemetry slot size
  // (header plus one double per cache node, 1 KiB payload floor): stage,
  // publish, front and pop, one producer and one consumer thread.
  // Returns whether every message arrived, in order.
  bool ShmRing() const {
    const size_t nodes = CacheNodes();
    const size_t slot = 16 + std::max<size_t>(nodes * sizeof(double), 1024);
    std::vector<uint8_t> payload(slot, 0x5a);
    std::unique_ptr<uint8_t[]> storage(
        new uint8_t[ShmSpscRing::BytesFor(kRingCapacity, slot) + kCacheLineSize]);
    void* base = storage.get() +
                 (kCacheLineSize - reinterpret_cast<uintptr_t>(storage.get()) %
                                       kCacheLineSize) %
                     kCacheLineSize;
    auto* hdr = new (base) ShmSpscRing::SharedHeader();
    hdr->tail.store(0);
    hdr->head.store(0);
    ShmSpscRing producer_view(base, kRingCapacity, slot);
    ShmSpscRing consumer_view(base, kRingCapacity, slot);
    producer_view.SyncFromShared();
    consumer_view.SyncFromShared();
    std::thread producer([&] {
      for (uint64_t i = 0; i < kRingMessages; ++i) {
        void* dst = nullptr;
        while ((dst = producer_view.TryStage()) == nullptr) {
        }
        std::memcpy(payload.data(), &i, sizeof(i));
        std::memcpy(dst, payload.data(), slot);
        producer_view.Publish();
      }
    });
    bool in_order = true;
    std::vector<uint8_t> in(slot);
    for (uint64_t got = 0; got < kRingMessages;) {
      if (const void* src = consumer_view.Front()) {
        std::memcpy(in.data(), src, slot);
        consumer_view.Pop();
        uint64_t seq = 0;
        std::memcpy(&seq, in.data(), sizeof(seq));
        in_order &= seq == got;
        ++got;
      }
    }
    producer.join();
    hdr->~SharedHeader();
    return in_order;
  }

  const Workload& w_;
  const uint64_t arena_bytes_;
  const uint64_t seed_;
  const uint32_t shards_;
  const bool observer_;
  Tracer tracer_{true};
  int root_ = 0;
  bool ring_ok_ = true;
  std::map<std::string, double> metrics_;
  std::unique_ptr<ClusterModel> model_;
  std::shared_ptr<const RouteTable> routes_;
  std::unique_ptr<EngineSampler> sampler_;
  std::vector<TimelineStep> plan_;
  std::vector<uint32_t> buckets_;
  BackendStats partial_;  // one replayed shard partial, for codec and merge
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> reports_;
  std::vector<std::pair<uint64_t, uint64_t>> merged_;
};

}  // namespace

int RunLayers(const Workload& w, uint64_t arena_bytes) {
  return LayerReplay(w, arena_bytes).Run();
}

}  // namespace perfbench
