#include "sim/sharded_backend.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>
#include <thread>
#include <utility>

#include "common/cacheline.h"
#include "common/hash.h"
#include "runtime/affinity.h"
#include "runtime/backoff.h"

namespace distcache {

namespace {

// Data-plane ring depth per directed shard pair. Traffic is O(epochs + 1) per
// pair (telemetry broadcasts plus one end-of-run delta flush), so 256 slots is
// deep backpressure headroom, not a tuning knob.
constexpr size_t kRingCapacity = 256;

}  // namespace

struct alignas(kCacheLineSize) ShardedBackend::Shard {
  Shard(uint32_t id, const ClusterModel* model, uint64_t seed, bool observer)
      : id(id),
        core(model, HashCombine(HashCombine(seed, 0x5aa4dedULL), id),
             HashCombine(HashCombine(seed, 0x90076eULL), id), observer) {}

  uint32_t id;
  EngineCore core;  // routing/degradation/timeline/stats core for this stream
  EventQueue queue;
  // Control plane (timeline, rendezvous, done). Data plane: data_in[p] is the
  // SPSC ring carrying peer p's telemetry/deltas to this shard (consumer side
  // lives with the receiver; slot [id] is unused).
  Channel<ShardMsg> inbox;
  std::vector<std::unique_ptr<SpscRing<ShardMsg>>> data_in;

  // Authoritative cumulative loads for *owned* nodes live in local.{cache,
  // server}_load; counters are shard-local partials. Merging all shards' stats
  // yields the global picture. Owned-node loads are materialized by the
  // end-of-run flush (FlushLoads), never written on the hot path.
  BackendStats local;

  // Dense per-node accumulation of this shard's own contributions — the only
  // hot-path load stores. own_cache doubles as the telemetry payload (cumulative
  // partials) and as the end-of-run delta source; own_server is flushed once at
  // quota end. Cache nodes are flat-indexed top-layer-first (LayerOffsets).
  // Cache-line-padded so no two shards' accumulators can share a line.
  CacheAlignedVector<double> own_cache;
  CacheAlignedVector<double> own_server;
  // last_partial[peer][flat]: the most recent partial received from `peer`, so
  // telemetry application can fold in only the monotone increment.
  std::vector<std::vector<double>> last_partial;
  std::vector<ShardMsg> out;        // flush assembly, one slot per destination shard
  CacheAlignedVector<uint32_t> batch_keys;  // sampled buckets for the current batch
  uint64_t processed = 0;
  uint32_t done_seen = 0;

  // Current phase's sampler: the backend-shared phase-0 table, or this shard's
  // rebuilt one after a phase boundary. Exactly one of sampler / two_level is
  // active (two-level mode swaps the dense alias table for the O(hot) one).
  const AliasSampler* sampler = nullptr;
  std::unique_ptr<AliasSampler> phase_sampler;
  const TwoLevelSampler* two_level = nullptr;
  std::unique_ptr<TwoLevelSampler> phase_two_level;

  // Timeline bookkeeping: steps queued from the controller multicast (the core
  // applies them at this shard's scaled local clock), plus re-allocation
  // rendezvous state for out-of-order arrivals.
  size_t timeline_received = 0;
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> pending_reports;
  std::unique_ptr<ShardMsg> pending_route_update;
  double quota_scale = 1.0;  // quota / num_requests

  std::thread thread;
};

// The branch-free hot-path sink: every charge is two dense array adds (own
// contribution + optimistic local view). No owner test, no shared write — the
// owner split is deferred to FlushLoads at quota end.
struct ShardedBackend::ShardSink {
  ShardedBackend* backend;
  Shard* shard;

  void AddCacheLoad(CacheNodeId node, double delta) {
    shard->own_cache[backend->shard_map_.FlatIndex(node)] += delta;
    shard->core.view().Add(node, delta);  // optimistic local view
  }
  void AddServerLoad(uint32_t server, double delta) {
    shard->own_server[server] += delta;
  }
};

ShardedBackend::ShardedBackend(const SimBackendConfig& config)
    : config_(config),
      model_(config.cluster, /*build_popularity=*/!config.two_level_sampling),
      shard_map_(
          [this] {
            std::vector<uint32_t> sizes;
            for (const LayerSpec& layer : model_.layers) {
              sizes.push_back(layer.nodes);
            }
            return sizes;
          }(),
          model_.num_servers(), config.shards),
      sampler_(model_.head_with_tail) {
  model_.dense_routes = config_.dense_routes;
  base_routes_ = std::make_shared<const RouteTable>(BuildRouteTable(model_));
  if (config_.batch_size == 0) {
    config_.batch_size = 1;  // a 0-request batch would respawn itself forever
  }
  if (config_.two_level_sampling) {
    two_level_ = std::make_unique<TwoLevelSampler>(
        model_.cfg.num_keys, model_.cfg.zipf_theta, model_.pool);
  }
  // Snapshot walk: every step's post-step route table / pmf is a pure function
  // of the timeline prefix, precomputed here off the hot path (base_routes_
  // first — the walk mutates the controller state).
  plan_ = BuildTimelinePlan(config_, model_);
}

ShardedBackend::~ShardedBackend() = default;

void ShardedBackend::SendData(Shard& shard, uint32_t peer, ShardMsg msg) {
  SpscRing<ShardMsg>& ring = *shards_[peer]->data_in[shard.id];
  Backoff backoff;
  while (!ring.TryPush(std::move(msg))) {
    // Full ring: the receiver is behind on its drains. Consuming our own rings
    // while retrying guarantees global progress (no send cycle can wedge: some
    // shard in it always empties a ring).
    DrainDataRings(shard);
    backoff.Pause();
  }
  ++shard.local.cross_shard_messages;
  ++shard.local.ring_messages;
}

void ShardedBackend::SendControl(Shard& shard, uint32_t peer, ShardMsg msg) {
  const bool sent = shards_[peer]->inbox.Send(std::move(msg));
  assert(sent);  // shard control channels are never closed while workers run
  (void)sent;
  ++shard.local.cross_shard_messages;
}

void ShardedBackend::QueueTimelineMsg(Shard& shard, const ShardMsg& msg) {
  shard.core.QueueAction({static_cast<double>(msg.event.at_request) *
                              shard.quota_scale,
                          msg.is_phase, msg.phase, msg.event, msg.pmf,
                          msg.route_table});
  ++shard.timeline_received;
}

void ShardedBackend::BroadcastTimeline(Shard& shard, uint64_t num_requests) {
  (void)num_requests;  // the filter already happened when fired_plan_ was built
  for (const TimelineStep& step : fired_plan_) {
    ShardMsg msg;
    msg.kind = ShardMsg::Kind::kClusterEvent;
    msg.from = shard.id;
    msg.is_phase = step.is_phase;
    msg.phase = step.phase;
    msg.event = step.event;
    msg.event.at_request = step.at_request;  // phase steps carry it here too
    msg.pmf = step.pmf;
    msg.route_table = step.routes;
    for (uint32_t peer = 0; peer < shard_map_.shards(); ++peer) {
      if (peer != shard.id) {
        SendControl(shard, peer, msg);  // copy: same snapshot to every peer
      }
    }
    QueueTimelineMsg(shard, msg);
  }
}

std::optional<ShardMsg> ShardedBackend::WaitControl(Shard& shard) {
  Backoff backoff;
  while (true) {
    if (auto msg = shard.inbox.TryReceive()) {
      return msg;
    }
    if (shard.inbox.closed()) {
      return std::nullopt;  // shutdown under the waiter
    }
    // Keep the data plane moving while parked: a waiting shard must never
    // wedge a producer on a full ring.
    DrainDataRings(shard);
    backoff.Pause();
  }
}

std::shared_ptr<const RouteTable> ShardedBackend::Reallocate(Shard& shard) {
  const uint32_t controller = shard_map_.controller_shard();
  const uint32_t peers = shard_map_.shards() - 1;
  if (shard.id == controller) {
    // Collect every shard's observed counts. Peers are guaranteed to reach the
    // same step (it precedes their quota), so this barrier cannot deadlock;
    // unrelated traffic keeps being applied while we wait.
    std::vector<std::vector<std::pair<uint64_t, uint32_t>>> reports;
    reports.push_back(shard.core.ObservedCounts());
    uint32_t received = 0;
    while (!shard.pending_reports.empty() && received < peers) {
      reports.push_back(std::move(shard.pending_reports.back()));
      shard.pending_reports.pop_back();
      ++received;
    }
    while (received < peers) {
      auto msg = WaitControl(shard);
      if (!msg) {
        return nullptr;  // channel closed
      }
      if (msg->kind == ShardMsg::Kind::kHotReport) {
        reports.push_back(std::move(msg->hot_counts));
        ++received;
      } else {
        Apply(shard, *msg);
      }
    }
    // Every shard has applied the same event prefix when it reaches the
    // rendezvous, so the controller shard's alive set is the cluster's; and
    // every shard's pending actions are the same fired_plan_ suffix, so one
    // rebuild serves the whole cluster.
    ApplyReallocation(model_, shard.core, reports);
    const ReallocatedRoutes routes =
        RebuildReallocatedRoutes(fired_plan_, model_, shard.core);
    shard.core.SetPendingRoutes(routes.suffix);
    for (uint32_t peer = 0; peer < shard_map_.shards(); ++peer) {
      if (peer == shard.id) {
        continue;
      }
      ShardMsg update;
      update.kind = ShardMsg::Kind::kRouteUpdate;
      update.from = shard.id;
      update.route_table = routes.now;
      update.suffix_routes = routes.suffix;
      SendControl(shard, peer, std::move(update));
    }
    return routes.now;
  }
  // Non-controller: report local observations, then wait for the new table.
  ShardMsg report;
  report.kind = ShardMsg::Kind::kHotReport;
  report.from = shard.id;
  report.hot_counts = shard.core.ObservedCounts();
  SendControl(shard, controller, std::move(report));
  if (shard.pending_route_update != nullptr) {
    const auto update = std::exchange(shard.pending_route_update, nullptr);
    shard.core.SetPendingRoutes(update->suffix_routes);
    return update->route_table;
  }
  while (true) {
    auto msg = WaitControl(shard);
    if (!msg) {
      return nullptr;  // channel closed
    }
    if (msg->kind == ShardMsg::Kind::kRouteUpdate) {
      shard.core.SetPendingRoutes(msg->suffix_routes);
      return msg->route_table;
    }
    Apply(shard, *msg);
  }
}

void ShardedBackend::Apply(Shard& shard, ShardMsg& msg) {
  switch (msg.kind) {
    case ShardMsg::Kind::kLoadDeltas:
      for (const auto& [node, delta] : msg.cache_entries) {
        shard.local.cache_load[node.layer][node.index] += delta;
      }
      for (const auto& [server, delta] : msg.server_entries) {
        shard.local.server_load[server] += delta;
      }
      break;
    case ShardMsg::Kind::kTelemetry: {
      // Fold in the sender's monotone increment since its previous broadcast; the
      // view stays the sum of per-shard partials plus our exact own counts.
      std::vector<double>& last = shard.last_partial[msg.from];
      for (uint32_t flat = 0; flat < msg.cache_partials.size(); ++flat) {
        const double delta = msg.cache_partials[flat] - last[flat];
        if (delta != 0.0) {
          shard.core.view().Add(shard_map_.NodeOfFlat(flat), delta);
          last[flat] = msg.cache_partials[flat];
        }
      }
      break;
    }
    case ShardMsg::Kind::kClusterEvent:
      // FIFO per sender: steps arrive in timeline order. Queue for application
      // at this shard's local scaled timestamp (batch-boundary check).
      QueueTimelineMsg(shard, msg);
      break;
    case ShardMsg::Kind::kHotReport:
      // A peer is already at its next kReallocateCache step; stash until this
      // shard's rendezvous consumes it.
      shard.pending_reports.push_back(std::move(msg.hot_counts));
      break;
    case ShardMsg::Kind::kRouteUpdate:
      shard.pending_route_update = std::make_unique<ShardMsg>(std::move(msg));
      break;
    case ShardMsg::Kind::kDone:
      ++shard.done_seen;
      break;
  }
}

void ShardedBackend::DrainDataRings(Shard& shard) {
  for (uint32_t peer = 0; peer < shard_map_.shards(); ++peer) {
    SpscRing<ShardMsg>& ring = *shard.data_in[peer];
    // EmptyApprox first: the idle-peer case (the common one at batch
    // boundaries) is a single acquire load, no slot traffic.
    if (ring.EmptyApprox()) {
      continue;
    }
    while (auto msg = ring.TryPop()) {
      Apply(shard, *msg);
    }
  }
}

void ShardedBackend::PollInbox(Shard& shard) {
  DrainDataRings(shard);
  // Control channel: the lock-free emptiness probe makes the (overwhelmingly
  // common) no-control-traffic poll mutex-free. The uncontended/contended
  // split is counted here — at the batch boundary only — so wait-loop spins
  // (WaitControl) cannot inflate the hot-path poll statistics.
  if (shard.inbox.empty_approx()) {
    ++shard.local.uncontended_receives;
    return;
  }
  ++shard.local.contended_receives;
  while (auto msg = shard.inbox.TryReceive()) {
    Apply(shard, *msg);
  }
}

void ShardedBackend::FlushLoads(Shard& shard) {
  // End-of-run owner split (the hot path never tests ownership): own cumulative
  // contributions land either in this shard's authoritative counters or in one
  // delta message per owning shard. Loads are sums of exactly-representable
  // costs, so materializing the total here instead of accumulating per request
  // is bit-identical.
  for (uint32_t flat = 0; flat < shard.own_cache.size(); ++flat) {
    const double delta = shard.own_cache[flat];
    if (delta == 0.0) {
      continue;
    }
    const CacheNodeId node = shard_map_.NodeOfFlat(flat);
    if (shard_map_.OwnerOfFlat(flat) == shard.id) {
      shard.local.cache_load[node.layer][node.index] += delta;
    } else {
      shard.out[shard_map_.OwnerOfFlat(flat)].cache_entries.emplace_back(node,
                                                                         delta);
    }
  }
  for (uint32_t server = 0; server < shard.own_server.size(); ++server) {
    const double delta = shard.own_server[server];
    if (delta == 0.0) {
      continue;
    }
    if (shard_map_.OwnerOfServer(server) == shard.id) {
      shard.local.server_load[server] += delta;
    } else {
      shard.out[shard_map_.OwnerOfServer(server)].server_entries.emplace_back(
          server, delta);
    }
  }
  for (uint32_t peer = 0; peer < shard_map_.shards(); ++peer) {
    ShardMsg& pending = shard.out[peer];
    if (pending.cache_entries.empty() && pending.server_entries.empty()) {
      continue;
    }
    ShardMsg msg;
    msg.kind = ShardMsg::Kind::kLoadDeltas;
    msg.from = shard.id;
    msg.cache_entries = std::move(pending.cache_entries);
    msg.server_entries = std::move(pending.server_entries);
    pending.cache_entries.clear();
    pending.server_entries.clear();
    SendData(shard, peer, std::move(msg));
  }
}

void ShardedBackend::BroadcastTelemetry(Shard& shard) {
  ShardMsg msg;
  msg.kind = ShardMsg::Kind::kTelemetry;
  msg.from = shard.id;
  msg.cache_partials.assign(shard.own_cache.begin(), shard.own_cache.end());
  for (uint32_t peer = 0; peer < shard_map_.shards(); ++peer) {
    if (peer != shard.id) {
      SendData(shard, peer, msg);  // copy: same snapshot to every peer
    }
  }
}

void ShardedBackend::ProcessBatch(Shard& shard, uint32_t count) {
  PollInbox(shard);
  // Apply timeline steps whose scaled timestamp the local request clock has
  // reached (accurate to one batch; deterministic under OS scheduling skew),
  // then close any due sample intervals.
  shard.core.AdvanceTo(shard.processed);
  shard.batch_keys.resize(count);
  if (shard.two_level != nullptr) {
    shard.two_level->SampleBatch(shard.core.rng(), shard.batch_keys.data(), count);
  } else {
    shard.sampler->SampleBatch(shard.core.rng(), shard.batch_keys.data(), count);
  }
  ShardSink sink{this, &shard};
  shard.core.ProcessBatch(sink, shard.batch_keys.data(), count);
  shard.processed += count;
}

void ShardedBackend::ShardMain(Shard& shard, uint64_t quota, uint64_t num_requests) {
  if (config_.pin_cores) {
    // One shard per core: stops the scheduler migrating shards mid-run, which
    // both steadies bench numbers and keeps each shard's working set on the
    // core (and NUMA node) that first touched it.
    PinToCore(shard.id);
  }
  const uint32_t num_cache_nodes = shard_map_.num_cache_nodes();
  shard.local.cache_load = model_.ZeroCacheLoads();
  shard.local.server_load.assign(model_.num_servers(), 0.0);
  shard.own_cache.assign(num_cache_nodes, 0.0);
  shard.own_server.assign(model_.num_servers(), 0.0);
  shard.last_partial.assign(shard_map_.shards(),
                            std::vector<double>(num_cache_nodes, 0.0));
  shard.out.resize(shard_map_.shards());
  shard.sampler = &sampler_;
  shard.two_level = two_level_.get();
  shard.quota_scale = num_requests == 0
                          ? 0.0
                          : static_cast<double>(quota) / static_cast<double>(num_requests);
  shard.core.BindStats(&shard.local);
  shard.core.SetRoutes(base_routes_);
  // Open-loop: each shard simulates an independent full-rate time slice of the
  // cluster (full arrival rate, full service rates, its own queue horizons), so
  // the quota-end Merge of per-shard histograms is a union of slices rather
  // than a re-timed interleaving. The time stream mixes in the shard id — the
  // key/write streams already diverge per shard the same way.
  shard.core.ConfigureOpenLoop(
      config_.queue,
      HashCombine(HashCombine(config_.cluster.seed, 0x0be71457ULL), shard.id));
  shard.core.SetSampleStep(static_cast<double>(config_.sample_interval) *
                           shard.quota_scale);
  shard.core.SetPhaseHook(
      [this, &shard](const WorkloadPhase& phase,
                     const std::shared_ptr<const std::vector<double>>& pmf) {
        if (shard.two_level != nullptr) {
          // Closed-form O(hot) rebuild from the phase's skew — no pmf exists
          // in two-level mode. Consumes no RNG, like the dense rebuild.
          shard.phase_two_level = std::make_unique<TwoLevelSampler>(
              model_.cfg.num_keys, phase.zipf_theta, model_.pool);
          shard.two_level = shard.phase_two_level.get();
        } else if (pmf != nullptr) {
          // O(pool) rebuild, amortized over the phase; consumes no RNG, so the
          // shard's key stream stays deterministic.
          shard.phase_sampler = std::make_unique<AliasSampler>(*pmf);
          shard.sampler = shard.phase_sampler.get();
        }
      });
  shard.core.SetReallocateHook([this, &shard] { return Reallocate(shard); });

  const size_t expected_steps = fired_plan_.size();
  if (expected_steps > 0) {
    if (shard.id == shard_map_.controller_shard()) {
      BroadcastTimeline(shard, num_requests);
    } else {
      // Deterministic rendezvous: the plan length is config-known, so wait
      // until the controller's multicast has fully arrived before processing any
      // request — otherwise a step timestamped near 0 could race the first
      // batches. Only kClusterEvent control traffic can be in flight at this
      // point (every non-controller shard is parked here), but Apply() handles
      // any kind.
      while (shard.timeline_received < expected_steps) {
        auto msg = WaitControl(shard);
        if (!msg) {
          break;  // channel closed
        }
        Apply(shard, *msg);
      }
    }
  }

  // Event-driven shard loop: one simulated time unit per request. Batch events
  // self-reschedule until the quota is met; telemetry events fire every epoch.
  std::function<void()> batch_event = [&] {
    if (shard.processed >= quota) {
      return;
    }
    const uint32_t count = static_cast<uint32_t>(
        std::min<uint64_t>(config_.batch_size, quota - shard.processed));
    ProcessBatch(shard, count);
    if (shard.processed < quota) {
      shard.queue.Schedule(static_cast<double>(count), batch_event);
    }
  };
  std::function<void()> telemetry_event = [&] {
    if (shard.processed >= quota) {
      return;
    }
    BroadcastTelemetry(shard);
    shard.queue.Schedule(static_cast<double>(config_.epoch_requests),
                         telemetry_event);
  };
  shard.queue.Schedule(0.0, batch_event);
  if (config_.epoch_requests > 0 && shard_map_.shards() > 1) {
    shard.queue.Schedule(static_cast<double>(config_.epoch_requests),
                         telemetry_event);
  }
  shard.queue.RunUntil(static_cast<double>(quota) + 1.0);

  // Catch-up: steps whose scaled timestamp landed inside the final batch (or a
  // zero quota) were not seen by a batch boundary; apply them now so every shard
  // participates in every rendezvous and series indices stay aligned.
  shard.core.AdvanceTo(quota);

  // Quota done: split the accumulated own contributions into owner-local
  // counters and one delta message per destination (the deferred owner split),
  // tell every peer over the control channel, then absorb in-flight traffic
  // until all peers are done too. Ring pushes happen-before the sender's kDone,
  // so the final drain below cannot miss a delta.
  FlushLoads(shard);
  for (uint32_t peer = 0; peer < shard_map_.shards(); ++peer) {
    if (peer == shard.id) {
      continue;
    }
    ShardMsg done;
    done.kind = ShardMsg::Kind::kDone;
    done.from = shard.id;
    SendControl(shard, peer, std::move(done));
  }
  {
    const uint32_t peers = shard_map_.shards() - 1;
    while (shard.done_seen < peers) {
      auto msg = WaitControl(shard);
      if (!msg) {
        break;  // channel closed
      }
      Apply(shard, *msg);
    }
    DrainDataRings(shard);  // every peer's final deltas are visible now
  }
  shard.core.FinishSeries(shard.processed);
  shard.local.requests = shard.processed;
  // Memory accounting (max-merged across shards, sim_backend.h): the shared
  // plan figure is identical per shard; the sampler figure is this shard's
  // currently active table (base or per-phase rebuild — same size either way).
  shard.local.peak_rss_bytes = CurrentPeakRssBytes();
  shard.local.route_table_bytes = PlanRouteTableBytes(base_routes_.get(), plan_);
  shard.local.sampler_bytes = shard.two_level != nullptr
                                  ? shard.two_level->bytes()
                                  : shard.sampler->bytes();
}

BackendStats ShardedBackend::Run(uint64_t num_requests) {
  const uint32_t n = shard_map_.shards();
  const bool observer =
      TimelineNeedsObserver(config_.events, config_.cluster.cache_policy);
  fired_plan_.clear();
  for (const TimelineStep& step : plan_) {
    if (step.at_request < num_requests) {
      fired_plan_.push_back(step);  // at/beyond the Run's count: never fires
    }
  }
  shards_.clear();
  shards_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(i, &model_, config_.cluster.seed, observer));
  }
  for (uint32_t i = 0; i < n; ++i) {
    shards_[i]->data_in.reserve(n);
    for (uint32_t from = 0; from < n; ++from) {
      shards_[i]->data_in.push_back(
          std::make_unique<SpscRing<ShardMsg>>(kRingCapacity));
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t quota = num_requests / n + (i < num_requests % n ? 1 : 0);
    Shard* shard = shards_[i].get();
    shard->thread = std::thread(
        [this, shard, quota, num_requests] { ShardMain(*shard, quota, num_requests); });
  }
  for (auto& shard : shards_) {
    shard->thread.join();
  }
  const auto t1 = std::chrono::steady_clock::now();

  BackendStats total;
  for (auto& shard : shards_) {
    total.Merge(shard->local);
  }
  total.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  shards_.clear();
  return total;
}

}  // namespace distcache
