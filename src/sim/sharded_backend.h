// The sharded, event-driven cluster runtime.
//
// Topology nodes (cache switches + storage servers) are partitioned across N worker
// shards by net/shard_map.h; each shard owns the authoritative cumulative load
// counters of its nodes. Every shard runs its own discrete-event loop (one
// sim/event_queue.h EventQueue) with two event types:
//
//   * batch events   — process `batch_size` (256 by default) requests through the amortized hot
//                      path: alias-table key sampling (common/alias_sampler.h) and
//                      the shared request core's staged batch loop
//                      (sim/engine_core.h ProcessBatch) over precomputed per-rank
//                      route entries (sim/route_table.h) and the shard's local
//                      LoadTracker view;
//   * telemetry events — every `epoch_requests` simulated requests the shard
//                      broadcasts a dense snapshot of its *own cumulative per-node
//                      contributions* to all peers (the §4.2 telemetry epoch).
//
// Two transports (the multi-core scaling substrate — see ARCHITECTURE "hot-path
// rules"):
//
//   * data plane — one lock-free SPSC ring (runtime/spsc_ring.h) per directed
//     shard pair carries everything rate-proportional to requests: telemetry
//     partials and end-of-run load deltas. The batch-boundary poll of an idle
//     ring is one acquire load; a send never takes a lock or wakes a futex. A
//     full ring rejects the push and the sender drains its own rings before
//     retrying, which cannot deadlock (every shard's send loop also consumes).
//   * control plane — the mutex Channel (runtime/channel.h) carries the
//     O(reconfigurations) traffic: the timeline multicast, the re-allocation
//     rendezvous (kHotReport/kRouteUpdate) and the kDone end-of-stream markers.
//     Its batch-boundary poll is resolved by the channel's lock-free emptiness
//     fast path; the uncontended/contended split is reported in BackendStats.
//
// Load views are *partial-sum gossip*: a shard's LoadTracker view of a switch is
// its own exact contribution (updated per request via LoadTracker::Add) plus the
// latest monotone partial received from every peer. Receivers fold broadcasts in as
// `new_partial - last_seen_partial`, so views stay consistent sums regardless of
// how the OS schedules the worker threads — broadcasting absolute owner loads
// instead would mix snapshots of different ages and systematically misroute. The
// view error for any switch is bounded by what peers routed to it within one epoch:
// the bounded-staleness invariant that keeps the PoT process stationary (see
// core/load_tracker.h).
//
// Owner-authoritative statistics (per-node cumulative loads for the final report)
// are partitioned by net/shard_map.h — but the split happens *off* the hot path:
// every charge lands branch-free in the shard's dense own-contribution arrays
// (which double as the telemetry payload), and only the end-of-run flush divides
// them into owner-local counters vs one delta message per destination shard. The
// request loop therefore contains no owner test, no lock, and no write to any
// line another thread reads.
//
// Timeline (failures §4.4, workload phases / hot-spot shift / re-allocation §6.4):
// the controller shard (net/shard_map.h controller_shard()) multicasts the merged
// TimelineStep plan (sim/engine_core.h BuildTimelinePlan) once before request
// processing, each step carrying its immutable precomputed snapshot — a route
// table, and for phase switches the pmf each shard rebuilds its alias sampler
// from. Each shard applies a step when its *local* request clock reaches the
// step's timestamp scaled to its quota (checked at batch boundaries, so
// application is accurate to within one batch and immune to OS scheduling skew;
// a final catch-up at the quota applies steps landing inside the last batch).
//
// kReallocateCache is the one step whose effect cannot be precomputed: the new
// allocation depends on runtime-observed popularity. It runs as a rendezvous —
// every shard, on reaching the step, sends its heavy-hitter counts (kHotReport)
// to the controller shard and waits; the controller merges the reports
// (sketch/heavy_hitter.h), refills the allocation hottest-first
// (core/allocation.h), builds the new route table and multicasts it
// (kRouteUpdate) — the same push-new-routes plumbing failure recovery uses. The
// merged counts are sums of deterministic per-shard streams, so the rebuilt
// allocation is deterministic despite the runtime rendezvous. Every wait in the
// rendezvous (and the final drain below) keeps consuming the waiter's data
// rings, so a blocked peer can never wedge a producer on a full ring.
//
// Termination: a shard that finishes its quota flushes its deltas over the data
// rings, sends kDone to every peer over the control channel, and waits until it
// has seen kDone from all peers; ring pushes happen-before the corresponding
// kDone (release on the ring tail, then the channel mutex), so one final ring
// drain after the last kDone observes every in-flight delta before stats merge.
#ifndef DISTCACHE_SIM_SHARDED_BACKEND_H_
#define DISTCACHE_SIM_SHARDED_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/alias_sampler.h"
#include "net/shard_map.h"
#include "runtime/channel.h"
#include "runtime/spsc_ring.h"
#include "sim/cluster_model.h"
#include "sim/engine_core.h"
#include "sim/event_queue.h"
#include "sim/route_table.h"
#include "sim/shard_message.h"
#include "sim/sim_backend.h"

namespace distcache {

class ShardedBackend : public SimBackend {
 public:
  explicit ShardedBackend(const SimBackendConfig& config);
  ~ShardedBackend() override;  // out-of-line: Shard is incomplete here

  std::string name() const override { return "sharded"; }
  BackendStats Run(uint64_t num_requests) override;

 private:
  struct Shard;
  struct ShardSink;

  void ShardMain(Shard& shard, uint64_t quota, uint64_t num_requests);
  // Controller role: multicast the precomputed timeline plan over the control
  // channels before processing starts (steps at/after num_requests never fire
  // and are not sent).
  void BroadcastTimeline(Shard& shard, uint64_t num_requests);
  void QueueTimelineMsg(Shard& shard, const ShardMsg& msg);
  void ProcessBatch(Shard& shard, uint32_t count);
  // kReallocateCache rendezvous (header comment): returns the post-reallocation
  // route table, or null if the control channels were shut down mid-rendezvous.
  std::shared_ptr<const RouteTable> Reallocate(Shard& shard);
  // Data plane: lock-free push into the receiver's per-sender ring; on a full
  // ring, drains this shard's own rings and retries (deadlock-free, see above).
  void SendData(Shard& shard, uint32_t peer, ShardMsg msg);
  // Control plane: mutex-channel send (timeline, rendezvous, done markers).
  void SendControl(Shard& shard, uint32_t peer, ShardMsg msg);
  void BroadcastTelemetry(Shard& shard);
  void FlushLoads(Shard& shard);
  // Non-blocking absorb of everything pending: data rings, then the control
  // channel (lock-free fast path when empty).
  void PollInbox(Shard& shard);
  void DrainDataRings(Shard& shard);
  // Control-plane wait: polls the control channel, keeps draining data rings,
  // and backs off (yield, then micro-sleep) between rounds. Returns nullopt
  // only if the channel was closed under the waiter (shutdown).
  std::optional<ShardMsg> WaitControl(Shard& shard);
  void Apply(Shard& shard, ShardMsg& msg);

  SimBackendConfig config_;
  ClusterModel model_;
  ShardMap shard_map_;
  AliasSampler sampler_;            // head ranks + one tail bucket (phase 0)
  // Opt-in O(hot) sampler (config.two_level_sampling): when set, shards draw
  // from it (or their per-phase rebuild) instead of sampler_ — a different RNG
  // stream, differentially validated, never golden-pinned.
  std::unique_ptr<TwoLevelSampler> two_level_;
  std::shared_ptr<const RouteTable> base_routes_;  // pre-timeline snapshot
  std::vector<TimelineStep> plan_;  // merged events+phases, with snapshots
  // plan_ restricted to steps that fire within the current Run (at_request <
  // num_requests) — exactly what every shard queues, so action indices align
  // across shards and with the controller's suffix rebuilds.
  std::vector<TimelineStep> fired_plan_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace distcache

#endif  // DISTCACHE_SIM_SHARDED_BACKEND_H_
