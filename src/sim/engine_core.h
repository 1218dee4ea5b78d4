// EngineCore — the engine-agnostic request core shared by the request-level
// simulation backends.
//
// The sequential reference engine and every sharded worker execute the same
// per-request semantics: route-table key resolution, PoT candidate choice with
// dead-node degradation, write/coherence accounting, timeline-event application
// (failures, hot-spot shifts, online cache re-allocation, workload phases) and
// per-interval series bookkeeping. This class owns that path once; the engines
// differ only in how they drive it:
//
//   * the sequential backend runs one EngineCore in batches cut at the next
//     timeline action, sample point and telemetry epoch (NextAdvanceAt), so it
//     advances at batch starts yet applies actions at exact request timestamps;
//   * each sharded worker runs its own EngineCore, advancing it at batch
//     boundaries with timeline timestamps scaled to the shard's quota, and with
//     load charging / telemetry routed through the owner-partitioned gossip
//     machinery (see sharded_backend.h);
//   * the fluid backend keeps its analytic path but consumes the same timeline
//     (see cluster/fluid_backend.h).
//
// Load charging is abstracted behind a Sink (AddCacheLoad/AddServerLoad): the
// sequential sink writes the global cumulative counters and refreshes the
// telemetry view in place, the sharded sink splits charges into owner-local
// counters, unsent deltas and gossip partials. Everything else — who is a
// candidate, who wins, what a write costs, what gets dropped — is shared code, so
// a new scenario lands in one place instead of three.
//
// Timeline model: a run's reconfigurations (SimBackendConfig::events) and workload
// phases (SimBackendConfig::phases) are merged into an ordered plan by
// BuildTimelinePlan(). Steps whose effect is a pure function of the timeline
// prefix (phase switches, hot-spot shifts, failure remaps) carry precomputed
// immutable snapshots — a route table and, for phases, the head+tail pmf the
// engine rebuilds its sampler from. kReallocateCache steps carry no snapshot: the
// controller recomputes the allocation at runtime from *observed* per-key counts
// (the core's heavy-hitter observer), which is the paper's §6.4 cache-update
// loop. Re-allocation composes with failure events in both directions: the
// realloc hooks re-sync the controller remap to the alive set at that timestamp
// (failures before), and rebuild the remaining steps' snapshots against the
// refilled allocation via RebuildPlanSuffixRoutes (failures/shifts after) — so a
// post-reallocation switch restoration keeps the refilled cached set instead of
// resurrecting the construction-time one.
#ifndef DISTCACHE_SIM_ENGINE_CORE_H_
#define DISTCACHE_SIM_ENGINE_CORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/cacheline.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/workload.h"
#include "core/cache_policy.h"
#include "core/load_tracker.h"
#include "core/pot_router.h"
#include "sim/cluster_model.h"
#include "sim/route_table.h"
#include "sim/sim_backend.h"
#include "sketch/heavy_hitter.h"

namespace distcache {

// One entry of the merged (events + phases) timeline, in config request units.
struct TimelineStep {
  uint64_t at_request = 0;
  bool is_phase = false;
  WorkloadPhase phase;  // valid when is_phase
  ClusterEvent event;   // valid when !is_phase
  // Phase payload: the head+tail pmf under phase.zipf_theta (layout of
  // ClusterModel::head_with_tail) the engines rebuild their samplers from.
  std::shared_ptr<const std::vector<double>> pmf;
  // Immutable post-step route table, when precomputable (null for kFailSpine,
  // which changes no routes, and for kReallocateCache, which is runtime-computed).
  std::shared_ptr<const RouteTable> routes;
};

// Merges config.events and config.phases into one plan ordered by at_request
// (phases before events on timestamp ties; list order otherwise preserved),
// precomputing each step's snapshot. Mutates `model`'s controller/allocation state
// while walking the failure remaps — the same end state the runtime reads back.
std::vector<TimelineStep> BuildTimelinePlan(const SimBackendConfig& config,
                                            ClusterModel& model);

// Recomputes the route-table snapshots of plan[from..] against the model's
// *current* allocation (the re-allocation hooks call this right after a runtime
// Refill, so failure/shift steps after a kReallocateCache route the refilled
// cached set instead of the construction-time one). `alive_now`/`shift_now` seed
// the replayed alive-set and rotation transitions. Returns one (possibly null)
// table per suffix step, aligned with plan[from..]; mutates the model's
// controller state to the end-of-suffix remap, exactly like BuildTimelinePlan.
std::vector<std::shared_ptr<const RouteTable>> RebuildPlanSuffixRoutes(
    const std::vector<TimelineStep>& plan, size_t from, ClusterModel& model,
    std::vector<uint8_t> alive_now, uint64_t shift_now);

// True when the timeline contains a kReallocateCache step — the engines then
// build the core's heavy-hitter observer, which records reads only inside the
// windows a re-allocation consumes (EngineCore::UpdateRecordingWindow).
bool TimelineNeedsObserver(const std::vector<ClusterEvent>& events);

// Total bytes of the base route table plus every precomputed plan snapshot —
// the figure the engines stamp into BackendStats::route_table_bytes. Tables a
// runtime re-allocation builds are not included: they depend on observed
// counts, so they do not exist when the figure is stamped. Each adds up to one
// dense pool-sized table (on the paper-default cluster, 51200 entries).
uint64_t PlanRouteTableBytes(const RouteTable* base,
                             const std::vector<TimelineStep>& plan);

class EngineCore {
 public:
  // A TimelineStep localized to one engine stream's clock. `at_local` is the
  // step's at_request scaled to the stream's share of the run (identity for the
  // sequential engine, quota/num_requests for a shard).
  struct Action {
    double at_local = 0.0;
    bool is_phase = false;
    WorkloadPhase phase;
    ClusterEvent event;
    std::shared_ptr<const std::vector<double>> pmf;
    std::shared_ptr<const RouteTable> routes;
    // Non-owning alternative to `routes`: a route snapshot resident in memory
    // that outlives the run (the multiproc engine's arena-resident plan). When
    // `has_route_view` is set the view wins and `routes` is ignored.
    bool has_route_view = false;
    const RouteEntry* route_view = nullptr;
    size_t route_view_len = 0;
    const uint32_t* overflow_view = nullptr;
  };

  // Rebuild-the-sampler callback, invoked after the core switched phase state.
  // Must not consume engine RNG (streams stay deterministic across phase counts).
  using PhaseHook =
      std::function<void(const WorkloadPhase&,
                         const std::shared_ptr<const std::vector<double>>& pmf)>;
  // kReallocateCache callback: returns the post-reallocation route table (null
  // keeps the current one). The sequential engine recomputes locally from
  // ObservedCounts(); the sharded engine runs the controller rendezvous.
  using ReallocateHook = std::function<std::shared_ptr<const RouteTable>()>;

  // `model` outlives the core and is read-only on the hot path. `rng_seed` /
  // `router_seed` preserve each engine's historical stream derivation.
  EngineCore(const ClusterModel* model, uint64_t rng_seed, uint64_t router_seed,
             bool enable_observer);

  // ---- run wiring ----------------------------------------------------------
  void BindStats(BackendStats* stats) { stats_ = stats; }
  void SetPhaseHook(PhaseHook hook) { phase_hook_ = std::move(hook); }
  void SetReallocateHook(ReallocateHook hook) { realloc_hook_ = std::move(hook); }
  void SetRoutes(std::shared_ptr<const RouteTable> routes) {
    routes_ = std::move(routes);
    route_data_ = routes_ ? routes_->entries.data() : nullptr;
    route_overflow_ = routes_ ? routes_->overflow.data() : nullptr;
    route_hot_len_ = routes_ ? static_cast<uint32_t>(routes_->entries.size()) : 0;
  }
  // Non-owning route snapshot (the arena-resident plan): the caller guarantees
  // the arrays outlive every request routed through them. Compact semantics are
  // identical to SetRoutes — ranks at or beyond `hot_len` take the computed
  // uncached fallback.
  void SetRouteView(const RouteEntry* entries, size_t hot_len,
                    const uint32_t* overflow) {
    routes_.reset();
    route_data_ = entries;
    route_overflow_ = overflow;
    route_hot_len_ = static_cast<uint32_t>(hot_len);
  }
  // Interval-series step in local request units (0 disables series bookkeeping).
  // Resets the interval mark, so call once per Run before processing.
  void SetSampleStep(double step) {
    sample_step_ = step > 0.0 ? step : 0.0;
    next_sample_at_ = sample_step_;
    interval_mark_ = BackendStats::IntervalPoint{};
  }
  // Enables the open-loop virtual-time layer (sim_backend.h QueueModelConfig
  // comment: Poisson arrivals, per-node FIFO queues, per-layer service rates,
  // hop costs). `time_seed` derives the dedicated time RNG — a separate stream
  // from the request RNG, so the key/write draws of an open-loop run are
  // bit-identical to the closed-loop run of the same config (tested). No-op
  // when the arrival process is disabled; must be called before processing.
  void ConfigureOpenLoop(const QueueModelConfig& queue, uint64_t time_seed);
  // Actions must be queued in at_local order (the plan/multicast order).
  void QueueAction(Action action) {
    actions_.push_back(std::move(action));
    UpdateRecordingWindow();
  }
  // Drops queued/applied actions so a Run can re-queue its plan. Note this does
  // NOT rewind routing/phase/failure state to the pre-timeline snapshot — a
  // backend that already replayed a timeline is not a fresh backend. Every
  // driver in this repo constructs a new backend per Run; do the same rather
  // than re-Running one whose timeline mutated state.
  void ClearActions() {
    actions_.clear();
    next_action_ = 0;
    UpdateRecordingWindow();
  }
  // Index of the next unapplied action — inside the reallocate hook this is the
  // first post-reallocation step, the start of the suffix whose snapshots the
  // hook replaces.
  size_t next_action_index() const { return next_action_; }
  // Swaps the route snapshot of the pending action at `index` (used by the
  // reallocate hooks to install suffix tables rebuilt against the refilled
  // allocation). Applied actions are never patched.
  void SetActionRoutes(size_t index, std::shared_ptr<const RouteTable> routes) {
    if (index >= next_action_ && index < actions_.size()) {
      actions_[index].routes = std::move(routes);
      actions_[index].has_route_view = false;
    }
  }
  // View flavor of SetActionRoutes (arena-published suffix tables).
  void SetActionRouteView(size_t index, const RouteEntry* entries,
                          size_t hot_len, const uint32_t* overflow) {
    if (index >= next_action_ && index < actions_.size()) {
      actions_[index].routes.reset();
      actions_[index].has_route_view = true;
      actions_[index].route_view = entries;
      actions_[index].route_view_len = hot_len;
      actions_[index].overflow_view = overflow;
    }
  }

  // Applies every queued action with at_local <= processed (events fire just
  // before the request that reaches their timestamp), then closes any due sample
  // intervals. Engines call this at batch starts: the sequential engine cuts its
  // batches at NextAdvanceAt(), so it acts at exact request indices; the shard
  // engines act at their fixed batch boundaries.
  void AdvanceTo(uint64_t processed) {
    const double now = static_cast<double>(processed);
    if (next_action_ < actions_.size() &&
        actions_[next_action_].at_local <= now) {
      do {
        ApplyAction(actions_[next_action_++]);
      } while (next_action_ < actions_.size() &&
               actions_[next_action_].at_local <= now);
      UpdateRecordingWindow();
    }
    if (sample_step_ > 0.0) {
      while (now >= next_sample_at_) {
        stats_->CloseIntervalAt(processed, interval_mark_);
        next_sample_at_ += sample_step_;
      }
    }
  }

  // The first request index at which AdvanceTo would act: the ceiling of the
  // next queued action's timestamp or of the next sample point, whichever is
  // first (UINT64_MAX when neither exists). Right after AdvanceTo(i) it is
  // past i, and AdvanceTo at any index before it is a no-op.
  uint64_t NextAdvanceAt() const;

  // Closes the trailing partial interval at end of run.
  void FinishSeries(uint64_t processed) {
    if (sample_step_ > 0.0 && processed > interval_mark_.requests) {
      stats_->CloseIntervalAt(processed, interval_mark_);
    }
  }

  // ---- hot path ------------------------------------------------------------
  // One request's input from the core RNG: the sampled bucket (a head rank, or
  // model->pool for the aggregated tail bucket), the key rank it resolves to
  // (the bucket itself for head ranks) and the write flag.
  struct RequestInput {
    uint64_t rank;
    uint32_t bucket;
    bool is_write;
  };
  // Draws the write flag (only when the phase has writes), then a tail
  // bucket's rank: the core RNG order of every engine, right after the
  // sampler's draw for the same request. The only later draw is
  // TransitBlackholed inside Process, and only while TransitCanDraw().
  RequestInput DrawInput(uint32_t bucket) {
    RequestInput in;
    in.bucket = bucket;
    in.is_write = write_ratio_ > 0.0 && rng_.NextBernoulli(write_ratio_);
    in.rank = bucket == model_->pool
                  ? model_->pool +
                        rng_.NextBounded(model_->cfg.num_keys - model_->pool)
                  : bucket;
    return in;
  }

  // Executes one request from its drawn input. Charges loads through `sink`:
  //   sink.AddCacheLoad(CacheNodeId, double)  — cache switch charge; the sink
  //       owns the telemetry-view update policy (see class comment);
  //   sink.AddServerLoad(uint32_t, double)    — storage server charge.
  // `observed`, when set, is the read's key staged on the observer ahead of
  // time (ProcessBatch); otherwise a recording read hashes its key here.
  template <typename Sink>
  void Process(Sink& sink, const RequestInput& in,
               const HeavyHitterDetector::Staged* observed = nullptr);

  // Policy variants behind the single dispatch branch in Process() (PR 5
  // hot-path rule: the default kDistCache path pays exactly one
  // perfectly-predicted compare, keeping the golden runs bit-identical and the
  // throughput within the gate). ProcessSerialStatic routes to the first alive
  // candidate instead of the PoT choice; ProcessPolicy drives the per-node
  // dynamic cache runtime (core/cache_policy.h).
  template <typename Sink>
  void ProcessSerialStatic(Sink& sink, const RequestInput& in,
                           const HeavyHitterDetector::Staged* observed);
  template <typename Sink>
  void ProcessPolicy(Sink& sink, const RequestInput& in,
                     const HeavyHitterDetector::Staged* observed);

  // Batched hot path over drawn inputs: executes `count` requests in order,
  // software-prefetching the route-table entries of upcoming requests a fixed
  // distance ahead and, inside a recording window, their observer cells. The
  // caller drew `inputs` in request order and must not span a batch across a
  // TransitCanDraw() window: Process would then draw after later inputs.
  template <typename Sink>
  void ProcessBatch(Sink& sink, const RequestInput* inputs, uint32_t count);
  // Batched hot path over sampled buckets (the shard engines): each request's
  // input is drawn right before it runs, so the RNG order matches one
  // request at a time. Inside a recording window with no transit draws, the
  // whole batch's inputs are drawn first — the same order, since Process then
  // draws nothing — and run through the prefetching overload above.
  template <typename Sink>
  void ProcessBatch(Sink& sink, const uint32_t* buckets, uint32_t count);

  // ---- open-loop virtual time ----------------------------------------------
  // Hot-path rule (same discipline as the policy dispatch byte): each helper
  // opens with one never-taken compare against the construction-time open_loop_
  // byte, so the closed-loop path pays a perfectly-predicted branch, consumes
  // no time RNG, and stays bit-identical to the pre-layer goldens. When the
  // layer is on, exactly one completion terminal (OpenLoopServer / OpenLoopCache)
  // runs per delivered request; drops advance the clock but record nothing.
  bool open_loop() const { return open_loop_ != 0; }
  double virtual_now() const { return vnow_; }

  // Poisson arrival: advances the virtual clock by an exponential gap at the
  // (burst-modulated) instantaneous rate. Called once per request, before any
  // routing work, so the arrival process is independent of the request mix.
  void OpenLoopArrive() {
    if (__builtin_expect(open_loop_ == 0, 1)) {
      return;
    }
    vnow_ += time_rng_.NextExponential(arrival_.RateAt(vnow_));
  }
  // Completion at the primary storage server: full-descent hop count.
  void OpenLoopServer(uint32_t server) {
    if (__builtin_expect(open_loop_ == 0, 1)) {
      return;
    }
    RecordDeparture(server_free_at_[server], server_rate_,
                    static_cast<double>(model_->num_layers()) + 1.0);
  }
  // Completion at a cache switch: a layer-l hit is l+1 hops from the client.
  void OpenLoopCache(CacheNodeId node) {
    if (__builtin_expect(open_loop_ == 0, 1)) {
      return;
    }
    RecordDeparture(cache_free_at_[node.layer][node.index],
                    layer_rate_[node.layer],
                    static_cast<double>(node.layer) + 1.0);
  }

  // True while TransitBlackholed draws from the core RNG: a spine is dead and
  // the controller's recovery has not run. Changes only at timeline actions.
  bool TransitCanDraw() const { return !recovery_ran_ && dead_spines_ > 0; }
  // True when the request must be dropped: pre-recovery ECMP transit through one
  // of the dead spine switches. Consumes RNG only while TransitCanDraw().
  bool TransitBlackholed() {
    return TransitCanDraw() &&
           rng_.NextBounded(model_->cfg.num_spine) < dead_spines_;
  }

  // ---- state shared with the engines ---------------------------------------
  Rng& rng() { return rng_; }
  LoadTracker& view() { return view_; }
  double write_ratio() const { return write_ratio_; }
  uint64_t hot_shift() const { return hot_shift_; }
  uint32_t dead_spines() const { return dead_spines_; }
  const std::vector<uint8_t>& spine_alive() const { return spine_alive_; }

  // Failure degradation targets the top ("spine") layer: a candidate is
  // blackholed iff it is a dead top-layer node. Lower layers never die (the leaf
  // layer is rack-bound; mid layers inherit the same assumption for now).
  bool NodeDead(CacheNodeId node) const {
    return node.layer == 0 && dead_spines_ > 0 && !spine_alive_[node.index];
  }

  // The observer's per-key heavy-hitter reports since the last phase boundary /
  // hot-spot shift / re-allocation, in ascending key order — what the
  // controller re-allocates from, after MergeHeavyHitterReports ranks them.
  // Each shard sorts only its own keys, and the merge reads the lists as they
  // are. Empty when the observer is disabled, and outside a recording window
  // (see UpdateRecordingWindow).
  std::vector<std::pair<uint64_t, uint32_t>> ObservedCounts() const {
    return observer_ ? observer_->ReportsByKey()
                     : std::vector<std::pair<uint64_t, uint32_t>>{};
  }
  // The observer's sizing for a candidate pool of `pool` ranks. Its
  // max_reports_per_epoch bounds every ObservedCounts() list.
  static HeavyHitterDetector::Config ObserverConfig(uint64_t pool);

  // True when a kReallocateCache action is still queued past the current one —
  // inside the reallocate hook, whether this re-allocation is the run's last.
  bool ReallocatePending() const;

  // The dynamic-policy runtime (null for kDistCache/kStaticTopK) — tests read
  // its counters and node caches.
  const CachePolicyRuntime* policy_runtime() const { return policy_.get(); }

 private:
  // Applies one action's state transition (ApplyStep), then resets the
  // observer when the action is one that opens a new observation window.
  void ApplyAction(const Action& action);
  void ApplyStep(const Action& action);
  // FIFO queue discipline at one station: the request starts service when both
  // it and the node are ready, holds the node for an exponential service time,
  // and its end-to-end latency is the network hops plus everything spent at the
  // node (wait + service).
  void RecordDeparture(double& free_at, double rate, double hops) {
    const double start = free_at > vnow_ ? free_at : vnow_;
    const double depart = start + time_rng_.NextExponential(rate);
    free_at = depart;
    stats_->latency.Add(hops * hop_cost_ + (depart - vnow_));
  }
  void ResetObserver() {
    if (observer_) {
      observer_->NewEpoch();
    }
  }
  // ProcessBatch's look-ahead, in requests.
  static constexpr uint32_t kPrefetchDistance = 16;
  // Compact tables leave buckets past the hot prefix (and the tail bucket)
  // with no entry to fetch; clamp those to entry 0 — one cmov, and the formed
  // address stays inside the allocation.
  static void PrefetchRoute(const RouteEntry* data, uint32_t hot_len,
                            uint32_t bucket) {
    __builtin_prefetch(&data[bucket < hot_len ? bucket : 0], 0, 1);
  }
  // Records one read in a recording window (recorder_ set).
  void Observe(uint64_t key, const HeavyHitterDetector::Staged* observed) {
    if (observed != nullptr) {
      recorder_->Record(*observed);
    } else {
      recorder_->Record(key);
    }
  }
  // Recording windows: ObservedCounts() is read only by a kReallocateCache
  // step, and every phase, hot-spot shift and re-allocation resets the
  // observer. A read is therefore recorded only while the next pending
  // resetting action is a kReallocateCache; every other read would be wiped
  // before anyone looks. Re-derived when the pending action list changes (queue,
  // clear, apply), never per request.
  void UpdateRecordingWindow();

  const ClusterModel* model_;
  Rng rng_;
  LoadTracker view_;
  PotRouter router_;
  BackendStats* stats_ = nullptr;

  std::shared_ptr<const RouteTable> routes_;  // null when a view is installed
  const RouteEntry* route_data_ = nullptr;      // hot-path view of the snapshot
  const uint32_t* route_overflow_ = nullptr;    // candidate runs of k>2 entries
  // Stored hot-prefix length of the current snapshot: buckets at or beyond it
  // are uncached by construction and take the computed-server fallback in
  // Process (dense tables make this the pool, so the branch is never taken).
  uint32_t route_hot_len_ = 0;

  // Current workload-phase state.
  double write_ratio_;
  uint64_t hot_shift_ = 0;

  // Failure-degradation state (see sequential_backend.h for the semantics).
  std::vector<uint8_t> spine_alive_;
  uint32_t dead_spines_ = 0;
  bool recovery_ran_ = true;  // partitions start mapped to their home switches

  // Controller-side popularity observer driving kReallocateCache (§6.4). The
  // sketch is wider than the data-plane one (§5): the simulated controller
  // aggregates reports in software, so we trade memory for clean separation of
  // hot keys from sampled-tail noise, and let counters exceed 16 bits.
  std::unique_ptr<HeavyHitterDetector> observer_;
  // observer_ inside a recording window, null outside — the hot path's only
  // observer test.
  HeavyHitterDetector* recorder_ = nullptr;

  std::vector<Action> actions_;
  size_t next_action_ = 0;

  double sample_step_ = 0.0;
  double next_sample_at_ = 0.0;
  BackendStats::IntervalPoint interval_mark_;

  std::vector<CacheNodeId> scratch_candidates_;  // kReplicated slow path
  std::vector<RequestInput> staged_inputs_;      // bucket ProcessBatch, windows

  // Open-loop virtual-time state (ConfigureOpenLoop). time_rng_ is a dedicated
  // stream so enabling the layer never perturbs the key/write draws; free_at
  // arrays are per-node FIFO horizons in virtual time.
  uint8_t open_loop_ = 0;
  Rng time_rng_{0};
  ArrivalConfig arrival_;
  double hop_cost_ = 0.2;
  double vnow_ = 0.0;
  double server_rate_ = 1.0;
  std::vector<double> layer_rate_;                   // per cache layer, top first
  std::vector<std::vector<double>> cache_free_at_;   // [layer][node]
  std::vector<double> server_free_at_;

  // Cache-policy dispatch (set once at construction from cfg.cache_policy; the
  // default path tests one always-equal byte and falls through).
  enum PolicyMode : uint8_t { kStaticPot = 0, kSerialStatic = 1, kDynamicPolicy = 2 };
  uint8_t policy_mode_ = kStaticPot;
  std::unique_ptr<CachePolicyRuntime> policy_;  // kDynamicPolicy only
  std::vector<CacheNodeId> scratch_copies_;     // write-through copy list
  std::vector<uint32_t> scratch_servers_;       // dirty write-back targets

  PhaseHook phase_hook_;
  ReallocateHook realloc_hook_;
};

template <typename Sink>
void EngineCore::Process(Sink& sink, const RequestInput& in,
                         const HeavyHitterDetector::Staged* observed) {
  // Open-loop arrival first (a no-op compare when the layer is off): every
  // request's arrival timestamp exists before any routing decision, in all
  // three policy variants, so the arrival process is policy-independent.
  OpenLoopArrive();
  // Policy dispatch: one compare against a construction-time constant — under
  // the default policy it is never taken and costs a perfectly-predicted
  // not-taken branch, preserving the pre-policy goldens bit-for-bit.
  if (__builtin_expect(policy_mode_ != kStaticPot, 0)) {
    if (policy_mode_ == kDynamicPolicy) {
      ProcessPolicy(sink, in, observed);
    } else {
      ProcessSerialStatic(sink, in, observed);
    }
    return;
  }
  const ClusterConfig& cc = model_->cfg;
  BackendStats& st = *stats_;
  const uint32_t bucket = in.bucket;
  const bool is_write = in.is_write;
  const uint64_t key = KeyOfRank(in.rank, hot_shift_, cc.num_keys);

  uint32_t server;
  const RouteEntry* entry = nullptr;
  if (bucket == model_->pool) {
    server = model_->placement.ServerOf(key);
    // Tail keys are treated as uncached even right after a hot-spot shift, when
    // the formerly-hot (still cached, now tail) keys would briefly hit: their
    // per-key mass is ~1/num_keys, a vanishing correction the fluid model ignores
    // for the same reason.
  } else if (__builtin_expect(bucket < route_hot_len_, 1)) {
    entry = &route_data_[bucket];
    server = entry->server;
  } else {
    // Compact-table fallback: ranks past the stored hot prefix are uncached by
    // construction, so recompute the primary server from the same placement
    // hash the dense build evaluated and leave `entry` null — the request then
    // flows down the existing uncached path, bit-identical to reading a dense
    // kUncached entry (no RNG is consumed either way).
    server = model_->placement.ServerOf(key);
  }

  if (is_write) {
    // Writes reach the primary through an ECMP-chosen spine; a pre-recovery dead
    // spine blackholes its share (§4.4). Coherence touches only alive copies.
    ++st.writes;
    if (TransitBlackholed()) {
      ++st.dropped;
      return;
    }
    size_t num_copies = 0;
    if (entry != nullptr) {
      if (entry->kind == RouteEntry::kCached) {
        // One cached copy per layer, ascending; coherence touches the alive ones.
        const uint32_t inline_cands[2] = {entry->c0, entry->c1};
        const uint32_t* cands =
            entry->num <= 2 ? inline_cands : route_overflow_ + entry->c1;
        for (uint8_t i = 0; i < entry->num; ++i) {
          const CacheNodeId node = UnpackCandidate(cands[i]);
          if (!NodeDead(node)) {
            ++num_copies;
            sink.AddCacheLoad(node, cc.coherence_switch_cost);
          }
        }
      } else if (entry->kind == RouteEntry::kReplicated) {
        num_copies = static_cast<size_t>(cc.num_spine - dead_spines_) +
                     static_cast<size_t>(entry->num);
        for (uint32_t s = 0; s < cc.num_spine; ++s) {
          if (spine_alive_[s]) {
            sink.AddCacheLoad({0, s}, cc.coherence_switch_cost);
          }
        }
        if (entry->num > 0) {
          sink.AddCacheLoad(UnpackCandidate(entry->c0), cc.coherence_switch_cost);
        }
      }
    }
    OpenLoopServer(server);
    sink.AddServerLoad(server,
                       1.0 + cc.coherence_server_cost * static_cast<double>(num_copies));
    return;
  }

  ++st.reads;
  if (recorder_) {
    // Controller-side popularity observation (per-object hit counters for cached
    // keys, the heavy-hitter sketch for the rest — folded into one detector).
    Observe(key, observed);
  }
  // Blackholed candidates degrade the power-of-k choice set: a dead top-layer
  // copy is skipped (k shrinks by one), and a key whose every copy is dead falls
  // back to the primary server like an uncached key.
  CacheNodeId node;
  if (entry == nullptr || entry->kind == RouteEntry::kUncached) {
    if (TransitBlackholed()) {
      ++st.dropped;
      return;
    }
    OpenLoopServer(server);
    sink.AddServerLoad(server, 1.0);
    ++st.server_reads;
    return;
  }
  if (entry->kind == RouteEntry::kCached) {
    if (entry->num == 1) {
      node = UnpackCandidate(entry->c0);
      if (NodeDead(node)) {
        if (TransitBlackholed()) {
          ++st.dropped;
          return;
        }
        OpenLoopServer(server);
        sink.AddServerLoad(server, 1.0);
        ++st.server_reads;
        return;
      }
    } else if (entry->num == 2) {
      // The two-layer fast path: PoT between the (at most one dead) candidates.
      const CacheNodeId c0 = UnpackCandidate(entry->c0);
      const CacheNodeId c1 = UnpackCandidate(entry->c1);
      const bool dead0 = NodeDead(c0);
      node = dead0 ? c1 : NodeDead(c1) ? c0 : router_.ChoosePair(c0, c1);
    } else {
      // Power-of-k (k > 2): the alive candidate subset, least-loaded wins.
      const uint32_t* run = route_overflow_ + entry->c1;
      auto& cands = scratch_candidates_;
      cands.clear();
      for (uint8_t i = 0; i < entry->num; ++i) {
        const CacheNodeId c = UnpackCandidate(run[i]);
        if (!NodeDead(c)) {
          cands.push_back(c);
        }
      }
      if (cands.empty()) {
        if (TransitBlackholed()) {
          ++st.dropped;
          return;
        }
        OpenLoopServer(server);
        sink.AddServerLoad(server, 1.0);
        ++st.server_reads;
        return;
      }
      node = cands.size() == 1 ? cands[0] : cands[router_.Choose(cands)];
    }
  } else {  // kReplicated
    auto& cands = scratch_candidates_;
    cands.clear();
    for (uint32_t s = 0; s < cc.num_spine; ++s) {
      if (spine_alive_[s]) {
        cands.push_back({0, s});
      }
    }
    if (entry->num > 0) {
      cands.push_back(UnpackCandidate(entry->c0));
    }
    if (cands.empty()) {
      // Every replica dead (all spines down, no leaf copy): fall back to the
      // primary server like an uncached key, same as the kCached degradation.
      if (TransitBlackholed()) {
        ++st.dropped;
        return;
      }
      OpenLoopServer(server);
      sink.AddServerLoad(server, 1.0);
      ++st.server_reads;
      return;
    }
    node = cands[router_.Choose(cands)];
  }
  // Hits below the top layer transit an ECMP-chosen spine on the way down (§3.4);
  // top-layer hits are absorbed by their (alive) serving switch and cannot be
  // blackholed.
  if (node.layer != 0 && TransitBlackholed()) {
    ++st.dropped;
    return;
  }
  OpenLoopCache(node);
  sink.AddCacheLoad(node, 1.0);
  ++st.cache_hits;
  ++(node.layer == 0 ? st.spine_hits : st.leaf_hits);
}

template <typename Sink>
void EngineCore::ProcessSerialStatic(Sink& sink, const RequestInput& in,
                                     const HeavyHitterDetector::Staged* observed) {
  // kStaticTopK: identical contents, coherence and failure semantics to the
  // static path above, but reads go to the *first alive candidate* (top layer
  // first) instead of the balanced power-of-k choice. The PotRouter is never
  // consulted (it draws from its own RNG, so the main request stream is
  // unaffected either way). The hit/miss counters therefore match kDistCache
  // exactly for the same stream; only the load distribution differs — which is
  // precisely the paper's claim this policy isolates.
  const ClusterConfig& cc = model_->cfg;
  BackendStats& st = *stats_;
  const uint32_t bucket = in.bucket;
  const bool is_write = in.is_write;
  const uint64_t key = KeyOfRank(in.rank, hot_shift_, cc.num_keys);

  uint32_t server;
  const RouteEntry* entry = nullptr;
  if (bucket == model_->pool) {
    server = model_->placement.ServerOf(key);
  } else if (__builtin_expect(bucket < route_hot_len_, 1)) {
    entry = &route_data_[bucket];
    server = entry->server;
  } else {
    // Same compact-table fallback as the static path.
    server = model_->placement.ServerOf(key);
  }

  if (is_write) {
    // Writes are routing-independent: same coherence accounting as the static
    // path (every alive copy is touched regardless of how reads are routed).
    ++st.writes;
    if (TransitBlackholed()) {
      ++st.dropped;
      return;
    }
    size_t num_copies = 0;
    if (entry != nullptr) {
      if (entry->kind == RouteEntry::kCached) {
        const uint32_t inline_cands[2] = {entry->c0, entry->c1};
        const uint32_t* cands =
            entry->num <= 2 ? inline_cands : route_overflow_ + entry->c1;
        for (uint8_t i = 0; i < entry->num; ++i) {
          const CacheNodeId node = UnpackCandidate(cands[i]);
          if (!NodeDead(node)) {
            ++num_copies;
            sink.AddCacheLoad(node, cc.coherence_switch_cost);
          }
        }
      } else if (entry->kind == RouteEntry::kReplicated) {
        num_copies = static_cast<size_t>(cc.num_spine - dead_spines_) +
                     static_cast<size_t>(entry->num);
        for (uint32_t s = 0; s < cc.num_spine; ++s) {
          if (spine_alive_[s]) {
            sink.AddCacheLoad({0, s}, cc.coherence_switch_cost);
          }
        }
        if (entry->num > 0) {
          sink.AddCacheLoad(UnpackCandidate(entry->c0), cc.coherence_switch_cost);
        }
      }
    }
    OpenLoopServer(server);
    sink.AddServerLoad(server,
                       1.0 + cc.coherence_server_cost * static_cast<double>(num_copies));
    return;
  }

  ++st.reads;
  if (recorder_) {
    Observe(key, observed);
  }
  CacheNodeId node;
  bool have_node = false;
  if (entry != nullptr && entry->kind == RouteEntry::kCached) {
    // Candidates are stored in ascending layer order: the first alive one is
    // the topmost copy — the naive "always hit the spine copy" route.
    const uint32_t inline_cands[2] = {entry->c0, entry->c1};
    const uint32_t* cands =
        entry->num <= 2 ? inline_cands : route_overflow_ + entry->c1;
    for (uint8_t i = 0; i < entry->num; ++i) {
      const CacheNodeId c = UnpackCandidate(cands[i]);
      if (!NodeDead(c)) {
        node = c;
        have_node = true;
        break;
      }
    }
  } else if (entry != nullptr && entry->kind == RouteEntry::kReplicated) {
    for (uint32_t s = 0; s < cc.num_spine; ++s) {
      if (spine_alive_[s]) {
        node = {0, s};
        have_node = true;
        break;
      }
    }
    if (!have_node && entry->num > 0) {
      node = UnpackCandidate(entry->c0);
      have_node = true;
    }
  }
  if (!have_node) {
    if (TransitBlackholed()) {
      ++st.dropped;
      return;
    }
    OpenLoopServer(server);
    sink.AddServerLoad(server, 1.0);
    ++st.server_reads;
    return;
  }
  if (node.layer != 0 && TransitBlackholed()) {
    ++st.dropped;
    return;
  }
  OpenLoopCache(node);
  sink.AddCacheLoad(node, 1.0);
  ++st.cache_hits;
  ++(node.layer == 0 ? st.spine_hits : st.leaf_hits);
}

template <typename Sink>
void EngineCore::ProcessPolicy(Sink& sink, const RequestInput& in,
                               const HeavyHitterDetector::Staged* observed) {
  // The dynamic-policy request path. Same stream derivation, coherence costs,
  // transit-blackhole and counter semantics as the static path; hits and
  // admissions come from the per-node policy runtime instead of the
  // precomputed route table. The probe → drop-check → commit split keeps
  // blackholed requests from perturbing replacement state (they never arrive).
  const ClusterConfig& cc = model_->cfg;
  BackendStats& st = *stats_;
  const bool is_write = in.is_write;
  const uint64_t key = KeyOfRank(in.rank, hot_shift_, cc.num_keys);
  const uint32_t server = model_->placement.ServerOf(key);

  if (is_write) {
    ++st.writes;
    if (TransitBlackholed()) {
      ++st.dropped;
      return;
    }
    scratch_servers_.clear();
    if (policy_->config().write == WritePolicy::kWriteBack) {
      const std::optional<CacheNodeId> absorbed =
          policy_->WriteBack(key, scratch_servers_);
      if (absorbed) {
        OpenLoopCache(*absorbed);
        sink.AddCacheLoad(*absorbed, 1.0);
        ++st.cache_write_hits;
      } else {
        OpenLoopServer(server);
        sink.AddServerLoad(server, 1.0);
      }
    } else {
      scratch_copies_.clear();
      policy_->WriteThrough(key, scratch_copies_, scratch_servers_);
      for (const CacheNodeId copy : scratch_copies_) {
        sink.AddCacheLoad(copy, cc.coherence_switch_cost);
      }
      OpenLoopServer(server);
      sink.AddServerLoad(
          server, 1.0 + cc.coherence_server_cost *
                            static_cast<double>(scratch_copies_.size()));
    }
    for (const uint32_t wb_server : scratch_servers_) {
      sink.AddServerLoad(wb_server, 1.0);
      ++st.writebacks;
    }
    return;
  }

  ++st.reads;
  if (recorder_) {
    Observe(key, observed);
  }
  const CachePolicyRuntime::ReadProbe probe = policy_->Probe(key);
  if (!probe.hit) {
    if (TransitBlackholed()) {
      ++st.dropped;
      return;
    }
    scratch_servers_.clear();
    policy_->CommitMiss(key, scratch_servers_);
    for (const uint32_t wb_server : scratch_servers_) {
      sink.AddServerLoad(wb_server, 1.0);
      ++st.writebacks;
    }
    OpenLoopServer(server);
    sink.AddServerLoad(server, 1.0);
    ++st.server_reads;
    return;
  }
  if (probe.node.layer != 0 && TransitBlackholed()) {
    ++st.dropped;
    return;
  }
  scratch_servers_.clear();
  policy_->CommitHit(key, probe.node, scratch_servers_);
  for (const uint32_t wb_server : scratch_servers_) {
    sink.AddServerLoad(wb_server, 1.0);
    ++st.writebacks;
  }
  OpenLoopCache(probe.node);
  sink.AddCacheLoad(probe.node, 1.0);
  ++st.cache_hits;
  ++(probe.node.layer == 0 ? st.spine_hits : st.leaf_hits);
}

template <typename Sink>
void EngineCore::ProcessBatch(Sink& sink, const RequestInput* inputs,
                              uint32_t count) {
  // One fused pass over the drawn inputs, with route-table entries
  // software-prefetched a fixed distance ahead — the bucket is the only input
  // to the entry address, so the line is warm by the time the branch tree
  // needs it. Requests run through Process() in order.
  //
  // A fully staged two-pass variant (resolve key/server/entry into SoA arrays,
  // then route) was measured at ~10-15% *slower* than this fused loop on the
  // reference hardware: the split serializes the RNG and routing dependency
  // chains the out-of-order core otherwise overlaps across iterations, and the
  // staging stores add traffic without removing any misses the prefetch does
  // not already hide. Re-measure with bench_scaling before re-staging.
  const RouteEntry* const route_data = route_data_;
  const uint32_t hot_len = route_hot_len_;
  const uint32_t lead = count < kPrefetchDistance ? count : kPrefetchDistance;
  if (recorder_ == nullptr) {
    for (uint32_t i = 0; i < lead; ++i) {
      PrefetchRoute(route_data, hot_len, inputs[i].bucket);
    }
    for (uint32_t i = 0; i < count; ++i) {
      if (i + kPrefetchDistance < count) {
        PrefetchRoute(route_data, hot_len, inputs[i + kPrefetchDistance].bucket);
      }
      Process(sink, inputs[i]);
    }
    return;
  }
  // Recording window: each request's key is also hashed once onto the
  // observer, the same distance ahead, and its sketch cells and report slot
  // prefetched (writes record nothing; staging them keeps the loop
  // branch-free). The ring holds the in-flight distance twice over, so a slot
  // is rewritten only after its request ran.
  constexpr uint32_t kRing = 2 * kPrefetchDistance;
  HeavyHitterDetector::Staged observed[kRing];
  const auto stage = [&](uint32_t i) {
    PrefetchRoute(route_data, hot_len, inputs[i].bucket);
    const HeavyHitterDetector::Staged staged = recorder_->Stage(
        KeyOfRank(inputs[i].rank, hot_shift_, model_->cfg.num_keys));
    recorder_->Prefetch(staged);
    observed[i % kRing] = staged;
  };
  for (uint32_t i = 0; i < lead; ++i) {
    stage(i);
  }
  for (uint32_t i = 0; i < count; ++i) {
    if (i + kPrefetchDistance < count) {
      stage(i + kPrefetchDistance);
    }
    Process(sink, inputs[i], &observed[i % kRing]);
  }
}

template <typename Sink>
void EngineCore::ProcessBatch(Sink& sink, const uint32_t* buckets, uint32_t count) {
  if (recorder_ != nullptr && !TransitCanDraw()) {
    staged_inputs_.resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      staged_inputs_[i] = DrawInput(buckets[i]);
    }
    ProcessBatch(sink, staged_inputs_.data(), count);
    return;
  }
  // Otherwise each input is drawn right before its request runs: the only
  // correct order while transit drops draw, and the faster one outside
  // recording windows — staging the batch in a separate pass measured about
  // 8-15% slower on the read-only path, with no observer line to prefetch.
  const RouteEntry* const route_data = route_data_;
  const uint32_t hot_len = route_hot_len_;
  const uint32_t lead = count < kPrefetchDistance ? count : kPrefetchDistance;
  for (uint32_t i = 0; i < lead; ++i) {
    PrefetchRoute(route_data, hot_len, buckets[i]);
  }
  for (uint32_t i = 0; i < count; ++i) {
    if (i + kPrefetchDistance < count) {
      PrefetchRoute(route_data, hot_len, buckets[i + kPrefetchDistance]);
    }
    Process(sink, DrawInput(buckets[i]));
  }
}

}  // namespace distcache

#endif  // DISTCACHE_SIM_ENGINE_CORE_H_
