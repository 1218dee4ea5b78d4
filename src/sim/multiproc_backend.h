// The multi-process sharded runtime: the sharded engine's semantics with every
// shard as a separate pinned *process* over a shared-memory arena.
//
// Why processes: the in-process sharded engine (sharded_backend.h) tops out at
// one address space — one heap for every shard's route tables and samplers,
// one crash domain, one NUMA node unless the allocator cooperates. This
// backend is the production deployment shape from ROADMAP: per-shard crash
// isolation and the path past the single-process memory wall, with the same
// lock-free SPSC transport underneath (ported to the arena in
// runtime/shm_ring.h) so `bench_scaling` measures the substrate swap and
// nothing else.
//
// Process model — fork *without* exec, deliberately: the supervisor constructs
// the full immutable run state (cluster model, route tables, alias sampler,
// precomputed timeline plan) exactly like the in-process engine, maps the
// arena, and forks one child per shard. Children inherit the small read-only
// state copy-on-write and the arena by mapping inheritance — no fixed-address
// mmap negotiation, no exec'd binary to locate. (A fork+exec supervisor would
// add a full config wire format for zero isolation benefit: a corrupted shard
// process dies either way, and the supervisor detects it either way.) Each
// child pins itself to core (shard % online-cores) when pin_cores is set,
// prefaults its inbound rings (first-touch NUMA placement), runs the identical
// per-shard event loop (EngineCore + EventQueue + batched hot path), and
// _exit()s after publishing its serialized partial BackendStats into its arena
// stats region.
//
// Arena-resident plan: the big per-run state — the base route table and every
// precomputed timeline snapshot — is serialized *into the arena* pre-fork and
// freed from the supervisor heap before the first fork. Children install the
// tables as non-owning views (EngineCore::SetRouteView /
// SetActionRouteView), so exactly one physical copy exists no matter the
// shard count, it is huge-page eligible when the arena is, and no process
// ever COW-copies a table page (children only read; the supervisor's heap
// copy is gone). With --numa-interleave the arena is mbind-interleaved before
// serialization so the shared tables stripe across nodes instead of landing
// wholly on the supervisor's; the rings keep their per-shard first-touch
// placement either way (children fault them post-fork).
//
// Respawn (config.respawn): a shard that dies abnormally is re-forked — up to
// config.respawn_limit times per shard — instead of degrading the run. The
// respawned incarnation re-joins from the arena-resident plan and re-runs its
// quota from the start: it skips the ring prefault (zero-filling a live ring
// would clobber in-flight slots and the header's published tail), passes
// straight through the already-released start barrier, and re-attaches its
// ring views via ShmSpscRing::SyncFromShared. Known accepted skews, bounded
// per crash: peers that folded the dead incarnation's telemetry see negative
// deltas when the respawn's counters restart (the telemetry view is
// approximate by design), and a crash landing inside the end-of-run delta
// flush can double-count the flushed portion (the crash tests kill mid-run,
// far from the flush).
//
// Supervisor hardening (the PR 10 fault-model tentpole): each shard bumps a
// heartbeat word in its arena slot at batch granularity and on every wait-loop
// backoff pause, and the supervisor runs a wall-clock escalation ladder over
// it — wait → warn (heartbeat_warn_ms; counted in heartbeat_misses) →
// declare-dead (heartbeat_dead_ms; SIGKILL) → respawn-or-degrade. A shard
// death without (or beyond) respawn budget no longer aborts the survivors:
// the supervisor marks the slot kShardDead, every peer-facing wait (full-ring
// retries, rendezvous gathers, the done protocol) skips dead peers, and the
// run completes degraded — failed_shards + degraded_fraction (lost quota /
// total) record the loss. Stats blobs are CRC32-checked (common/hash.h)
// before deserialization, so a corrupted region marks the shard failed
// instead of merging garbage. A clean exit that never published its state
// word is treated as a death, not trusted. No fault class may hang the run.
//
// Fault injection (runtime/fault_plan.h, config.fault_plan): crash / stall /
// drop / delay / corrupt / mapfail events fire on the deterministic per-shard
// request clock from a hook in the batch loop — one unlikely branch when the
// plan is empty, so fault-free runs stay bit-identical to the goldens. Each
// event has a one-shot latch in the arena, so a respawned incarnation replays
// its request stream without re-firing faults that already fired.
//
// Transport: the same two-plane split as in-process, but both planes ride
// arena rings (there is no cross-process mutex channel worth having):
//
//   * data plane — one ShmSpscRing per directed shard pair carries telemetry
//     partials and end-of-run load deltas, serialized into fixed slots sized
//     so a full telemetry snapshot fits one slot;
//   * control plane — a second ShmSpscRing per directed pair, with 16-byte
//     header-only slots, carries the kDone markers of the termination
//     protocol.
//
// Control-plane divergences from the in-process engine (equivalent by
// construction, pinned by the x1 bit-identity goldens):
//
//   * no timeline multicast — the fired plan is a pure function of the config,
//     so every child queues it locally instead of receiving it from the
//     controller shard;
//   * the kReallocateCache rendezvous goes through the arena, single-
//     controller with deterministic failover, for every cache policy: every
//     shard publishes its heavy-hitter report, in key order, into an
//     idempotent per-(step, shard) arena slot sized by the observer's report
//     cap (a longer report aborts the shard rather than lose its largest
//     keys), then the lowest-indexed *live* shard claims a per-step
//     controller word (CAS; value = claimant + 1), merges the published
//     key-ordered reports in one k-way pass (a shard that died before
//     publishing is excluded; the merged-shard mask rides in the ready word),
//     runs the controller computation and serializes the rebuilt immediate +
//     suffix tables into the step's arena region behind the ready flag;
//     every shard then installs them as views. If the claimant dies
//     before publishing (kShardDead is only set after the process is reaped,
//     so its writes have stopped), waiters CAS the claim over to the next
//     live shard by index, which recomputes and publishes — the
//     controller_failovers counter records it. Every process (up to 63
//     shards, the mask width) applies the same model mutations from the
//     masked reports after the publish, so any shard's model is current
//     enough to take over a *later* rendezvous too. The report slots are
//     write-once per incarnation and the computation is deterministic, so a
//     respawned shard — even a respawned controller — re-publishes identical
//     bytes and the rendezvous stays consistent. Dynamic cache policies need
//     nothing more: their policy runtimes read only the hash partition and
//     the layer config (core/cache_policy.h), neither of which a refill
//     changes.
//
// Termination and crash isolation: a child that finishes its quota flushes
// deltas, publishes kDone to every peer (the ring release orders the earlier
// data publishes before it — the same happens-before edge the in-process
// engine gets from release-on-ring-tail before the channel mutex), drains
// until it has seen every peer's kDone (or the peer's slot says it exited or
// died), serializes its stats behind a CRC and exits 0. The supervisor reaps
// children as they exit; a child that dies abnormally is respawned while
// budget remains, else marked kShardDead — survivors skip it everywhere and
// complete their full quota, and the supervisor reports the loss in
// failed_shards/degraded_fraction instead of hanging on the quota-end
// rendezvous. The arena abort flag remains as the catastrophic backstop
// (supervisor-side failures before/while forking).
#ifndef DISTCACHE_SIM_MULTIPROC_BACKEND_H_
#define DISTCACHE_SIM_MULTIPROC_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/alias_sampler.h"
#include "net/shard_map.h"
#include "runtime/shm_arena.h"
#include "runtime/shm_ring.h"
#include "sim/cluster_model.h"
#include "sim/engine_core.h"
#include "sim/event_queue.h"
#include "sim/route_table.h"
#include "sim/sim_backend.h"

namespace distcache {

class MultiprocBackend : public SimBackend {
 public:
  explicit MultiprocBackend(const SimBackendConfig& config);
  ~MultiprocBackend() override;  // out-of-line: Proc is incomplete here

  std::string name() const override { return "multiproc"; }
  BackendStats Run(uint64_t num_requests) override;

  // False when the platform cannot run this backend (no fork / no shared
  // anonymous mappings — i.e. non-Linux builds). A Run() on an unsupported
  // platform returns empty stats with failed_shards == shards.
  static bool Supported();

  // Test hook (crash-isolation coverage): shard `shard` SIGKILLs itself after
  // processing `after_requests` of its quota, modelling a shard-process crash
  // mid-run. The supervisor must detect it, merge the survivors' partial
  // stats and report failed_shards — never hang.
  void TestCrashShardAt(uint32_t shard, uint64_t after_requests) {
    crash_shard_ = shard;
    crash_after_ = after_requests;
  }

 private:
  struct Proc;      // child-side per-shard state (process-local)
  struct ProcSink;  // branch-free hot-path sink (mirror of ShardSink)

  // ---- child side ----------------------------------------------------------
  // The whole shard lifecycle; never returns (ends in _exit). `respawned`
  // marks a second incarnation re-joining live rings (header comment): it
  // skips the prefault and the start barrier and syncs its ring views.
  [[noreturn]] void ChildMain(uint32_t id, uint64_t quota, uint64_t num_requests,
                              bool respawned);
  void RunShard(Proc& p, uint64_t quota, uint64_t num_requests);
  void ProcessBatch(Proc& p, uint32_t count);
  void PollInbox(Proc& p);
  void DrainDataRings(Proc& p);
  void DrainControlRings(Proc& p);
  void FlushLoads(Proc& p);
  void BroadcastTelemetry(Proc& p);
  void SendLoadDeltas(Proc& p, uint32_t peer,
                      const std::vector<std::pair<uint32_t, double>>& cache,
                      const std::vector<std::pair<uint32_t, double>>& server);
  void SendDone(Proc& p, uint32_t peer);
  // Fault-injection hook (runtime/fault_plan.h): fires every planned fault of
  // this shard whose local timestamp has been reached; one-shot per event via
  // an arena latch. Called behind an unlikely-branch guard in the batch loop.
  void MaybeInjectFaults(Proc& p);
  void RecordFault(Proc& p, FaultKind kind, uint64_t at_request);
  // Bumps this shard's arena heartbeat word (relaxed); called per batch and
  // from every wait-loop backoff so legitimate waits never look like stalls.
  void PulseHeartbeat(Proc& p);
  // True once the supervisor declared `shard` permanently dead (kShardDead is
  // only stored after the process was reaped — its writes have stopped).
  bool ShardDead(uint32_t shard) const;
  // Lowest-indexed shard not declared dead — the deterministic controller
  // (and controller-successor) choice for the realloc rendezvous.
  uint32_t FirstLiveShard() const;
  // kReallocateCache (header comment): publish report → the
  // first live shard claims controllership, computes and publishes the tables
  // (failover CAS if the claimant dies) → everyone applies the masked-report
  // model mutations and installs views. Always returns null (the views are
  // installed directly on p.core).
  std::shared_ptr<const RouteTable> ReallocateViaArena(Proc& p);
  // Controller half of the arena rendezvous: gather every live shard's
  // published report, run the model mutations, build + serialize the tables
  // and release the ready word carrying the merged-shard mask. False when
  // aborted mid-gather.
  bool ControllerPublishRealloc(Proc& p, uint32_t step);
  // Reads shard `s`'s published report for `step` (its flag must be set).
  std::vector<std::pair<uint64_t, uint32_t>> ReadArenaReport(uint32_t step,
                                                             uint32_t s);
  // The deterministic controller model mutations (remap sync + heavy-hitter
  // merge + cache refill) every process applies, so later-step takeovers run
  // against a current model.
  void ApplyReallocModel(
      Proc& p,
      const std::vector<std::vector<std::pair<uint64_t, uint32_t>>>& reports);
  void ApplyDataSlot(Proc& p, const void* slot);
  // Full-ring retry with own-ring drains + backoff; null once aborted or when
  // `peer` was declared dead (callers distinguish via p.abort_seen).
  void* AcquireSlot(Proc& p, ShmSpscRing& ring, uint32_t peer);
  bool Aborted() const;

  // ---- supervisor side -----------------------------------------------------
  // Computes the arena layout for `shards` and this run's series bound —
  // rings, stats regions, the serialized plan tables and (with realloc
  // steps) the realloc rendezvous slots — and maps it; false
  // when the mapping fails.
  bool LayoutAndMapArena(uint64_t num_requests);
  // Serializes the base route table and every fired-plan snapshot into the
  // arena (pre-fork, post-interleave), then frees the supervisor-heap copies —
  // from here on the arena is the only copy and Run() is single-shot (the
  // repo-wide new-backend-per-Run discipline, see EngineCore::ClearActions).
  void SerializePlanTables();
  BackendStats FailAll(uint32_t shards) const;

  SimBackendConfig config_;
  ClusterModel model_;
  ShardMap shard_map_;
  AliasSampler sampler_;            // head ranks + one tail bucket (phase 0)
  // Opt-in O(hot) sampler (config.two_level_sampling): children inherit it
  // pre-fork and draw from it instead of sampler_ — a different RNG stream,
  // differentially validated, never golden-pinned.
  std::unique_ptr<TwoLevelSampler> two_level_;
  std::shared_ptr<const RouteTable> base_routes_;
  std::vector<TimelineStep> plan_;
  std::vector<TimelineStep> fired_plan_;  // restricted to this Run, pre-fork

  // Arena geometry, computed pre-fork and inherited by the children.
  ShmArena arena_;
  size_t control_offset_ = 0;
  size_t data_slot_bytes_ = 0;
  size_t ctrl_slot_bytes_ = 0;
  std::vector<size_t> data_ring_offset_;   // [to * shards + from]
  std::vector<size_t> ctrl_ring_offset_;   // [to * shards + from]
  std::vector<size_t> stats_offset_;       // [shard]
  size_t stats_bound_ = 0;

  // Arena-resident plan: serialized-table offsets — [0] the base table,
  // [1 + i] fired_plan_[i]'s snapshot (null steps carry a sentinel header).
  std::vector<size_t> plan_table_offset_;
  // Single-controller realloc rendezvous: per fired kReallocateCache step,
  // one report slot per shard and one ready-flag + published-tables region
  // sized for the worst case.
  size_t report_entry_cap_ = 0;        // entries per report slot
  size_t table_cap_bytes_ = 0;         // capacity of one published table
  std::vector<uint32_t> realloc_step_index_;    // fired_plan_ index per step
  std::vector<size_t> report_offset_;           // [step * shards + shard]
  std::vector<size_t> realloc_ready_offset_;    // [step]
  std::vector<std::vector<size_t>> realloc_table_offset_;  // [step][table]
  // One-shot fault latches: one u32 per fault_plan event (zero = unfired), so
  // respawned incarnations replay their streams without re-firing. 0 when the
  // plan is empty (no reservation, no hook work).
  size_t fault_latch_offset_ = 0;

  uint32_t crash_shard_ = UINT32_MAX;  // test hook; no shard by default
  uint64_t crash_after_ = 0;
};

}  // namespace distcache

#endif  // DISTCACHE_SIM_MULTIPROC_BACKEND_H_
