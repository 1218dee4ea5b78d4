#include "sim/multiproc_backend.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <utility>

#include <ctime>

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/cacheline.h"
#include "common/hash.h"
#include "runtime/affinity.h"
#include "runtime/backoff.h"
#include "sim/stats_codec.h"
#include "sketch/heavy_hitter.h"

namespace distcache {

namespace {

// Ring depths per directed shard pair. Data traffic is O(epochs + 1) messages
// (telemetry broadcasts plus the end-of-run delta flush, chunked), same as the
// in-process engine's 256-deep rings; control traffic is one kDone per shard
// incarnation, and its consumers drain while waiting, so a shallow ring only
// adds retry rounds, never deadlock.
constexpr size_t kDataRingCapacity = 256;
constexpr size_t kCtrlRingCapacity = 64;

// Floor for the data-plane payload when the topology is tiny.
constexpr size_t kMinDataPayloadBytes = 1024;

// The cross-process ring message set. Everything that crosses an address space
// on a ring is one of these three POD-serialized kinds — the in-process
// engine's other kinds do not exist here: kClusterEvent because every child
// queues the fired plan locally, kRouteUpdate and heavy-hitter reports because
// the re-allocation rendezvous goes through the arena (see
// multiproc_backend.h). A control-ring slot is one bare header (kDone).
enum WireKind : uint8_t {
  kWireTelemetry = 0,  // dense own-contribution partials, one slot
  kWireDeltas = 1,     // end-of-run load deltas, chunked
  kWireDone = 2,       // end-of-stream marker
};

struct WireHeader {
  uint8_t kind;
  uint8_t pad8;
  uint16_t pad16;
  uint32_t from;     // sender shard
  uint32_t count_a;  // telemetry: #partials; deltas: #cache
  uint32_t count_b;  // deltas: #server entries
};
static_assert(sizeof(WireHeader) == 16, "wire header layout");

// Fixed 16-byte entry for the delta messages ({flat-or-server index, delta})
// and the arena report slots ({key, count}); everything moves through memcpy,
// so slot alignment is a non-issue and no object is ever aliased across the
// arena.
struct DeltaEntry {
  uint64_t index;
  double delta;
};
struct ReportEntry {
  uint64_t key;
  uint64_t count;
};
static_assert(sizeof(DeltaEntry) == 16 && sizeof(ReportEntry) == 16,
              "wire entry layout");

// Supervisor/child handshake block at the head of the arena.
enum ShardState : uint32_t {
  kShardRunning = 0,
  kShardDone = 1,     // full quota, stats published
  kShardAborted = 2,  // wound down after the abort flag, partial stats published
  // Supervisor-set after reaping a shard it will not respawn: the shard is
  // permanently gone. Peers skip it in every send, rendezvous gather and the
  // done protocol, and the run completes degraded instead of aborting.
  kShardDead = 3,
};

struct alignas(kCacheLineSize) ShmControlBlock {
  // Set by the supervisor when any child dies abnormally; checked by every
  // child wait loop, full-ring retry and backoff — the no-hang guarantee.
  std::atomic<uint32_t> abort{0};
  // Start barrier: children prefault their inbound rings (first-touch NUMA
  // placement under pinning), then rendezvous here before any ring traffic,
  // so the prefault writes can never race a producer.
  std::atomic<uint32_t> ready{0};
  // TestCrashShardAt one-shot latch: the crash fires on the incarnation that
  // wins the exchange, so a respawned shard re-running the same request range
  // does not kill itself again.
  std::atomic<uint32_t> crash_consumed{0};
};

struct alignas(kCacheLineSize) ShardSlot {
  std::atomic<uint32_t> state{kShardRunning};
  // CRC-32 (common/hash.h) of the serialized stats blob, stored before the
  // len/state releases: the supervisor recomputes it over the region and a
  // mismatch marks the shard failed instead of deserializing a corrupted
  // blob.
  std::atomic<uint32_t> stats_crc{0};
  std::atomic<uint64_t> stats_len{0};
  // Liveness word: bumped (relaxed) once per processed batch and on every
  // wait-loop backoff pause. The supervisor's wall-clock escalation ladder
  // (wait → warn → declare-dead) only ever watches it advance, so legitimate
  // rendezvous waits never trip a deadline but a genuinely stalled or wedged
  // shard does.
  std::atomic<uint64_t> heartbeat{0};
};
static_assert(sizeof(ShmControlBlock) == kCacheLineSize &&
                  sizeof(ShardSlot) == kCacheLineSize,
              "one line each: a child's completion store must not invalidate "
              "its neighbour's");

void WritePod(void* slot, const void* src, size_t bytes, size_t offset = 0) {
  if (bytes == 0) {
    return;  // an empty array carries data() == nullptr; memcpy forbids it
  }
  std::memcpy(static_cast<uint8_t*>(slot) + offset, src, bytes);
}

// ---- arena-resident route tables -------------------------------------------
// A serialized table is a 16-byte header followed by the entry array and the
// overflow array, all raw POD. The header comes first in a cache-line-aligned
// reservation, so entries land 16-byte aligned and overflow 4-byte aligned —
// children read them in place through typed views, no deserialization copy.
struct ArenaTableHeader {
  uint64_t entries_len;
  uint64_t overflow_len;
};
// entries_len sentinel for a null snapshot (plan steps that change no routes).
constexpr uint64_t kNullTableLen = ~0ull;

size_t SerializedTableBytes(const RouteTable* table) {
  if (table == nullptr) {
    return sizeof(ArenaTableHeader);
  }
  return sizeof(ArenaTableHeader) + table->entries.size() * sizeof(RouteEntry) +
         table->overflow.size() * sizeof(uint32_t);
}

void SerializeTable(uint8_t* dst, const RouteTable* table) {
  ArenaTableHeader h;
  if (table == nullptr) {
    h.entries_len = kNullTableLen;
    h.overflow_len = 0;
    std::memcpy(dst, &h, sizeof(h));
    return;
  }
  h.entries_len = table->entries.size();
  h.overflow_len = table->overflow.size();
  std::memcpy(dst, &h, sizeof(h));
  WritePod(dst, table->entries.data(), h.entries_len * sizeof(RouteEntry),
           sizeof(h));
  WritePod(dst, table->overflow.data(), h.overflow_len * sizeof(uint32_t),
           sizeof(h) + h.entries_len * sizeof(RouteEntry));
}

struct TableView {
  bool null = false;
  const RouteEntry* entries = nullptr;
  size_t len = 0;
  const uint32_t* overflow = nullptr;
};

TableView ViewTable(const uint8_t* src) {
  ArenaTableHeader h;
  std::memcpy(&h, src, sizeof(h));
  TableView v;
  if (h.entries_len == kNullTableLen) {
    v.null = true;
    return v;
  }
  v.entries = reinterpret_cast<const RouteEntry*>(src + sizeof(h));
  v.len = static_cast<size_t>(h.entries_len);
  v.overflow = reinterpret_cast<const uint32_t*>(
      src + sizeof(h) + h.entries_len * sizeof(RouteEntry));
  return v;
}

}  // namespace

// Child-side per-shard state — the process-local mirror of ShardedBackend's
// Shard, minus the thread and the heap-payload message types. Ring *views*
// (runtime/shm_ring.h) live here (process-local index caches); ring storage
// lives in the arena.
struct alignas(kCacheLineSize) MultiprocBackend::Proc {
  Proc(uint32_t id, const ClusterModel* model, uint64_t seed, bool observer)
      : id(id),
        core(model, HashCombine(HashCombine(seed, 0x5aa4dedULL), id),
             HashCombine(HashCombine(seed, 0x90076eULL), id), observer) {}

  uint32_t id;
  EngineCore core;
  EventQueue queue;

  // Indexed by peer; the self slot is a detached default view, never touched.
  std::vector<ShmSpscRing> data_in;   // consumer views: peer -> this shard
  std::vector<ShmSpscRing> data_out;  // producer views: this shard -> peer
  std::vector<ShmSpscRing> ctrl_in;
  std::vector<ShmSpscRing> ctrl_out;

  BackendStats local;
  CacheAlignedVector<double> own_cache;
  CacheAlignedVector<double> own_server;
  std::vector<std::vector<double>> last_partial;  // [peer][flat]
  CacheAlignedVector<uint32_t> batch_keys;
  uint64_t processed = 0;
  std::vector<uint8_t> done_ring;  // [peer] kDone marker consumed from the ring
  uint32_t realloc_seq = 0;        // fired kReallocateCache steps, plan order

  // Exactly one of sampler / two_level is active (two-level mode swaps the
  // dense alias table for the O(hot) one — see alias_sampler.h).
  const AliasSampler* sampler = nullptr;
  std::unique_ptr<AliasSampler> phase_sampler;
  const TwoLevelSampler* two_level = nullptr;
  std::unique_ptr<TwoLevelSampler> phase_two_level;

  // Flush / deserialize scratch.
  std::vector<std::vector<std::pair<uint32_t, double>>> out_cache;
  std::vector<std::vector<std::pair<uint32_t, double>>> out_server;
  std::vector<double> telemetry_scratch;
  std::vector<DeltaEntry> delta_scratch;

  double quota_scale = 1.0;
  bool abort_seen = false;

  // ---- fault injection (runtime/fault_plan.h) ------------------------------
  // This shard's planned events on its *local* request clock, sorted; fired
  // by MaybeInjectFaults behind one unlikely branch in the batch loop. Empty
  // in fault-free runs.
  struct PlannedFault {
    uint64_t at_local;     // fires when processed >= at_local
    uint32_t plan_index;   // index into config.fault_plan (the arena latch)
    FaultKind kind;
    uint64_t param;
    uint64_t at_request;   // original config-clock timestamp, for the record
  };
  std::vector<PlannedFault> faults;
  size_t next_fault = 0;
  // Armed survivable effects, consumed at their hook points.
  uint32_t drop_telemetry = 0;  // broadcasts to swallow at the ring views
  uint32_t ctrl_delay_ms = 0;   // delay armed on the next control publish
  bool corrupt_stats = false;   // flip a byte of the stats blob post-CRC

  // This shard's arena heartbeat word (ShardSlot::heartbeat).
  std::atomic<uint64_t>* heartbeat = nullptr;
};

// The branch-free hot-path sink — identical arithmetic to ShardedBackend's
// ShardSink, which is half of the x1 bit-identity claim.
struct MultiprocBackend::ProcSink {
  MultiprocBackend* backend;
  Proc* p;

  void AddCacheLoad(CacheNodeId node, double delta) {
    p->own_cache[backend->shard_map_.FlatIndex(node)] += delta;
    p->core.view().Add(node, delta);  // optimistic local view
  }
  void AddServerLoad(uint32_t server, double delta) {
    p->own_server[server] += delta;
  }
};

MultiprocBackend::MultiprocBackend(const SimBackendConfig& config)
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
    config_.batch_size = 1;
  }
  if (config_.two_level_sampling) {
    two_level_ = std::make_unique<TwoLevelSampler>(
        model_.cfg.num_keys, model_.cfg.zipf_theta, model_.pool);
  }
  plan_ = BuildTimelinePlan(config_, model_);
}

MultiprocBackend::~MultiprocBackend() = default;

bool MultiprocBackend::Supported() {
#ifdef __linux__
  return ShmArena::Available(1u << 20);
#else
  return false;
#endif
}

// ---- arena layout ----------------------------------------------------------

bool MultiprocBackend::LayoutAndMapArena(uint64_t num_requests) {
  const uint32_t n = shard_map_.shards();
  const size_t nodes = shard_map_.num_cache_nodes();
  // A full telemetry snapshot (one double per cache node) must fit one slot.
  data_slot_bytes_ =
      sizeof(WireHeader) + std::max(nodes * sizeof(double), kMinDataPayloadBytes);
  ctrl_slot_bytes_ = sizeof(WireHeader);
  const uint64_t max_points =
      config_.sample_interval == 0 ? 0
                                   : num_requests / config_.sample_interval + 4;
  // Fault-record bound: a child can record at most its planned injections
  // plus one failover per realloc step (plus slack for future record kinds).
  const size_t max_fault_events =
      config_.fault_plan.events.size() + fired_plan_.size() + 8;
  stats_bound_ = StatsCodecBound(model_.layers.size(), nodes,
                                 model_.num_servers(), max_points,
                                 max_fault_events);

  ArenaLayout layout;
  control_offset_ = layout.Reserve(sizeof(ShmControlBlock) +
                                   static_cast<size_t>(n) * sizeof(ShardSlot));
  data_ring_offset_.assign(static_cast<size_t>(n) * n, 0);
  ctrl_ring_offset_.assign(static_cast<size_t>(n) * n, 0);
  for (uint32_t to = 0; to < n; ++to) {
    for (uint32_t from = 0; from < n; ++from) {
      if (to == from) {
        continue;
      }
      data_ring_offset_[static_cast<size_t>(to) * n + from] = layout.Reserve(
          ShmSpscRing::BytesFor(kDataRingCapacity, data_slot_bytes_));
      ctrl_ring_offset_[static_cast<size_t>(to) * n + from] = layout.Reserve(
          ShmSpscRing::BytesFor(kCtrlRingCapacity, ctrl_slot_bytes_));
    }
  }
  stats_offset_.assign(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    stats_offset_[i] = layout.Reserve(stats_bound_);
  }

  // Arena-resident plan: exact-size reservations — every table already exists
  // on the supervisor heap, so no capacity guesswork (SerializePlanTables
  // frees the heap copies right after writing these).
  plan_table_offset_.assign(1 + fired_plan_.size(), 0);
  plan_table_offset_[0] = layout.Reserve(SerializedTableBytes(base_routes_.get()));
  for (size_t i = 0; i < fired_plan_.size(); ++i) {
    plan_table_offset_[1 + i] =
        layout.Reserve(SerializedTableBytes(fired_plan_[i].routes.get()));
  }

  // Single-controller realloc rendezvous (see multiproc_backend.h). Runtime
  // tables cannot be pre-sized exactly, so the regions are worst-case: a
  // report slot holds the observer's max_reports_per_epoch (taken from the
  // observer's own config, 2·pool) and a table slot the dense pool with every
  // entry spilled to overflow. That is not small: on the paper-default cluster
  // (pool 51200) each report slot holds 102400 16-byte entries, 1.6 MB per
  // shard and re-allocation step.
  realloc_step_index_.clear();
  report_offset_.clear();
  realloc_ready_offset_.clear();
  realloc_table_offset_.clear();
  for (uint32_t i = 0; i < fired_plan_.size(); ++i) {
    if (!fired_plan_[i].is_phase &&
        fired_plan_[i].event.kind == ClusterEvent::Kind::kReallocateCache) {
      realloc_step_index_.push_back(i);
    }
  }
  if (!realloc_step_index_.empty()) {
    report_entry_cap_ = EngineCore::ObserverConfig(model_.pool).max_reports_per_epoch;
    table_cap_bytes_ =
        sizeof(ArenaTableHeader) +
        static_cast<size_t>(model_.pool) * sizeof(RouteEntry) +
        static_cast<size_t>(model_.pool) * model_.layers.size() * sizeof(uint32_t);
    const size_t report_bytes =
        kCacheLineSize + report_entry_cap_ * sizeof(ReportEntry);
    for (const uint32_t step : realloc_step_index_) {
      for (uint32_t s = 0; s < n; ++s) {
        report_offset_.push_back(layout.Reserve(report_bytes));
      }
      realloc_ready_offset_.push_back(layout.Reserve(kCacheLineSize));
      // One immediate table plus one per remaining plan step (the suffix the
      // controller rebuilds against the refilled allocation).
      std::vector<size_t> tables;
      const size_t count = 1 + (fired_plan_.size() - step - 1);
      tables.reserve(count);
      for (size_t t = 0; t < count; ++t) {
        tables.push_back(layout.Reserve(table_cap_bytes_));
      }
      realloc_table_offset_.push_back(std::move(tables));
    }
  }

  // One-shot fault latches: a u32 per planned event, zero-initialized =
  // unfired. Respawned incarnations consult them before re-firing.
  fault_latch_offset_ = 0;
  if (!config_.fault_plan.empty()) {
    fault_latch_offset_ = layout.Reserve(
        std::max<size_t>(kCacheLineSize, config_.fault_plan.events.size() *
                                             sizeof(std::atomic<uint32_t>)));
  }

  if (config_.fault_plan.arena_map_failure()) {
    // Injected allocation-failure simulation: report the mapping failed
    // before touching the pool, exercising the clean FailAll path.
    return false;
  }
  if (!arena_.Map(layout.total(), config_.huge_pages)) {
    return false;
  }
  // Pre-fork, single-threaded: construct the handshake block in place (the
  // zero-filled bytes are already the right values; this makes it formal).
  auto* ctrl = new (arena_.At(control_offset_)) ShmControlBlock();
  (void)ctrl;
  auto* slots = reinterpret_cast<ShardSlot*>(arena_.At(control_offset_) +
                                             sizeof(ShmControlBlock));
  for (uint32_t i = 0; i < n; ++i) {
    new (&slots[i]) ShardSlot();
  }
  return true;
}

void MultiprocBackend::SerializePlanTables() {
  SerializeTable(arena_.At(plan_table_offset_[0]), base_routes_.get());
  for (size_t i = 0; i < fired_plan_.size(); ++i) {
    SerializeTable(arena_.At(plan_table_offset_[1 + i]),
                   fired_plan_[i].routes.get());
  }
  // The arena is the only copy from here on: drop the heap tables before the
  // first fork, so neither the supervisor nor any child ever holds (or
  // COW-duplicates) a private one.
  base_routes_.reset();
  for (TimelineStep& step : fired_plan_) {
    step.routes.reset();
  }
  for (TimelineStep& step : plan_) {
    step.routes.reset();
  }
}

namespace {
ShmControlBlock* CtrlBlockAt(const ShmArena& arena, size_t offset) {
  return reinterpret_cast<ShmControlBlock*>(arena.At(offset));
}
ShardSlot* ShardSlotAt(const ShmArena& arena, size_t offset, uint32_t shard) {
  return reinterpret_cast<ShardSlot*>(arena.At(offset) +
                                      sizeof(ShmControlBlock)) +
         shard;
}
}  // namespace

bool MultiprocBackend::Aborted() const {
  return CtrlBlockAt(arena_, control_offset_)
             ->abort.load(std::memory_order_acquire) != 0;
}

BackendStats MultiprocBackend::FailAll(uint32_t shards) const {
  BackendStats stats;
  stats.failed_shards = shards;
  stats.degraded_fraction = 1.0;
  return stats;
}

void MultiprocBackend::PulseHeartbeat(Proc& p) {
  if (p.heartbeat != nullptr) {
    p.heartbeat->fetch_add(1, std::memory_order_relaxed);
  }
}

bool MultiprocBackend::ShardDead(uint32_t shard) const {
  return ShardSlotAt(arena_, control_offset_, shard)
             ->state.load(std::memory_order_acquire) == kShardDead;
}

uint32_t MultiprocBackend::FirstLiveShard() const {
  const uint32_t n = shard_map_.shards();
  for (uint32_t s = 0; s < n; ++s) {
    if (!ShardDead(s)) {
      return s;
    }
  }
  return 0;  // unreachable while any process runs this code
}

void MultiprocBackend::RecordFault(Proc& p, FaultKind kind,
                                   uint64_t at_request) {
  ++p.local.injected_faults;
  p.local.fault_events.push_back(
      {p.id, static_cast<uint32_t>(kind), at_request});
}

// ---- child side ------------------------------------------------------------

void MultiprocBackend::ChildMain(uint32_t id, uint64_t quota,
                                 uint64_t num_requests, bool respawned) {
  if (config_.pin_cores) {
    // Pin before the prefault below so the rings this shard consumes land on
    // the pinned core's NUMA node (first touch).
    PinToCore(id);
  }
  const uint32_t n = shard_map_.shards();
  Proc p(id, &model_, config_.cluster.seed,
         TimelineNeedsObserver(config_.events));
  p.heartbeat = &ShardSlotAt(arena_, control_offset_, id)->heartbeat;
  p.data_in.resize(n);
  p.data_out.resize(n);
  p.ctrl_in.resize(n);
  p.ctrl_out.resize(n);
  for (uint32_t peer = 0; peer < n; ++peer) {
    if (peer == id) {
      continue;
    }
    const size_t in_idx = static_cast<size_t>(id) * n + peer;
    const size_t out_idx = static_cast<size_t>(peer) * n + id;
    p.data_in[peer] = ShmSpscRing(arena_.At(data_ring_offset_[in_idx]),
                                  kDataRingCapacity, data_slot_bytes_);
    p.data_out[peer] = ShmSpscRing(arena_.At(data_ring_offset_[out_idx]),
                                   kDataRingCapacity, data_slot_bytes_);
    p.ctrl_in[peer] = ShmSpscRing(arena_.At(ctrl_ring_offset_[in_idx]),
                                  kCtrlRingCapacity, ctrl_slot_bytes_);
    p.ctrl_out[peer] = ShmSpscRing(arena_.At(ctrl_ring_offset_[out_idx]),
                                   kCtrlRingCapacity, ctrl_slot_bytes_);
    if (respawned) {
      // Live rings: adopt the shared indices (a fresh view's zeroed caches
      // are only valid for a pristine ring) and do NOT prefault — writing a
      // zero into every page of an in-use ring would clobber in-flight slots
      // and the header's published tail.
      p.data_in[peer].SyncFromShared();
      p.data_out[peer].SyncFromShared();
      p.ctrl_in[peer].SyncFromShared();
      p.ctrl_out[peer].SyncFromShared();
      continue;
    }
    // Prefault this shard's *inbound* ring pages by writing (reads would map
    // shared zero pages, placing nothing): first touch from the pinned core
    // allocates them on its node. Pre-barrier, so no producer can be writing.
    for (const size_t off : {data_ring_offset_[in_idx], ctrl_ring_offset_[in_idx]}) {
      const size_t bytes =
          off == data_ring_offset_[in_idx]
              ? ShmSpscRing::BytesFor(kDataRingCapacity, data_slot_bytes_)
              : ShmSpscRing::BytesFor(kCtrlRingCapacity, ctrl_slot_bytes_);
      volatile uint8_t* page = arena_.At(off);
      for (size_t b = 0; b < bytes; b += 4096) {
        page[b] = 0;
      }
    }
  }

  // Start barrier (ShmControlBlock comment): everyone's prefault is complete
  // before anyone's first send. Every incarnation — fresh or respawned —
  // increments, and the release condition also counts supervisor-declared-
  // dead shards, so a shard that dies before arriving can never wedge the
  // others (the respawn over-count is harmless under >=). A respawned
  // incarnation usually finds the barrier long released and falls through.
  {
    ShmControlBlock* ctrl = CtrlBlockAt(arena_, control_offset_);
    ctrl->ready.fetch_add(1, std::memory_order_acq_rel);
    Backoff barrier_backoff;
    while (true) {
      uint32_t dead = 0;
      for (uint32_t s = 0; s < n; ++s) {
        dead += ShardDead(s) ? 1 : 0;
      }
      if (ctrl->ready.load(std::memory_order_acquire) + dead >= n ||
          Aborted()) {
        break;
      }
      PulseHeartbeat(p);
      barrier_backoff.Pause();
    }
  }

  RunShard(p, quota, num_requests);

  uint8_t* region = arena_.At(stats_offset_[id]);
  const size_t len = SerializeBackendStats(p.local, region, stats_bound_);
  const uint32_t crc = Crc32(region, len);
  if (__builtin_expect(p.corrupt_stats, 0)) {
    // Injected kCorruptStats: damage the blob *after* the checksum was
    // taken, so the supervisor's integrity check is what must catch it.
    if (len != 0) {
      region[len / 2] ^= 0x5a;
    }
  }
  ShardSlot* slot = ShardSlotAt(arena_, control_offset_, id);
  slot->stats_crc.store(crc, std::memory_order_release);
  slot->stats_len.store(len, std::memory_order_release);
  slot->state.store(p.abort_seen ? kShardAborted : kShardDone,
                    std::memory_order_release);
  // _exit, never exit: no atexit handlers, no gtest/ASan teardown of inherited
  // parent state — the child owns nothing but its stats region.
  _exit(p.abort_seen ? 3 : 0);
}

void* MultiprocBackend::AcquireSlot(Proc& p, ShmSpscRing& ring, uint32_t peer) {
  Backoff backoff;
  while (true) {
    if (void* slot = ring.TryStage()) {
      return slot;
    }
    // Full ring: the receiver is behind. Draining our own rings while
    // retrying guarantees global progress (same argument as the in-process
    // engine); the abort and dead-peer checks guarantee a dead receiver
    // cannot wedge us.
    DrainDataRings(p);
    DrainControlRings(p);
    if (Aborted()) {
      p.abort_seen = true;
      return nullptr;
    }
    if (ShardDead(peer)) {
      return nullptr;  // receiver permanently gone; the message is moot
    }
    PulseHeartbeat(p);
    backoff.Pause();
  }
}

void MultiprocBackend::BroadcastTelemetry(Proc& p) {
  const uint32_t n = shard_map_.shards();
  const uint32_t count = static_cast<uint32_t>(p.own_cache.size());
  for (uint32_t peer = 0; peer < n; ++peer) {
    if (peer == p.id || ShardDead(peer)) {
      continue;
    }
    if (__builtin_expect(p.drop_telemetry != 0, 0)) {
      // Armed kDropTelemetry: the staged slot below is rewound at Publish,
      // so this broadcast is lost exactly as a dropped message would be.
      p.data_out[peer].ArmDropNext(1);
    }
    void* slot = AcquireSlot(p, p.data_out[peer], peer);
    if (slot == nullptr) {
      if (p.abort_seen) {
        return;
      }
      continue;  // peer died while we waited; skip it
    }
    const WireHeader h{kWireTelemetry, 0, 0, p.id, count, 0};
    WritePod(slot, &h, sizeof(h));
    WritePod(slot, p.own_cache.data(), count * sizeof(double), sizeof(h));
    p.data_out[peer].Publish();
    ++p.local.cross_shard_messages;
    ++p.local.ring_messages;
  }
  if (__builtin_expect(p.drop_telemetry != 0, 0)) {
    --p.drop_telemetry;
  }
}

void MultiprocBackend::SendLoadDeltas(
    Proc& p, uint32_t peer,
    const std::vector<std::pair<uint32_t, double>>& cache,
    const std::vector<std::pair<uint32_t, double>>& server) {
  const size_t max_entries =
      (data_slot_bytes_ - sizeof(WireHeader)) / sizeof(DeltaEntry);
  size_t ci = 0;
  size_t si = 0;
  // Chunked so any topology fits the fixed slot; every chunk is independently
  // applicable (pure += deltas), so no reassembly state is needed.
  while (ci < cache.size() || si < server.size()) {
    const size_t nc = std::min(cache.size() - ci, max_entries);
    const size_t ns = std::min(server.size() - si, max_entries - nc);
    void* slot = AcquireSlot(p, p.data_out[peer], peer);
    if (slot == nullptr) {
      return;  // aborted, or the peer died — its merge share is lost anyway
    }
    const WireHeader h{kWireDeltas, 0, 0, p.id, static_cast<uint32_t>(nc),
                       static_cast<uint32_t>(ns)};
    WritePod(slot, &h, sizeof(h));
    p.delta_scratch.clear();
    for (size_t i = 0; i < nc; ++i) {
      p.delta_scratch.push_back({cache[ci + i].first, cache[ci + i].second});
    }
    for (size_t i = 0; i < ns; ++i) {
      p.delta_scratch.push_back({server[si + i].first, server[si + i].second});
    }
    WritePod(slot, p.delta_scratch.data(),
             p.delta_scratch.size() * sizeof(DeltaEntry), sizeof(h));
    p.data_out[peer].Publish();
    ++p.local.cross_shard_messages;
    ++p.local.ring_messages;
    ci += nc;
    si += ns;
  }
}

void MultiprocBackend::SendDone(Proc& p, uint32_t peer) {
  void* slot = AcquireSlot(p, p.ctrl_out[peer], peer);
  if (slot == nullptr) {
    return;  // aborted, or the peer is dead and will never consume it
  }
  const WireHeader h{kWireDone, 0, 0, p.id, 0, 0};
  WritePod(slot, &h, sizeof(h));
  if (__builtin_expect(p.ctrl_delay_ms != 0, 0)) {
    p.ctrl_out[peer].ArmDelayNext(p.ctrl_delay_ms);
    p.ctrl_delay_ms = 0;
  }
  // This release orders every earlier data-ring publish by this process
  // before the kDone: a peer that has acquired the kDone and then drains its
  // data rings observes all of this shard's deltas (the no-missed-delta edge).
  p.ctrl_out[peer].Publish();
  ++p.local.cross_shard_messages;
}

void MultiprocBackend::ApplyDataSlot(Proc& p, const void* slot) {
  WireHeader h;
  std::memcpy(&h, slot, sizeof(h));
  const uint8_t* payload = static_cast<const uint8_t*>(slot) + sizeof(h);
  if (h.kind == kWireTelemetry) {
    // Fold in the sender's monotone increment since its previous broadcast —
    // identical arithmetic to the in-process Apply(kTelemetry).
    p.telemetry_scratch.resize(h.count_a);
    if (h.count_a != 0) {
      std::memcpy(p.telemetry_scratch.data(), payload,
                  h.count_a * sizeof(double));
    }
    std::vector<double>& last = p.last_partial[h.from];
    for (uint32_t flat = 0; flat < h.count_a; ++flat) {
      const double delta = p.telemetry_scratch[flat] - last[flat];
      if (delta != 0.0) {
        p.core.view().Add(shard_map_.NodeOfFlat(flat), delta);
        last[flat] = p.telemetry_scratch[flat];
      }
    }
    return;
  }
  // kWireDeltas
  const size_t entries = static_cast<size_t>(h.count_a) + h.count_b;
  p.delta_scratch.resize(entries);
  if (entries != 0) {
    std::memcpy(p.delta_scratch.data(), payload, entries * sizeof(DeltaEntry));
  }
  for (uint32_t i = 0; i < h.count_a; ++i) {
    const CacheNodeId node =
        shard_map_.NodeOfFlat(static_cast<uint32_t>(p.delta_scratch[i].index));
    p.local.cache_load[node.layer][node.index] += p.delta_scratch[i].delta;
  }
  for (uint32_t i = 0; i < h.count_b; ++i) {
    const DeltaEntry& e = p.delta_scratch[h.count_a + i];
    p.local.server_load[static_cast<uint32_t>(e.index)] += e.delta;
  }
}

void MultiprocBackend::DrainDataRings(Proc& p) {
  const uint32_t n = shard_map_.shards();
  for (uint32_t peer = 0; peer < n; ++peer) {
    if (peer == p.id) {
      continue;
    }
    ShmSpscRing& ring = p.data_in[peer];
    if (ring.EmptyApprox()) {
      continue;
    }
    while (const void* slot = ring.Front()) {
      ApplyDataSlot(p, slot);
      ring.Pop();
    }
  }
}

void MultiprocBackend::DrainControlRings(Proc& p) {
  const uint32_t n = shard_map_.shards();
  for (uint32_t peer = 0; peer < n; ++peer) {
    if (peer == p.id) {
      continue;
    }
    ShmSpscRing& ring = p.ctrl_in[peer];
    while (const void* slot = ring.Front()) {
      WireHeader h;  // every control message is a kDone
      std::memcpy(&h, slot, sizeof(h));
      p.done_ring[h.from] = 1;
      ring.Pop();
    }
  }
}

void MultiprocBackend::PollInbox(Proc& p) {
  DrainDataRings(p);
  // Batch-boundary control poll, same accounting as the in-process engine: an
  // all-empty probe (one acquire load per peer, vacuous at x1) counts as one
  // uncontended receive; anything pending counts as one contended receive.
  const uint32_t n = shard_map_.shards();
  bool pending = false;
  for (uint32_t peer = 0; peer < n && !pending; ++peer) {
    if (peer != p.id && !p.ctrl_in[peer].EmptyApprox()) {
      pending = true;
    }
  }
  if (!pending) {
    ++p.local.uncontended_receives;
    return;
  }
  ++p.local.contended_receives;
  DrainControlRings(p);
}

void MultiprocBackend::FlushLoads(Proc& p) {
  // End-of-run owner split — the exact double arithmetic of the in-process
  // FlushLoads (same iteration order, same += sequence), with the deltas
  // serialized into chunks instead of heap messages.
  for (uint32_t flat = 0; flat < p.own_cache.size(); ++flat) {
    const double delta = p.own_cache[flat];
    if (delta == 0.0) {
      continue;
    }
    const CacheNodeId node = shard_map_.NodeOfFlat(flat);
    if (shard_map_.OwnerOfFlat(flat) == p.id) {
      p.local.cache_load[node.layer][node.index] += delta;
    } else {
      p.out_cache[shard_map_.OwnerOfFlat(flat)].emplace_back(flat, delta);
    }
  }
  for (uint32_t server = 0; server < p.own_server.size(); ++server) {
    const double delta = p.own_server[server];
    if (delta == 0.0) {
      continue;
    }
    if (shard_map_.OwnerOfServer(server) == p.id) {
      p.local.server_load[server] += delta;
    } else {
      p.out_server[shard_map_.OwnerOfServer(server)].emplace_back(server, delta);
    }
  }
  const uint32_t n = shard_map_.shards();
  for (uint32_t peer = 0; peer < n; ++peer) {
    if (peer == p.id ||
        (p.out_cache[peer].empty() && p.out_server[peer].empty())) {
      continue;
    }
    SendLoadDeltas(p, peer, p.out_cache[peer], p.out_server[peer]);
    p.out_cache[peer].clear();
    p.out_server[peer].clear();
  }
}

std::vector<std::pair<uint64_t, uint32_t>> MultiprocBackend::ReadArenaReport(
    uint32_t step, uint32_t s) {
  const uint32_t n = shard_map_.shards();
  const uint8_t* slot =
      arena_.At(report_offset_[static_cast<size_t>(step) * n + s]);
  const auto* flag = reinterpret_cast<const std::atomic<uint64_t>*>(slot);
  const uint64_t published = flag->load(std::memory_order_acquire);
  std::vector<std::pair<uint64_t, uint32_t>> report;
  if (published == 0) {
    return report;  // never published (dead shard)
  }
  const size_t count = static_cast<size_t>(published - 1);
  const auto* entries =
      reinterpret_cast<const ReportEntry*>(slot + kCacheLineSize);
  report.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    report.emplace_back(entries[i].key, static_cast<uint32_t>(entries[i].count));
  }
  return report;
}

void MultiprocBackend::ApplyReallocModel(
    Proc& p,
    const std::vector<std::vector<std::pair<uint64_t, uint32_t>>>& reports) {
  // MergeHeavyHitterReports is order-independent and the refill is hash-based
  // and RNG-free, so every process given the same report set arrives at the
  // same model state — the property controller failover leans on. The refill
  // keeps the first `pool` keys, so only that prefix is ranked.
  model_.SyncControllerRemap(p.core.spine_alive());
  std::vector<uint64_t> hottest;
  for (const auto& [key, count] : MergeHeavyHitterReports(reports, model_.pool)) {
    hottest.push_back(key);
  }
  model_.ReallocateCache(hottest);
}

bool MultiprocBackend::ControllerPublishRealloc(Proc& p, uint32_t step) {
  const uint32_t n = shard_map_.shards();
  auto* table_ready = reinterpret_cast<std::atomic<uint64_t>*>(
      arena_.At(realloc_ready_offset_[step]));
  const std::vector<size_t>& tables = realloc_table_offset_[step];
  uint64_t mask = 0;
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> reports;
  reports.reserve(n);
  for (uint32_t s = 0; s < n; ++s) {
    const uint8_t* slot =
        arena_.At(report_offset_[static_cast<size_t>(step) * n + s]);
    const auto* flag = reinterpret_cast<const std::atomic<uint64_t>*>(slot);
    Backoff backoff;
    while (flag->load(std::memory_order_acquire) == 0) {
      // Keep draining while waiting: a peer stuck on a full ring toward us
      // must make progress before it can reach this step (same global-
      // progress argument as AcquireSlot).
      DrainDataRings(p);
      DrainControlRings(p);
      if (flag->load(std::memory_order_acquire) != 0) {
        break;
      }
      if (Aborted()) {
        p.abort_seen = true;
        return false;
      }
      if (s != p.id && ShardDead(s)) {
        break;  // died before publishing; its sample is simply absent
      }
      PulseHeartbeat(p);
      backoff.Pause();
    }
    if (flag->load(std::memory_order_acquire) == 0) {
      continue;  // excluded from the merge — and from the published mask
    }
    if (s < 63) {
      mask |= 1ull << s;
    }
    reports.push_back(ReadArenaReport(step, s));
  }
  ApplyReallocModel(p, reports);
  const RouteTable routes = BuildRouteTable(model_, p.core.hot_shift());
  const std::vector<std::shared_ptr<const RouteTable>> suffix =
      RebuildPlanSuffixRoutes(fired_plan_, p.core.next_action_index(), model_,
                              p.core.spine_alive(), p.core.hot_shift());
  // On a controller respawn the flag may already be set; the model mutations
  // above still ran — later realloc steps need the refilled state — but the
  // identical bytes are not rewritten under concurrent readers. A failover
  // successor always finds the flag clear (kShardDead is set only after the
  // dead claimant's writes stopped), so its full rewrite wins cleanly.
  if (table_ready->load(std::memory_order_acquire) == 0) {
    SerializeTable(arena_.At(tables[0]), &routes);
    for (size_t i = 0; i < suffix.size(); ++i) {
      SerializeTable(arena_.At(tables[1 + i]), suffix[i].get());
    }
    table_ready->store(1 | (mask << 1), std::memory_order_release);
  }
  return true;
}

std::shared_ptr<const RouteTable> MultiprocBackend::ReallocateViaArena(Proc& p) {
  const uint32_t n = shard_map_.shards();
  const uint32_t step = p.realloc_seq++;
  // 1. Publish this shard's heavy-hitter report into its idempotent slot:
  //    entries first, then count+1 through the release flag. A respawned
  //    incarnation finds the flag set (reports are deterministic per shard)
  //    and skips the write, so a concurrent controller read never races.
  {
    uint8_t* slot = arena_.At(report_offset_[static_cast<size_t>(step) * n + p.id]);
    auto* flag = reinterpret_cast<std::atomic<uint64_t>*>(slot);
    if (flag->load(std::memory_order_acquire) == 0) {
      const auto report = p.core.ObservedCounts();
      const size_t count = report.size();
      if (count > report_entry_cap_) {
        // The slot is sized from the observer's own report cap, so this is a
        // broken invariant. Truncating a key-ordered report would drop its
        // largest keys rather than its coldest, so stop instead.
        std::fprintf(stderr,
                     "multiproc shard %u: %zu heavy-hitter reports exceed the "
                     "%zu-entry report slot\n",
                     p.id, count, report_entry_cap_);
        std::abort();
      }
      auto* entries = reinterpret_cast<ReportEntry*>(slot + kCacheLineSize);
      for (size_t i = 0; i < count; ++i) {
        entries[i] = {report[i].first, report[i].second};
      }
      flag->store(count + 1, std::memory_order_release);
    }
  }
  uint8_t* ready_line = arena_.At(realloc_ready_offset_[step]);
  auto* table_ready = reinterpret_cast<std::atomic<uint64_t>*>(ready_line);
  // Controller claim word (claimant id + 1), sharing the reserved line with
  // the ready flag. Zero until the first live shard elects itself; re-pointed
  // at the deterministic successor when a claimant dies before publishing.
  auto* claim = reinterpret_cast<std::atomic<uint64_t>*>(ready_line + 8);
  const std::vector<size_t>& tables = realloc_table_offset_[step];
  const auto report_flag = [&](uint32_t s) {
    return reinterpret_cast<const std::atomic<uint64_t>*>(
               arena_.At(report_offset_[static_cast<size_t>(step) * n + s]))
        ->load(std::memory_order_acquire);
  };

  // 2. Controller election + publication. The first live shard claims the
  //    role and runs ControllerPublishRealloc (gather → refill → publish
  //    behind the ready flag). A waiter that observes a dead claimant with
  //    the tables still unpublished CASes the claim to the current first
  //    live shard — the paper's §4.4-style deterministic failover. In a
  //    fault-free run shard 0 wins the first CAS uncontested, so the
  //    controller call sequence is exactly the PR 9 one.
  bool is_publisher = false;
  uint64_t ready = table_ready->load(std::memory_order_acquire);
  {
    Backoff backoff;
    while (ready == 0) {
      uint64_t cur = claim->load(std::memory_order_acquire);
      if (cur == 0) {
        if (FirstLiveShard() == p.id &&
            claim->compare_exchange_strong(cur, p.id + 1,
                                           std::memory_order_acq_rel) &&
            p.id != 0) {
          // Shard 0 died before ever claiming: this election IS the failover.
          ++p.local.controller_failovers;
          p.local.fault_events.push_back(
              {p.id, BackendStats::FaultRecord::kControllerFailover, 0});
        }
      } else if (cur != p.id + 1 &&
                 ShardDead(static_cast<uint32_t>(cur - 1))) {
        const uint32_t successor = FirstLiveShard();
        if (claim->compare_exchange_strong(cur, successor + 1,
                                           std::memory_order_acq_rel)) {
          ++p.local.controller_failovers;
          p.local.fault_events.push_back(
              {successor, BackendStats::FaultRecord::kControllerFailover, 0});
        }
      }
      if (claim->load(std::memory_order_acquire) == p.id + 1) {
        if (!ControllerPublishRealloc(p, step)) {
          return nullptr;  // winding down
        }
        is_publisher = true;
        ready = table_ready->load(std::memory_order_acquire);
        continue;
      }
      DrainDataRings(p);
      DrainControlRings(p);
      if (Aborted()) {
        p.abort_seen = true;
        return nullptr;  // keep current routes; we are winding down
      }
      PulseHeartbeat(p);
      backoff.Pause();
      ready = table_ready->load(std::memory_order_acquire);
    }
  }
  // 3. Non-publishers replay the controller's model mutations from the
  //    masked report set, so any of them can take over as controller at a
  //    later step with the refilled allocation state. (The mask covers
  //    shards 0..62; beyond that the report flags stand in, which can
  //    over-include a report the publisher missed — documented limitation.)
  //    After the last re-allocation step nothing reads that state: later
  //    steps install the controller's published arena tables, and the phase
  //    hook reads only the model's config. So the replay is skipped there.
  if (!is_publisher && n > 1 && p.core.ReallocatePending()) {
    const uint64_t mask = ready >> 1;
    std::vector<std::vector<std::pair<uint64_t, uint32_t>>> reports;
    for (uint32_t s = 0; s < n; ++s) {
      const bool included =
          s < 63 ? ((mask >> s) & 1) != 0 : report_flag(s) != 0;
      if (included) {
        reports.push_back(ReadArenaReport(step, s));
      }
    }
    ApplyReallocModel(p, reports);
  }
  const TableView immediate = ViewTable(arena_.At(tables[0]));
  p.core.SetRouteView(immediate.entries, immediate.len, immediate.overflow);
  const size_t from = p.core.next_action_index();
  for (size_t i = 1; i < tables.size(); ++i) {
    const TableView v = ViewTable(arena_.At(tables[i]));
    if (!v.null) {
      p.core.SetActionRouteView(from + (i - 1), v.entries, v.len, v.overflow);
    }
  }
  return nullptr;  // views installed directly; nothing for the hook to swap
}

void MultiprocBackend::MaybeInjectFaults(Proc& p) {
  while (p.next_fault < p.faults.size() &&
         p.processed >= p.faults[p.next_fault].at_local) {
    const Proc::PlannedFault f = p.faults[p.next_fault++];
    // One-shot arena latch: the event fires on the incarnation that wins the
    // exchange; a respawned shard re-running the same range skips it.
    auto* latch = reinterpret_cast<std::atomic<uint32_t>*>(
        arena_.At(fault_latch_offset_) +
        static_cast<size_t>(f.plan_index) * sizeof(std::atomic<uint32_t>));
    if (latch->exchange(1, std::memory_order_acq_rel) != 0) {
      continue;
    }
    switch (f.kind) {
      case FaultKind::kCrashClean:
        // Vanish with a clean exit code and *no* state/stats publish — the
        // reap loop must not trust the exit status alone.
        _exit(0);
      case FaultKind::kCrashKill:
        raise(SIGKILL);
        _exit(101);  // unreachable
      case FaultKind::kCrashAbort: {
        struct rlimit no_core {0, 0};
        setrlimit(RLIMIT_CORE, &no_core);  // an injected abort dumps no core
        raise(SIGABRT);
        _exit(102);  // unreachable
      }
      case FaultKind::kStall: {
        RecordFault(p, f.kind, f.at_request);
        // Straggler: wedge for `param` ms WITHOUT heartbeat pulses, so the
        // supervisor ladder sees a genuine stall; sliced sleeps keep the
        // shard abort-responsive.
        struct timespec ms {0, 1000000L};
        for (uint64_t i = 0; i < f.param && !Aborted(); ++i) {
          nanosleep(&ms, nullptr);
        }
        break;
      }
      case FaultKind::kDropTelemetry:
        RecordFault(p, f.kind, f.at_request);
        p.drop_telemetry += static_cast<uint32_t>(f.param);
        break;
      case FaultKind::kDelayControl:
        RecordFault(p, f.kind, f.at_request);
        p.ctrl_delay_ms += static_cast<uint32_t>(f.param);
        break;
      case FaultKind::kCorruptStats:
        RecordFault(p, f.kind, f.at_request);
        p.corrupt_stats = true;
        break;
      case FaultKind::kArenaMapFail:
        break;  // pre-fork only (LayoutAndMapArena); never planned per-shard
    }
  }
}

void MultiprocBackend::ProcessBatch(Proc& p, uint32_t count) {
  if (__builtin_expect(p.next_fault < p.faults.size(), 0)) {
    MaybeInjectFaults(p);
  }
  if (p.id == crash_shard_ && p.processed >= crash_after_ &&
      CtrlBlockAt(arena_, control_offset_)
              ->crash_consumed.exchange(1, std::memory_order_acq_rel) == 0) {
    // Crash-isolation test hook: die the hard way, mid-run, like a real
    // shard-process crash would. One-shot via the arena latch, so the
    // respawned incarnation survives the same request range.
    raise(SIGKILL);
  }
  PollInbox(p);
  p.core.AdvanceTo(p.processed);
  p.batch_keys.resize(count);
  if (p.two_level != nullptr) {
    p.two_level->SampleBatch(p.core.rng(), p.batch_keys.data(), count);
  } else {
    p.sampler->SampleBatch(p.core.rng(), p.batch_keys.data(), count);
  }
  ProcSink sink{this, &p};
  p.core.ProcessBatch(sink, p.batch_keys.data(), count);
  p.processed += count;
  PulseHeartbeat(p);
}

void MultiprocBackend::RunShard(Proc& p, uint64_t quota,
                                uint64_t num_requests) {
  const uint32_t n = shard_map_.shards();
  const uint32_t num_cache_nodes = shard_map_.num_cache_nodes();
  p.local.cache_load = model_.ZeroCacheLoads();
  p.local.server_load.assign(model_.num_servers(), 0.0);
  p.own_cache.assign(num_cache_nodes, 0.0);
  p.own_server.assign(model_.num_servers(), 0.0);
  p.last_partial.assign(n, std::vector<double>(num_cache_nodes, 0.0));
  p.out_cache.assign(n, {});
  p.out_server.assign(n, {});
  p.done_ring.assign(n, 0);
  p.sampler = &sampler_;
  p.two_level = two_level_.get();
  p.quota_scale = num_requests == 0 ? 0.0
                                    : static_cast<double>(quota) /
                                          static_cast<double>(num_requests);
  // Schedule this shard's injected faults on its *local* request clock —
  // config timestamps are global-clock, scaled exactly like the timeline
  // plan below. Empty in fault-free runs: the batch-loop hook then compiles
  // to one never-taken branch.
  for (size_t i = 0; i < config_.fault_plan.events.size(); ++i) {
    const FaultEvent& ev = config_.fault_plan.events[i];
    if (ev.shard != p.id || ev.kind == FaultKind::kArenaMapFail) {
      continue;
    }
    p.faults.push_back(
        {static_cast<uint64_t>(static_cast<double>(ev.at_request) *
                               p.quota_scale),
         static_cast<uint32_t>(i), ev.kind, ev.param, ev.at_request});
  }
  std::stable_sort(p.faults.begin(), p.faults.end(),
                   [](const Proc::PlannedFault& a, const Proc::PlannedFault& b) {
                     return a.at_local < b.at_local;
                   });
  p.core.BindStats(&p.local);
  // Arena-resident plan: the base table lives in the arena; install it as a
  // non-owning view (the arena outlives the run by construction).
  const TableView base = ViewTable(arena_.At(plan_table_offset_[0]));
  p.core.SetRouteView(base.entries, base.len, base.overflow);
  // Same open-loop discipline and seed derivation as the in-process shards:
  // each shard process simulates an independent full-rate time slice.
  p.core.ConfigureOpenLoop(
      config_.queue,
      HashCombine(HashCombine(config_.cluster.seed, 0x0be71457ULL), p.id));
  p.core.SetSampleStep(static_cast<double>(config_.sample_interval) *
                       p.quota_scale);
  p.core.SetPhaseHook(
      [this, &p](const WorkloadPhase& phase,
                 const std::shared_ptr<const std::vector<double>>& pmf) {
        if (p.two_level != nullptr) {
          // Closed-form O(hot) rebuild from the phase's skew (no pmf exists in
          // two-level mode); deterministic across shard processes.
          p.phase_two_level = std::make_unique<TwoLevelSampler>(
              model_.cfg.num_keys, phase.zipf_theta, model_.pool);
          p.two_level = p.phase_two_level.get();
        } else if (pmf != nullptr) {
          p.phase_sampler = std::make_unique<AliasSampler>(*pmf);
          p.sampler = p.phase_sampler.get();
        }
      });
  p.core.SetReallocateHook([this, &p] { return ReallocateViaArena(p); });

  // The timeline plan is a pure function of the config, so every child queues
  // it locally — no controller multicast to wait on. Action construction
  // matches the in-process QueueTimelineMsg field-for-field, except the route
  // snapshots: those are arena-resident (the heap copies were freed pre-fork),
  // so each step gets its serialized table installed as a view.
  for (size_t i = 0; i < fired_plan_.size(); ++i) {
    const TimelineStep& step = fired_plan_[i];
    ClusterEvent ev = step.event;
    ev.at_request = step.at_request;
    p.core.QueueAction({static_cast<double>(step.at_request) * p.quota_scale,
                        step.is_phase, step.phase, ev, step.pmf, nullptr});
    const TableView v = ViewTable(arena_.At(plan_table_offset_[1 + i]));
    if (!v.null) {
      p.core.SetActionRouteView(i, v.entries, v.len, v.overflow);
    }
  }

  std::function<void()> batch_event = [&] {
    if (p.processed >= quota) {
      return;
    }
    const uint32_t count = static_cast<uint32_t>(
        std::min<uint64_t>(config_.batch_size, quota - p.processed));
    ProcessBatch(p, count);
    if (p.processed < quota) {
      p.queue.Schedule(static_cast<double>(count), batch_event);
    }
  };
  std::function<void()> telemetry_event = [&] {
    if (p.processed >= quota) {
      return;
    }
    BroadcastTelemetry(p);
    p.queue.Schedule(static_cast<double>(config_.epoch_requests),
                     telemetry_event);
  };
  p.queue.Schedule(0.0, batch_event);
  if (config_.epoch_requests > 0 && n > 1) {
    p.queue.Schedule(static_cast<double>(config_.epoch_requests),
                     telemetry_event);
  }
  p.queue.RunUntil(static_cast<double>(quota) + 1.0);

  p.core.AdvanceTo(quota);

  FlushLoads(p);
  for (uint32_t peer = 0; peer < n; ++peer) {
    if (peer != p.id && !ShardDead(peer)) {
      SendDone(p, peer);
    }
  }
  {
    // A peer is finished when its kDone arrived on the ring — or when its
    // completion slot says it already exited (its kDone may have been
    // consumed by a since-crashed incarnation of this shard under respawn;
    // the slot store is release-ordered after the peer's last ring publish,
    // so counting it finished still guarantees its deltas are visible to the
    // drains below).
    const auto all_done = [&] {
      for (uint32_t peer = 0; peer < n; ++peer) {
        if (peer == p.id || p.done_ring[peer]) {
          continue;
        }
        if (ShardSlotAt(arena_, control_offset_, peer)
                ->state.load(std::memory_order_acquire) != kShardRunning) {
          continue;
        }
        return false;
      }
      return true;
    };
    Backoff backoff;
    while (!all_done()) {
      DrainDataRings(p);
      DrainControlRings(p);
      if (all_done()) {
        break;
      }
      if (Aborted()) {
        p.abort_seen = true;
        break;
      }
      PulseHeartbeat(p);
      backoff.Pause();
    }
    DrainDataRings(p);  // every live peer's final deltas are visible now
  }
  p.core.FinishSeries(p.processed);
  p.local.requests = p.processed;
  // Memory accounting (max-merged, sim_backend.h): the base table and every
  // plan snapshot are arena-resident (counted once, in the supervisor's
  // arena_bytes stamp), so a child's private route-table footprint is zero —
  // the figure the memwall gate banks on; runtime re-allocation tables are
  // arena-resident too.
  p.local.peak_rss_bytes = CurrentPeakRssBytes();
  p.local.route_table_bytes = 0;
  p.local.sampler_bytes = p.two_level != nullptr ? p.two_level->bytes()
                                                 : p.sampler->bytes();
}

// ---- supervisor ------------------------------------------------------------

BackendStats MultiprocBackend::Run(uint64_t num_requests) {
  const uint32_t n = shard_map_.shards();
  fired_plan_.clear();
  for (const TimelineStep& step : plan_) {
    if (step.at_request < num_requests) {
      fired_plan_.push_back(step);
    }
  }
  if (!LayoutAndMapArena(num_requests)) {
    BackendStats stats = FailAll(n);
    stats.fault_events.push_back(
        {0, BackendStats::FaultRecord::kArenaMapFailed, 0});
    if (config_.fault_plan.arena_map_failure()) {
      stats.injected_faults = 1;
    }
    return stats;
  }
  if (config_.numa_interleave) {
    // Before any arena page is faulted: the plan tables serialized below then
    // stripe across nodes instead of landing wholly on the supervisor's.
    arena_.InterleaveAcrossNumaNodes();
  }
  SerializePlanTables();

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<pid_t> pids(n, -1);
  const auto quota_of = [&](uint32_t i) {
    return num_requests / n + (i < num_requests % n ? 1 : 0);
  };
  for (uint32_t i = 0; i < n; ++i) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ChildMain(i, quota_of(i), num_requests, /*respawned=*/false);  // [[noreturn]]
    }
    if (pid < 0) {
      // Partial-fork cleanup: kill and reap everything already spawned,
      // release the arena, and report total failure — never leak children
      // or a mapping on the fork-exhaustion path.
      CtrlBlockAt(arena_, control_offset_)
          ->abort.store(1, std::memory_order_release);
      for (uint32_t k = 0; k < i; ++k) {
        if (pids[k] > 0) {
          ::kill(pids[k], SIGKILL);
        }
      }
      for (uint32_t k = 0; k < i; ++k) {
        if (pids[k] > 0) {
          int status = 0;
          ::waitpid(pids[k], &status, 0);
        }
      }
      arena_.Unmap();
      return FailAll(n);
    }
    pids[i] = pid;
  }

  // Reap loop: children exit on their own (quota done, or abort-flag
  // wind-down). A child that dies abnormally is respawned while its budget
  // lasts, then marked kShardDead so the survivors complete degraded — the
  // abort flag is no longer raised for a lost shard, only for catastrophic
  // setup failures. While a child lives, its heartbeat word is watched on a
  // wall-clock ladder: warn_ms without progress records a miss, dead_ms
  // SIGKILLs the wedged process into the same respawn-or-degrade path, so no
  // fault class (including a silent stall) can hang the run.
  std::vector<uint8_t> failed(n, 0);
  std::vector<uint32_t> respawn_left(
      n, config_.respawn ? config_.respawn_limit : 0);
  uint32_t respawned = 0;
  uint32_t live = n;
  uint64_t heartbeat_misses = 0;
  std::vector<BackendStats::FaultRecord> observed;
  struct Watch {
    uint64_t hb = 0;
    std::chrono::steady_clock::time_point since;
    bool warned = false;
  };
  std::vector<Watch> watch(n);
  for (uint32_t i = 0; i < n; ++i) {
    watch[i].since = t0;
  }
  Backoff backoff;
  while (live > 0) {
    bool progress = false;
    for (uint32_t i = 0; i < n; ++i) {
      if (pids[i] < 0) {
        continue;
      }
      int status = 0;
      const pid_t r = ::waitpid(pids[i], &status, WNOHANG);
      if (r == 0) {
        // Still running: advance the liveness ladder.
        const uint64_t hb = ShardSlotAt(arena_, control_offset_, i)
                                ->heartbeat.load(std::memory_order_relaxed);
        const auto now = std::chrono::steady_clock::now();
        if (hb != watch[i].hb) {
          watch[i] = {hb, now, false};
          continue;
        }
        const uint64_t stalled_ms = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - watch[i].since)
                .count());
        if (!watch[i].warned && config_.heartbeat_warn_ms != 0 &&
            stalled_ms >= config_.heartbeat_warn_ms) {
          watch[i].warned = true;
          ++heartbeat_misses;
          observed.push_back(
              {i, BackendStats::FaultRecord::kHeartbeatWarn, 0});
        }
        if (config_.heartbeat_dead_ms != 0 &&
            stalled_ms >= config_.heartbeat_dead_ms) {
          // Declared dead: kill the wedged process; the next reap pass
          // routes it through the normal respawn-or-degrade path below.
          observed.push_back(
              {i, BackendStats::FaultRecord::kShardDeclaredDead, 0});
          ::kill(pids[i], SIGKILL);
          watch[i].since = now;
          watch[i].warned = false;
        }
        continue;
      }
      pids[i] = -1;
      --live;
      progress = true;
      // Orderly = a clean exit code AND a published completion state. The
      // state check is what catches an injected clean-exit crash: exit(0)
      // with the slot still kShardRunning is a vanished shard, not a done
      // one. Exit 3 is the orderly wind-down after the abort flag.
      const bool orderly =
          r > 0 && WIFEXITED(status) &&
          (WEXITSTATUS(status) == 0 || WEXITSTATUS(status) == 3) &&
          ShardSlotAt(arena_, control_offset_, i)
                  ->state.load(std::memory_order_acquire) != kShardRunning;
      if (orderly) {
        continue;
      }
      observed.push_back({i, BackendStats::FaultRecord::kShardDeath, 0});
      if (respawn_left[i] > 0) {
        --respawn_left[i];
        // Reset the completion slot: SIGKILL usually left it untouched, but a
        // death between the stats publish and _exit would otherwise let peers
        // count this shard done while the respawn is still re-running.
        ShardSlot* slot = ShardSlotAt(arena_, control_offset_, i);
        slot->stats_len.store(0, std::memory_order_release);
        slot->state.store(kShardRunning, std::memory_order_release);
        const pid_t fresh = ::fork();
        if (fresh == 0) {
          ChildMain(i, quota_of(i), num_requests, /*respawned=*/true);
        }
        if (fresh > 0) {
          pids[i] = fresh;
          ++live;
          ++respawned;
          observed.push_back(
              {i, BackendStats::FaultRecord::kShardRespawn, 0});
          watch[i].since = std::chrono::steady_clock::now();
          watch[i].warned = false;
          continue;
        }
        // fork failed: fall through to the dead-shard path
      }
      // Budget exhausted: permanently dead. Peers see kShardDead and skip
      // this shard in every send, rendezvous gather, election and the done
      // protocol; the run completes with the survivors' quota — degrade,
      // don't abort.
      failed[i] = 1;
      ShardSlotAt(arena_, control_offset_, i)
          ->state.store(kShardDead, std::memory_order_release);
      observed.push_back(
          {i, BackendStats::FaultRecord::kShardDeclaredDead, 0});
    }
    if (live > 0 && !progress) {
      backoff.Pause();
    }
  }
  const auto t1 = std::chrono::steady_clock::now();

  // Bucket-exact quota-end merge from the arena-resident per-shard stats:
  // deserialization is bit-exact and BackendStats::Merge is the same
  // element-wise accumulate the in-process engine uses across its joined
  // threads. Every blob must match its child-computed CRC-32 — a mismatch
  // (torn write, injected corruption) fails the shard instead of merging
  // garbage. Lost shards charge their quota to degraded_fraction, so the
  // caller can check hit-ratio degradation is proportional to lost quota.
  BackendStats total;
  uint64_t lost_quota = 0;
  for (uint32_t i = 0; i < n; ++i) {
    ShardSlot* slot = ShardSlotAt(arena_, control_offset_, i);
    const uint32_t state = slot->state.load(std::memory_order_acquire);
    const uint64_t len = slot->stats_len.load(std::memory_order_acquire);
    const bool crc_ok =
        len != 0 && len <= stats_bound_ &&
        slot->stats_crc.load(std::memory_order_acquire) ==
            Crc32(arena_.At(stats_offset_[i]), static_cast<size_t>(len));
    if (!failed[i] && state != kShardRunning && len != 0 &&
        len <= stats_bound_ && !crc_ok) {
      observed.push_back(
          {i, BackendStats::FaultRecord::kStatsCrcMismatch, 0});
    }
    BackendStats partial;
    if (failed[i] || state == kShardRunning || state == kShardDead || !crc_ok ||
        !DeserializeBackendStats(arena_.At(stats_offset_[i]), len, &partial)) {
      ++total.failed_shards;
      lost_quota += quota_of(i);
      continue;
    }
    total.Merge(partial);
  }
  total.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  total.respawned_shards = respawned;
  total.heartbeat_misses += heartbeat_misses;
  total.degraded_fraction =
      num_requests == 0 ? 0.0
                        : static_cast<double>(lost_quota) /
                              static_cast<double>(num_requests);
  total.fault_events.insert(total.fault_events.end(), observed.begin(),
                            observed.end());
  total.arena_bytes = arena_.size();
  total.peak_rss_bytes = std::max(total.peak_rss_bytes, CurrentPeakRssBytes());
  arena_.Unmap();
  return total;
}

}  // namespace distcache
