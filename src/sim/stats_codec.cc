#include "sim/stats_codec.h"

#include <bit>
#include <cstring>

#include "common/hash.h"
#include "common/stats.h"

namespace distcache {
namespace {

// Bump-pointer writer/reader over the caller's buffer; every primitive moves
// through memcpy so doubles keep their exact bit pattern and alignment is a
// non-issue.
struct Writer {
  uint8_t* p;
  size_t left;
  bool ok = true;

  void Bytes(const void* src, size_t n) {
    if (!ok || n > left) {
      ok = false;
      return;
    }
    if (n == 0) {
      return;  // empty vectors hand us data() == nullptr; memcpy forbids it
    }
    std::memcpy(p, src, n);
    p += n;
    left -= n;
  }
  template <class T>
  void Put(T v) {
    Bytes(&v, sizeof(v));
  }
  void U64(uint64_t v) { Put(v); }
  void DoubleVec(const std::vector<double>& v) {
    U64(v.size());
    Bytes(v.data(), v.size() * sizeof(double));
  }
};

struct Reader {
  const uint8_t* p;
  size_t left;
  bool ok = true;

  void Bytes(void* dst, size_t n) {
    if (!ok || n > left) {
      ok = false;
      return;
    }
    if (n == 0) {
      return;  // a resize(0) target keeps data() == nullptr; memcpy forbids it
    }
    std::memcpy(dst, p, n);
    p += n;
    left -= n;
  }
  template <class T>
  void Get(T* v) {
    Bytes(v, sizeof(T));
  }
  uint64_t U64() {
    uint64_t v = 0;
    Get(&v);
    return v;
  }
  bool DoubleVec(std::vector<double>* v) {
    const uint64_t n = U64();
    if (!ok || n > left / sizeof(double)) {
      return ok = false;
    }
    v->resize(n);
    Bytes(v->data(), n * sizeof(double));
    return ok;
  }
};

void PutHistogram(Writer& w, const LatencyHistogram& h) {
  const std::vector<uint64_t>& counts = h.counts();
  w.U64(counts.size());  // 0 (lazily unallocated) or kNumBuckets
  w.Bytes(counts.data(), counts.size() * sizeof(uint64_t));
  w.U64(h.total());
  w.U64(h.infinite());
  w.Put(h.finite_sum());
}

bool GetHistogram(Reader& r, LatencyHistogram* h) {
  const uint64_t n = r.U64();
  if (!r.ok || (n != 0 && n != LatencyHistogram::kNumBuckets) ||
      n > r.left / sizeof(uint64_t)) {
    return r.ok = false;
  }
  std::vector<uint64_t> counts(n);
  r.Bytes(counts.data(), n * sizeof(uint64_t));
  const uint64_t total = r.U64();
  const uint64_t infinite = r.U64();
  double sum = 0.0;
  r.Get(&sum);
  if (!r.ok) {
    return false;
  }
  *h = LatencyHistogram::FromRaw(std::move(counts), total, infinite, sum);
  return true;
}

constexpr size_t kHistogramBound =
    8 + LatencyHistogram::kNumBuckets * 8 + 8 + 8 + 8;
constexpr size_t kFaultRecordBound = 2 * 4 + 8;  // shard + kind + at

// The field table (sim_backend.h) expanded once per codec direction, for the
// bound and for the digest.
#define DISTCACHE_STAT_BYTES(name, type, merge, kind) +sizeof(type)
#define DISTCACHE_PUT_STAT(name, type, merge, kind) w.Put(v.name);
#define DISTCACHE_GET_STAT(name, type, merge, kind) r.Get(&v->name);
#define DISTCACHE_MIX_STAT(name, type, merge, kind)    \
  if constexpr (StatsKind::kind == StatsKind::kDigest) { \
    mix(std::bit_cast<uint64_t>(v.name));                \
  }

constexpr size_t kScalarBytes =
    0 DISTCACHE_BACKEND_STATS_SCALARS(DISTCACHE_STAT_BYTES);
constexpr size_t kCounterBytes =
    0 DISTCACHE_INTERVAL_POINT_COUNTERS(DISTCACHE_STAT_BYTES);

void PutScalars(Writer& w, const BackendStats& v) {
  DISTCACHE_BACKEND_STATS_SCALARS(DISTCACHE_PUT_STAT)
}
void PutCounters(Writer& w, const BackendStats::IntervalPoint& v) {
  DISTCACHE_INTERVAL_POINT_COUNTERS(DISTCACHE_PUT_STAT)
}
void GetScalars(Reader& r, BackendStats* v) {
  DISTCACHE_BACKEND_STATS_SCALARS(DISTCACHE_GET_STAT)
}
void GetCounters(Reader& r, BackendStats::IntervalPoint* v) {
  DISTCACHE_INTERVAL_POINT_COUNTERS(DISTCACHE_GET_STAT)
}

template <class Mix>
void MixScalars(const Mix& mix, const BackendStats& v) {
  DISTCACHE_BACKEND_STATS_SCALARS(DISTCACHE_MIX_STAT)
}
template <class Mix>
void MixCounters(const Mix& mix, const BackendStats::IntervalPoint& v) {
  DISTCACHE_INTERVAL_POINT_COUNTERS(DISTCACHE_MIX_STAT)
}

#undef DISTCACHE_STAT_BYTES
#undef DISTCACHE_PUT_STAT
#undef DISTCACHE_GET_STAT
#undef DISTCACHE_MIX_STAT

}  // namespace

size_t StatsCodecBound(size_t num_layers, size_t num_cache_nodes,
                       size_t num_servers, size_t max_series_points,
                       size_t max_fault_events) {
  size_t bytes = kScalarBytes + 8;                    // scalars + slack word
  bytes += 8 + num_layers * 8 + num_cache_nodes * 8;  // cache_load
  bytes += 8 + num_servers * 8;                       // server_load
  bytes += kHistogramBound;                           // latency
  bytes += 8 + max_series_points * (kCounterBytes + kHistogramBound);  // series
  bytes += 8 + max_fault_events * kFaultRecordBound;  // fault_events
  return bytes;
}

size_t SerializeBackendStats(const BackendStats& stats, uint8_t* out,
                             size_t cap) {
  Writer w{out, cap};
  PutScalars(w, stats);
  w.U64(stats.cache_load.size());
  for (const std::vector<double>& layer : stats.cache_load) {
    w.DoubleVec(layer);
  }
  w.DoubleVec(stats.server_load);
  PutHistogram(w, stats.latency);
  w.U64(stats.series.size());
  for (const BackendStats::IntervalPoint& pt : stats.series) {
    PutCounters(w, pt);
    PutHistogram(w, pt.latency);
  }
  w.U64(stats.fault_events.size());
  for (const BackendStats::FaultRecord& rec : stats.fault_events) {
    w.Bytes(&rec.shard, sizeof(rec.shard));
    w.Bytes(&rec.kind, sizeof(rec.kind));
    w.U64(rec.at);
  }
  return w.ok ? cap - w.left : 0;
}

bool DeserializeBackendStats(const uint8_t* in, size_t len, BackendStats* out) {
  *out = BackendStats{};
  Reader r{in, len};
  GetScalars(r, out);
  const uint64_t layers = r.U64();
  if (!r.ok || layers > r.left / 8) {
    *out = BackendStats{};
    return false;
  }
  out->cache_load.resize(layers);
  for (uint64_t l = 0; l < layers; ++l) {
    r.DoubleVec(&out->cache_load[l]);
  }
  r.DoubleVec(&out->server_load);
  GetHistogram(r, &out->latency);
  const uint64_t points = r.U64();
  if (!r.ok || points > r.left / kCounterBytes) {
    *out = BackendStats{};
    return false;
  }
  out->series.resize(points);
  for (uint64_t i = 0; i < points; ++i) {
    BackendStats::IntervalPoint& pt = out->series[i];
    GetCounters(r, &pt);
    GetHistogram(r, &pt.latency);
  }
  const uint64_t faults = r.U64();
  if (!r.ok || faults > r.left / kFaultRecordBound) {
    *out = BackendStats{};
    return false;
  }
  out->fault_events.resize(faults);
  for (uint64_t i = 0; i < faults; ++i) {
    BackendStats::FaultRecord& rec = out->fault_events[i];
    r.Bytes(&rec.shard, sizeof(rec.shard));
    r.Bytes(&rec.kind, sizeof(rec.kind));
    rec.at = r.U64();
  }
  if (!r.ok) {
    *out = BackendStats{};
    return false;
  }
  return true;
}

uint64_t DeterministicStatsDigest(const BackendStats& stats) {
  uint64_t h = 0x5eed0d16e57ULL;
  const auto mix = [&h](uint64_t v) { h = Mix64(HashCombine(h, v)); };
  MixScalars(mix, stats);
  mix(stats.series.size());
  for (const BackendStats::IntervalPoint& pt : stats.series) {
    MixCounters(mix, pt);
  }
  return h;
}

}  // namespace distcache
