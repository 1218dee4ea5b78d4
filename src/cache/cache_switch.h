// Software model of a caching switch (the paper's Tofino data plane, §4.2/§5).
//
// The data-plane functionality we reproduce:
//  * a key-value cache organized as fixed 16-byte slots across pipeline stages
//    (8 stages × 64K slots in the prototype; values up to 128 B span stages),
//  * a per-object validity bit (cleared by phase 1 of the coherence protocol,
//    set by phase 2 — reads of an invalid entry fall through to the server),
//  * per-object hit counters, reset every epoch,
//  * a telemetry register: total packets served in the current epoch, piggybacked on
//    reply packets for the power-of-two-choices router.
//
// The heavy-hitter registers (Count-Min + Bloom) are modelled at register level in
// dataplane/cache_program.h; the engines' controller observer is sketch/heavy_hitter.h.
#ifndef DISTCACHE_CACHE_CACHE_SWITCH_H_
#define DISTCACHE_CACHE_CACHE_SWITCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/status.h"

namespace distcache {

enum class LookupResult : uint8_t {
  kHit,        // cached and valid: switch replies directly
  kInvalid,    // cached but mid-update: fall through to the server
  kMiss,       // not in this switch's cache
};

class CacheSwitch {
 public:
  struct Config {
    uint32_t switch_id = 0;
    size_t num_stages = 8;          // paper §5
    size_t slots_per_stage = 65536;  // paper §5: 64K 16-byte slots per stage
    size_t slot_bytes = 16;
    double capacity = 1.0;  // service units/sec (rate-limited to rack aggregate, §6.1)
  };

  explicit CacheSwitch(const Config& config);

  // --- data-plane read path -------------------------------------------------------

  // Looks up `key`; on a hit copies the value out and bumps the hit counter and the
  // telemetry load register.
  LookupResult Lookup(uint64_t key, std::string* value_out);

  // --- cache management (controller + coherence protocol) --------------------------

  // Inserts `key` marked INVALID — the unified insertion of §4.3: the entry is
  // inserted first, then the server populates it via coherence phase 2.
  Status InsertInvalid(uint64_t key, size_t value_size);

  // Coherence phase 1: clears the validity bit. kNotFound if the key is not cached.
  Status Invalidate(uint64_t key);

  // Coherence phase 2: writes the value and sets the validity bit.
  Status UpdateValue(uint64_t key, std::string value);

  // Removes the entry and releases its slots.
  Status Evict(uint64_t key);

  bool IsValid(uint64_t key) const;
  uint64_t HitCount(uint64_t key) const;

  // --- telemetry (§4.2 in-network telemetry) ---------------------------------------

  // Load this epoch (the value piggybacked into reply headers).
  uint64_t TelemetryLoad() const { return telemetry_load_; }
  // Charges non-hit work against the telemetry register (e.g., coherence traffic).
  void AddTelemetryLoad(uint64_t units) { telemetry_load_ += units; }
  // Epoch roll: resets the telemetry register and hit counters (the prototype
  // resets these every second, §5).
  void NewEpoch();

  // --- capacity accounting ----------------------------------------------------------

  double capacity() const { return config_.capacity; }
  size_t slots_used() const { return slots_used_; }
  size_t slots_total() const { return config_.num_stages * config_.slots_per_stage; }
  size_t num_entries() const { return entries_.size(); }
  uint32_t id() const { return config_.switch_id; }

 private:
  struct Entry {
    std::string value;
    bool valid = false;
    uint64_t hits = 0;
    size_t slots = 1;  // 16-byte slots spanned by the value
  };

  size_t SlotsFor(size_t value_size) const {
    return value_size == 0 ? 1 : (value_size + config_.slot_bytes - 1) / config_.slot_bytes;
  }

  Config config_;
  std::unordered_map<uint64_t, Entry> entries_;
  size_t slots_used_ = 0;
  uint64_t telemetry_load_ = 0;
};

}  // namespace distcache

#endif  // DISTCACHE_CACHE_CACHE_SWITCH_H_
