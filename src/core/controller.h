// Cache controller (§4.1, §4.4).
//
// The controller computes cache partitions and pushes them to the switches. It is off
// the query path entirely; it acts only on reconfiguration — adding racks/switches and
// handling failures. On a spine-switch failure it remaps the failed switch's h0
// partition onto the remaining alive switches with consistent hashing + virtual nodes
// so the displaced hot objects stay cached and the extra load spreads out.
#ifndef DISTCACHE_CORE_CONTROLLER_H_
#define DISTCACHE_CORE_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/allocation.h"
#include "core/consistent_hash.h"

namespace distcache {

class CacheController {
 public:
  // Called whenever the partition→switch mapping changes; carries, for each h0
  // partition p, the alive spine switch now hosting it.
  using RemapListener = std::function<void(const std::vector<uint32_t>&)>;

  CacheController(CacheAllocation* allocation, uint32_t num_spine);

  // Marks `spine` failed and remaps its partition(s). No-op if already failed or if
  // it is the last alive spine (nothing to remap onto).
  void OnSpineFailure(uint32_t spine);

  // Brings `spine` back; its own partition returns home and it becomes eligible to
  // host other failed switches' partitions again.
  void OnSpineRecovery(uint32_t spine);

  // Online cache re-allocation (§6.4 hot-spot shift): replaces the cached set with
  // the hottest-first key list the controller observed (heavy-hitter reports
  // aggregated from the switches), then re-applies the partition→spine remap
  // currently in effect so re-allocation composes with failure handling. The new
  // allocation must be pushed to clients afterwards (route-table rebuild +
  // multicast, see sim/sharded_backend.h).
  void ReallocateCache(const std::vector<uint64_t>& hottest_first,
                       const Placement& placement);

  bool IsAlive(uint32_t spine) const { return alive_[spine]; }
  uint32_t num_alive() const { return num_alive_; }
  const std::vector<uint32_t>& spine_of_partition() const { return spine_of_partition_; }

  void set_remap_listener(RemapListener listener) { listener_ = std::move(listener); }

 private:
  void Recompute();

  CacheAllocation* allocation_;
  uint32_t num_spine_;
  uint32_t num_alive_;
  std::vector<bool> alive_;
  std::vector<uint32_t> spine_of_partition_;
  ConsistentHashRing ring_;
  RemapListener listener_;
};

}  // namespace distcache

#endif  // DISTCACHE_CORE_CONTROLLER_H_
