#include "sim/route_table.h"

#include <algorithm>

namespace distcache {

namespace {

// Fills entries [0, end) — the shared body of the compact and dense builds.
// `reserve_overflow` is the exact spill count so neither build ever pays a
// doubling-growth spike during plan construction.
RouteTable BuildPrefix(const ClusterModel& model, uint64_t hot_shift,
                       uint64_t end, size_t reserve_overflow) {
  RouteTable routes;
  routes.entries.reserve(end);
  routes.entries.resize(end);
  routes.overflow.reserve(reserve_overflow);
  for (uint64_t rank = 0; rank < end; ++rank) {
    const uint64_t key = KeyOfRank(rank, hot_shift, model.cfg.num_keys);
    RouteEntry& e = routes.entries[rank];
    e.server = model.placement.ServerOf(key);
    const CacheCopies copies = model.allocation->CopiesOf(key);
    if (copies.replicated_all_spines) {
      e.kind = RouteEntry::kReplicated;
      // The leaf copy (if any) rides in c0; the layer-0 replicas are implicit.
      if (const auto leaf = copies.leaf()) {
        e.num = 1;
        e.c0 = PackCandidate({copies.leaf_layer, *leaf});
      }
    } else if (copies.num > 0) {
      e.kind = RouteEntry::kCached;
      e.num = copies.num;
      if (copies.num <= 2) {
        e.c0 = PackCandidate(copies.nodes[0]);
        if (copies.num == 2) {
          e.c1 = PackCandidate(copies.nodes[1]);
        }
      } else {
        e.c0 = PackCandidate(copies.nodes[0]);
        e.c1 = static_cast<uint32_t>(routes.overflow.size());
        for (uint8_t i = 0; i < copies.num; ++i) {
          routes.overflow.push_back(PackCandidate(copies.nodes[i]));
        }
      }
    }
  }
  return routes;
}

// One past the largest table rank r < pool whose key KeyOfRank(r, hot_shift,
// num_keys) is `key`, or 0 when no rank below the pool queries it. A pool
// larger than the key space visits a key once per num_keys ranks.
uint64_t TableRankEnd(uint64_t key, uint64_t hot_shift, uint64_t num_keys,
                      uint64_t pool) {
  if (hot_shift == 0) {
    return key < pool ? key + 1 : 0;
  }
  if (key >= num_keys) {
    return 0;
  }
  const uint64_t shift = hot_shift % num_keys;
  const uint64_t first = key >= shift ? key - shift : key + num_keys - shift;
  if (first >= pool) {
    return 0;
  }
  return first + (pool - 1 - first) / num_keys * num_keys + 1;
}

}  // namespace

RouteTable BuildRouteTable(const ClusterModel& model, uint64_t hot_shift) {
  if (model.dense_routes) {
    return BuildDenseRouteTable(model, hot_shift);
  }
  // The hot prefix ends one past the deepest *table* rank with a cached copy.
  // That is not the allocation's CachedRankEnd() in general: the table is
  // indexed in rotated rank space (entry r describes key (r + hot_shift) %
  // num_keys), and after a refill the allocation ranks keys through the
  // observed key→rank index. So map every cached key back to the last table
  // rank below the pool that queries it. Every rank at or beyond `end` then
  // produces exactly the kUncached entry the engines' inline fallback
  // recomputes, which makes the truncated table bit-identical to the dense one
  // at ~C entries instead of the full 8×-budget candidate pool, and the build
  // is O(cached keys) time as well as memory.
  const CacheAllocation& allocation = *model.allocation;
  uint64_t end = 0;
  for (size_t l = 0; l < allocation.num_layers(); ++l) {
    for (const std::vector<uint64_t>& contents : allocation.layer_contents(l)) {
      for (const uint64_t key : contents) {
        end = std::max(end, TableRankEnd(key, hot_shift, model.cfg.num_keys,
                                         model.pool));
      }
    }
  }
  return BuildPrefix(model, hot_shift, end,
                     model.allocation->OverflowCandidates());
}

RouteTable BuildDenseRouteTable(const ClusterModel& model, uint64_t hot_shift) {
  return BuildPrefix(model, hot_shift, model.pool,
                     model.allocation->OverflowCandidates());
}

}  // namespace distcache
