// Differential test of CacheAllocation against a brute-force reference.
//
// The reference below fills each layer on its own, walking every rank of the
// candidate pool (or the whole refill list) and keeping a per-partition
// counter, and keeps the per-rank copies for the full pool. CacheAllocation
// fills all layers in one pass and stops at the first rank after which no
// budget can change, so it keeps per-rank state only for that prefix. The two
// must agree on every observable: CopiesOf for every rank below the pool and
// beyond it, the per-node contents, the cached-rank count, CachedRankEnd and
// OverflowCandidates — for every mechanism, depth, pool size, refill list and
// failure remap.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/allocation.h"

namespace distcache {
namespace {

constexpr uint32_t kRacks = 8;
constexpr int64_t kNone = -1;

struct Reference {
  // copies[r][l]: node of layer l holding rank r (post-remap), or kNone.
  std::vector<std::array<int64_t, kMaxCacheLayers>> copies;
  std::vector<uint8_t> replicated;  // rank r is in every layer-0 node
  std::vector<std::vector<std::vector<uint64_t>>> contents;  // [layer][node]
  std::unordered_map<uint64_t, uint64_t> first_rank;         // explicit list only
  bool explicit_list = false;
  uint64_t pool = 0;
  size_t num_cached = 0;
  uint64_t cached_rank_end = 0;
  size_t overflow = 0;
};

// `keys` is the hottest-first ranking (already cut to the pool); `remaps[l]`
// the partition→node map of upper layer l.
Reference BuildReference(const CacheAllocation& alloc, const Placement& placement,
                         const std::vector<uint64_t>& keys, bool explicit_list,
                         const std::vector<std::vector<uint32_t>>& remaps) {
  const AllocationConfig& cfg = alloc.config();
  const size_t num_layers = cfg.layers.size();
  const size_t leaf = num_layers - 1;
  Reference ref;
  ref.explicit_list = explicit_list;
  ref.pool = alloc.candidate_pool();
  ref.copies.assign(keys.size(), {});
  for (auto& row : ref.copies) {
    row.fill(kNone);
  }
  ref.replicated.assign(keys.size(), 0);
  ref.contents.resize(num_layers);

  // Leaf layer: the hottest members of each rack.
  ref.contents[leaf].assign(cfg.layers[leaf].nodes, {});
  if (cfg.mechanism != Mechanism::kNoCache) {
    std::vector<uint64_t> used(cfg.layers[leaf].nodes, 0);
    for (size_t r = 0; r < keys.size(); ++r) {
      const uint32_t rack = placement.RackOf(keys[r]);
      if (used[rack] < cfg.layers[leaf].cache_objects) {
        ++used[rack];
        ref.copies[r][leaf] = rack;
        ref.contents[leaf][rack].push_back(keys[r]);
      }
    }
  }
  // Upper layers.
  for (size_t l = 0; l < leaf; ++l) {
    const uint32_t nodes = cfg.layers[l].nodes;
    ref.contents[l].assign(nodes, {});
    if (cfg.mechanism == Mechanism::kCacheReplication) {
      if (l == 0) {
        for (size_t r = 0; r < keys.size() && r < cfg.layers[0].cache_objects; ++r) {
          ref.replicated[r] = 1;
          for (auto& node : ref.contents[0]) {
            node.push_back(keys[r]);
          }
        }
      }
      continue;
    }
    if (cfg.mechanism != Mechanism::kDistCache) {
      continue;
    }
    std::vector<std::vector<uint64_t>> partitions(nodes);
    for (size_t r = 0; r < keys.size(); ++r) {
      const uint32_t p = alloc.PartitionOf(l, keys[r]);
      if (partitions[p].size() < cfg.layers[l].cache_objects) {
        partitions[p].push_back(keys[r]);
        ref.copies[r][l] = remaps[l][p];
      }
    }
    for (uint32_t p = 0; p < nodes; ++p) {
      auto& dst = ref.contents[l][remaps[l][p]];
      dst.insert(dst.end(), partitions[p].begin(), partitions[p].end());
    }
  }

  for (size_t r = 0; r < keys.size(); ++r) {
    size_t n = ref.replicated[r];
    for (size_t l = 0; l < num_layers; ++l) {
      n += ref.copies[r][l] != kNone ? 1 : 0;
    }
    if (n > 0) {
      ++ref.num_cached;
      ref.cached_rank_end = r + 1;
    }
    if (cfg.mechanism == Mechanism::kDistCache && n > 2) {
      ref.overflow += n;
    }
    if (explicit_list) {
      ref.first_rank.emplace(keys[r], r);
    }
  }
  return ref;
}

CacheCopies ExpectedCopies(const Reference& ref, size_t num_layers, uint64_t key) {
  CacheCopies copies;
  copies.leaf_layer = static_cast<uint8_t>(num_layers - 1);
  uint64_t rank = key;
  if (ref.explicit_list) {
    const auto it = ref.first_rank.find(key);
    if (it == ref.first_rank.end()) {
      return copies;
    }
    rank = it->second;
  }
  if (rank >= ref.copies.size()) {
    return copies;
  }
  copies.replicated_all_spines = ref.replicated[rank] != 0;
  for (size_t l = 0; l < num_layers; ++l) {
    if (ref.copies[rank][l] != kNone) {
      copies.nodes[copies.num++] = {static_cast<uint32_t>(l),
                                    static_cast<uint32_t>(ref.copies[rank][l])};
    }
  }
  return copies;
}

void ExpectMatches(const CacheAllocation& alloc, const Reference& ref,
                   const std::vector<uint64_t>& probe_keys) {
  const size_t num_layers = alloc.num_layers();
  auto check = [&](uint64_t key) {
    const CacheCopies got = alloc.CopiesOf(key);
    const CacheCopies want = ExpectedCopies(ref, num_layers, key);
    ASSERT_EQ(got.num, want.num) << "key " << key;
    ASSERT_EQ(got.leaf_layer, want.leaf_layer) << "key " << key;
    ASSERT_EQ(got.replicated_all_spines, want.replicated_all_spines) << "key " << key;
    for (uint8_t i = 0; i < got.num; ++i) {
      ASSERT_EQ(got.nodes[i].layer, want.nodes[i].layer) << "key " << key;
      ASSERT_EQ(got.nodes[i].index, want.nodes[i].index) << "key " << key;
    }
  };
  // Every rank below the pool, and some beyond it.
  for (uint64_t key = 0; key < ref.pool; ++key) {
    check(key);
  }
  for (const uint64_t key : {ref.pool, ref.pool + 1, 2 * ref.pool + 3,
                             uint64_t{1} << 40, ~uint64_t{0}}) {
    check(key);
  }
  for (const uint64_t key : probe_keys) {
    check(key);
  }
  for (size_t l = 0; l < num_layers; ++l) {
    EXPECT_EQ(alloc.layer_contents(l), ref.contents[l]) << "layer " << l;
  }
  EXPECT_EQ(alloc.num_cached_keys(), ref.num_cached);
  EXPECT_EQ(alloc.CachedRankEnd(), ref.cached_rank_end);
  EXPECT_EQ(alloc.OverflowCandidates(), ref.overflow);
}

// Depth 2, 3 and 4 with uneven per-layer shapes; the leaf is rack-bound.
std::vector<LayerSpec> Layers(size_t depth) {
  switch (depth) {
    case 2:
      return {{8, 10}, {kRacks, 10}};
    case 3:
      return {{6, 12}, {8, 7}, {kRacks, 10}};
    default:
      return {{8, 9}, {5, 11}, {7, 6}, {kRacks, 10}};
  }
}

uint64_t Budget(const std::vector<LayerSpec>& layers) {
  uint64_t budget = 0;
  for (const LayerSpec& layer : layers) {
    budget += uint64_t{layer.nodes} * layer.cache_objects;
  }
  return budget;
}

std::vector<std::vector<uint32_t>> IdentityRemaps(const std::vector<LayerSpec>& layers) {
  std::vector<std::vector<uint32_t>> remaps(layers.size() - 1);
  for (size_t l = 0; l + 1 < layers.size(); ++l) {
    for (uint32_t p = 0; p < layers[l].nodes; ++p) {
      remaps[l].push_back(p);
    }
  }
  return remaps;
}

// A failure remap: the last node of every upper layer is dead and hands its
// partition to node 0.
std::vector<std::vector<uint32_t>> FailedRemaps(const std::vector<LayerSpec>& layers) {
  std::vector<std::vector<uint32_t>> remaps = IdentityRemaps(layers);
  for (auto& remap : remaps) {
    remap.back() = 0;
  }
  return remaps;
}

std::vector<uint64_t> IdentityKeys(uint64_t pool) {
  std::vector<uint64_t> keys(pool);
  for (uint64_t r = 0; r < pool; ++r) {
    keys[r] = r;
  }
  return keys;
}

constexpr Mechanism kMechanisms[] = {Mechanism::kDistCache,
                                     Mechanism::kCacheReplication,
                                     Mechanism::kCachePartition, Mechanism::kNoCache};

std::string Label(Mechanism m, size_t depth, uint64_t pool) {
  return MechanismName(m) + " L=" + std::to_string(depth) +
         " pool=" + std::to_string(pool);
}

// Construction under the identity ranking: a pool too small to fill any
// budget, the auto pool, and a pool far larger than the budget.
TEST(AllocationDifferential, ConstructionMatchesFullPoolReference) {
  for (const Mechanism m : kMechanisms) {
    for (const size_t depth : {size_t{2}, size_t{3}, size_t{4}}) {
      const std::vector<LayerSpec> layers = Layers(depth);
      for (const uint64_t pool : {uint64_t{5}, uint64_t{0}, 150 * Budget(layers)}) {
        AllocationConfig cfg;
        cfg.mechanism = m;
        cfg.layers = layers;
        cfg.candidate_pool = pool;
        const Placement placement(kRacks, 4);
        const CacheAllocation alloc(cfg, placement);
        SCOPED_TRACE(Label(m, depth, alloc.candidate_pool()));
        const Reference ref =
            BuildReference(alloc, placement, IdentityKeys(alloc.candidate_pool()),
                           /*explicit_list=*/false, IdentityRemaps(layers));
        ExpectMatches(alloc, ref, {});
      }
    }
  }
}

// A remap applied after construction re-derives the contents and the nodes
// CopiesOf reports.
TEST(AllocationDifferential, RemapMatchesReference) {
  for (const Mechanism m : kMechanisms) {
    for (const size_t depth : {size_t{2}, size_t{3}, size_t{4}}) {
      const std::vector<LayerSpec> layers = Layers(depth);
      AllocationConfig cfg;
      cfg.mechanism = m;
      cfg.layers = layers;
      cfg.candidate_pool = 40 * Budget(layers);
      const Placement placement(kRacks, 4);
      CacheAllocation alloc(cfg, placement);
      const auto remaps = FailedRemaps(layers);
      for (size_t l = 0; l < remaps.size(); ++l) {
        alloc.RemapLayer(l, remaps[l]);
      }
      SCOPED_TRACE(Label(m, depth, alloc.candidate_pool()));
      const Reference ref = BuildReference(
          alloc, placement, IdentityKeys(alloc.candidate_pool()), false, remaps);
      ExpectMatches(alloc, ref, {});
    }
  }
}

// Refill lists: shorter than the budget, with duplicate keys, longer than the
// pool, and empty — each with and without a remap in effect.
TEST(AllocationDifferential, RefillMatchesReference) {
  // Scattered key ids far from the identity ranks, so a miss in the key→rank
  // index cannot be mistaken for an identity hit.
  auto scattered = [](uint64_t n, uint64_t salt) {
    std::vector<uint64_t> keys(n);
    for (uint64_t i = 0; i < n; ++i) {
      keys[i] = (i * 2654435761ULL + salt) % 1'000'003ULL + 10'000'000ULL;
    }
    return keys;
  };
  for (const Mechanism m : kMechanisms) {
    for (const size_t depth : {size_t{2}, size_t{3}, size_t{4}}) {
      const std::vector<LayerSpec> layers = Layers(depth);
      const uint64_t budget = Budget(layers);
      const uint64_t pool = 30 * budget;
      std::vector<std::pair<std::string, std::vector<uint64_t>>> lists;
      lists.emplace_back("short", scattered(budget / 3, 1));
      std::vector<uint64_t> dups = scattered(4 * budget, 2);
      for (size_t i = 0; i < dups.size(); i += 3) {
        dups[i] = dups[i / 2];  // repeat an earlier (hotter) key
      }
      dups[5] = dups[0];
      lists.emplace_back("duplicates", dups);
      lists.emplace_back("beyond-pool", scattered(pool + budget, 3));
      lists.emplace_back("empty", std::vector<uint64_t>{});
      for (const bool remapped : {false, true}) {
        for (const auto& [name, list] : lists) {
          AllocationConfig cfg;
          cfg.mechanism = m;
          cfg.layers = layers;
          cfg.candidate_pool = pool;
          const Placement placement(kRacks, 4);
          CacheAllocation alloc(cfg, placement);
          const auto remaps = remapped ? FailedRemaps(layers) : IdentityRemaps(layers);
          if (remapped) {
            for (size_t l = 0; l < remaps.size(); ++l) {
              alloc.RemapLayer(l, remaps[l]);
            }
          }
          alloc.Refill(list, placement);
          SCOPED_TRACE(Label(m, depth, pool) + " " + name +
                       (remapped ? " remapped" : ""));
          const std::vector<uint64_t> ranked(
              list.begin(), list.begin() + std::min<size_t>(list.size(), pool));
          const Reference ref = BuildReference(alloc, placement, ranked, true, remaps);
          // Probe every listed key too: the ranks after the last budget fill
          // and keys that only appear there must resolve to uncached.
          ExpectMatches(alloc, ref, list);
        }
      }
    }
  }
}

// The allocation's footprint depends on the cached set, not the candidate
// pool: for every mechanism a 10x larger pool holds the same bytes, and both
// stay far below the 5 bytes per rank and layer that pool-wide per-rank arrays
// would take.
TEST(AllocationDifferential, BytesIndependentOfPool) {
  const std::vector<LayerSpec> layers = Layers(3);
  const Placement placement(kRacks, 4);
  const uint64_t pool = 1000 * Budget(layers);
  for (const Mechanism m : kMechanisms) {
    auto bytes_at = [&](uint64_t candidate_pool) {
      AllocationConfig cfg;
      cfg.mechanism = m;
      cfg.layers = layers;
      cfg.candidate_pool = candidate_pool;
      return CacheAllocation(cfg, placement).bytes();
    };
    const size_t small = bytes_at(pool / 10);
    const size_t large = bytes_at(pool);
    EXPECT_GT(small, 0u) << MechanismName(m);
    EXPECT_EQ(small, large) << MechanismName(m);
    EXPECT_LT(large, pool * layers.size() * 5 / 100) << MechanismName(m);
  }
}

}  // namespace
}  // namespace distcache
