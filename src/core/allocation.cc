#include "core/allocation.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace distcache {

CacheAllocation::CacheAllocation(const AllocationConfig& config, const Placement& placement)
    : config_(config) {
  // Hard checks in every build mode: a malformed hierarchy would index the
  // per-rack and per-partition arrays out of bounds below.
  if (config_.layers.size() < 2 || config_.layers.size() > kMaxCacheLayers ||
      placement.num_racks() != config_.layers.back().nodes) {
    std::fprintf(stderr,
                 "CacheAllocation: invalid hierarchy (%zu layers, leaf %u nodes, "
                 "%u racks)\n",
                 config_.layers.size(),
                 config_.layers.empty() ? 0 : config_.layers.back().nodes,
                 placement.num_racks());
    std::abort();
  }
  // One independent hash per upper layer. Layer 0 keeps the historical h0 seed
  // derivation exactly; deeper layers perturb the tweak so every layer's hash is
  // an independent tabulation function.
  hash_.reserve(config_.layers.size() - 1);
  for (size_t l = 0; l + 1 < config_.layers.size(); ++l) {
    hash_.emplace_back(HashCombine(config_.hash_seed, 0xa110cULL + l));
  }
  if (config_.candidate_pool != 0) {
    pool_ = config_.candidate_pool;
  } else {
    uint64_t budget = 0;
    for (const LayerSpec& layer : config_.layers) {
      budget += uint64_t{layer.nodes} * layer.cache_objects;
    }
    pool_ = 8 * budget;
  }
  Compute(placement);
}

void CacheAllocation::Compute(const Placement& placement) {
  const size_t num_layers = config_.layers.size();
  const size_t leaf = num_layers - 1;
  // How many ranks the current hot ordering covers: the whole pool under the
  // identity mapping, the list length after Refill (a short observed list leaves
  // the remaining budget demand unfilled).
  const uint64_t ranked =
      explicit_hot_list_ ? std::min<uint64_t>(key_of_rank_.size(), pool_) : pool_;
  layer_contents_.assign(num_layers, {});
  layer_contents_[leaf].assign(config_.layers[leaf].nodes, {});
  partition_contents_.assign(leaf, {});
  node_of_partition_.assign(leaf, {});
  for (size_t l = 0; l < leaf; ++l) {
    partition_contents_[l].assign(config_.layers[l].nodes, {});
    node_of_partition_[l].resize(config_.layers[l].nodes);
    std::iota(node_of_partition_[l].begin(), node_of_partition_[l].end(), 0);
  }

  const bool leaf_caching = config_.mechanism != Mechanism::kNoCache;
  const bool upper_partitioned = config_.mechanism == Mechanism::kDistCache;
  const bool top_replicated = config_.mechanism == Mechanism::kCacheReplication;

  // Open slots across every layer the mechanism fills (the replicated top
  // layer is one set). Once they are all taken no later rank can be cached
  // anywhere, so the pass stops there.
  auto slots = [&](size_t l) {
    return uint64_t{config_.layers[l].nodes} * config_.layers[l].cache_objects;
  };
  uint64_t open = leaf_caching ? slots(leaf) : 0;
  if (upper_partitioned) {
    for (size_t l = 0; l < leaf; ++l) {
      open += slots(l);
    }
  } else if (top_replicated) {
    open += config_.layers[0].cache_objects;
  }

  // Ranks are visited hottest-first, so a single ascending pass fills every
  // per-node budget with the hottest members of its partition. All hashes (h_l,
  // placement) are evaluated on the *key id* holding the rank, so an explicit hot
  // list lands each key at its true rack/partitions.
  cached_.clear();
  node_of_.clear();
  auto& leaf_contents = layer_contents_[leaf];
  uint64_t rank = 0;
  for (; rank < ranked && open > 0; ++rank) {
    const uint64_t key = KeyOfRank(rank);
    uint8_t mask = 0;
    const size_t base = node_of_.size();
    node_of_.resize(base + num_layers, 0);
    const uint32_t rack = placement.RackOf(key);
    node_of_[base + leaf] = rack;
    if (leaf_caching &&
        leaf_contents[rack].size() < config_.layers[leaf].cache_objects) {
      leaf_contents[rack].push_back(key);
      mask |= uint8_t{1} << leaf;
    }
    if (upper_partitioned) {
      for (size_t l = 0; l < leaf; ++l) {
        const uint32_t partition = PartitionOf(l, key);
        node_of_[base + l] = partition;
        if (partition_contents_[l][partition].size() <
            config_.layers[l].cache_objects) {
          partition_contents_[l][partition].push_back(key);
          mask |= uint8_t{1} << l;
        }
      }
    } else if (top_replicated && rank < config_.layers[0].cache_objects) {
      // The globally hottest objects; identical content in every layer-0 node.
      partition_contents_[0][0].push_back(key);
      mask |= 1;
    }
    cached_.push_back(mask);
    open -= static_cast<uint64_t>(std::popcount(mask));
  }
  rank_end_ = rank;
  cached_.shrink_to_fit();
  node_of_.shrink_to_fit();

  for (size_t l = 0; l < leaf; ++l) {
    DeriveLayerContents(l);
  }

  num_cached_ = 0;
  for (const uint8_t mask : cached_) {
    num_cached_ += mask != 0 ? 1 : 0;
  }
}

// Rebuilds one upper layer's per-node contents from its partition contents
// through the layer's partition→node map.
void CacheAllocation::DeriveLayerContents(size_t layer) {
  layer_contents_[layer].assign(config_.layers[layer].nodes, {});
  if (config_.mechanism == Mechanism::kCacheReplication) {
    if (layer == 0) {
      for (auto& contents : layer_contents_[0]) {
        contents = partition_contents_[0][0];
      }
    }
    return;
  }
  for (uint32_t p = 0; p < config_.layers[layer].nodes; ++p) {
    auto& dst = layer_contents_[layer][node_of_partition_[layer][p]];
    dst.insert(dst.end(), partition_contents_[layer][p].begin(),
               partition_contents_[layer][p].end());
  }
}

CacheCopies CacheAllocation::CopiesOf(uint64_t key) const {
  CacheCopies copies;
  const size_t num_layers = config_.layers.size();
  copies.leaf_layer = static_cast<uint8_t>(num_layers - 1);
  const uint64_t rank = RankOf(key);
  if (rank >= rank_end_) {
    return copies;
  }
  const bool replicated = config_.mechanism == Mechanism::kCacheReplication;
  const uint8_t mask = cached_[rank];
  const uint32_t* node_of = &node_of_[rank * num_layers];
  for (size_t l = 0; l < num_layers; ++l) {
    if ((mask >> l & 1) == 0) {
      continue;
    }
    if (l == 0 && replicated) {
      copies.replicated_all_spines = true;
      continue;
    }
    const uint32_t node = l + 1 == num_layers
                              ? node_of[l]
                              : node_of_partition_[l][node_of[l]];
    copies.nodes[copies.num++] = {static_cast<uint32_t>(l), node};
  }
  return copies;
}

uint64_t CacheAllocation::CachedRankEnd() const {
  for (uint64_t rank = rank_end_; rank-- > 0;) {
    if (cached_[rank] != 0) {
      return rank + 1;
    }
  }
  return 0;
}

size_t CacheAllocation::OverflowCandidates() const {
  // Replicated entries never spill (the layer-0 replicas are implicit and the
  // optional leaf copy rides inline), so only the partitioned mechanism with
  // three or more layers can produce overflow runs.
  if (config_.mechanism != Mechanism::kDistCache || config_.layers.size() <= 2) {
    return 0;
  }
  size_t total = 0;
  for (const uint8_t mask : cached_) {
    const int copies = std::popcount(mask);
    total += copies > 2 ? static_cast<size_t>(copies) : 0;
  }
  return total;
}

size_t CacheAllocation::bytes() const {
  auto nested = [](const std::vector<std::vector<uint64_t>>& lists) {
    size_t total = lists.capacity() * sizeof(lists[0]);
    for (const auto& list : lists) {
      total += list.capacity() * sizeof(uint64_t);
    }
    return total;
  };
  size_t total = cached_.capacity() * sizeof(uint8_t) +
                 node_of_.capacity() * sizeof(uint32_t) +
                 key_of_rank_.capacity() * sizeof(uint64_t);
  // A node-based hash map: one bucket pointer per bucket, and per element the
  // key/rank pair plus its next pointer.
  total += rank_of_key_.bucket_count() * sizeof(void*) +
           rank_of_key_.size() *
               (sizeof(std::pair<const uint64_t, uint64_t>) + sizeof(void*));
  for (const auto& layer : layer_contents_) {
    total += nested(layer);
  }
  for (const auto& layer : partition_contents_) {
    total += nested(layer);
  }
  for (const auto& remap : node_of_partition_) {
    total += remap.capacity() * sizeof(uint32_t);
  }
  return total;
}

void CacheAllocation::Refill(const std::vector<uint64_t>& hottest_first,
                             const Placement& placement) {
  explicit_hot_list_ = true;
  key_of_rank_.assign(hottest_first.begin(),
                      hottest_first.begin() +
                          std::min<size_t>(hottest_first.size(), pool_));
  const std::vector<std::vector<uint32_t>> remaps = node_of_partition_;
  Compute(placement);
  // Index only the visited prefix: a key first ranked at or past rank_end_ is
  // uncached, which is exactly what a miss in the index resolves to.
  rank_of_key_.clear();
  rank_of_key_.reserve(rank_end_);
  for (uint64_t rank = 0; rank < rank_end_; ++rank) {
    // First occurrence wins: a duplicate key keeps its hotter rank.
    rank_of_key_.emplace(key_of_rank_[rank], rank);
  }
  // Failure remaps in effect survive the re-allocation, layer by layer.
  for (size_t l = 0; l < remaps.size(); ++l) {
    if (!remaps[l].empty()) {
      RemapLayer(l, remaps[l]);
    }
  }
}

void CacheAllocation::RemapLayer(size_t layer,
                                 const std::vector<uint32_t>& node_of_partition) {
  assert(layer + 1 < config_.layers.size());
  assert(node_of_partition.size() == config_.layers[layer].nodes);
  node_of_partition_[layer] = node_of_partition;
  DeriveLayerContents(layer);
}

}  // namespace distcache
