// NetCache-style heavy-hitter (HH) detector: Count-Min sketch for frequency estimates
// of uncached keys + a small top-k report table, plus the Bloom filter the data plane
// dedupes its reports to the switch CPU with. The switch local agent uses the reports
// to decide cache insertions/evictions (§4.3, §5); the simulation engines use the
// table alone as the controller's observer (§6.4).
//
// Counters are reset every epoch (1 second in the paper). A key is reported as a heavy
// hitter when its estimated count within the epoch crosses `report_threshold`.
#ifndef DISTCACHE_SKETCH_HEAVY_HITTER_H_
#define DISTCACHE_SKETCH_HEAVY_HITTER_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "sketch/bloom_filter.h"
#include "sketch/count_min.h"

namespace distcache {

// Merges per-detector heavy-hitter report lists (key, estimated count) into one
// hottest-first list: counts for the same key sum (each detector saw a disjoint
// slice of the traffic), ties break on the smaller key for determinism. This is the
// controller-side aggregation step of online cache re-allocation — every switch
// (or simulation shard) reports its local top keys and the controller re-allocates
// from the merged ranking (§4.1, §6.4).
//
// `limit` keeps only the hottest `limit` keys: every key is still summed, but only
// that prefix is ordered — the re-allocation reads no further than the candidate
// pool. The prefix equals the first `limit` entries of the full merge.
std::vector<std::pair<uint64_t, uint64_t>> MergeHeavyHitterReports(
    const std::vector<std::vector<std::pair<uint64_t, uint32_t>>>& reports,
    size_t limit = std::numeric_limits<size_t>::max());

class HeavyHitterDetector {
 public:
  struct Config {
    CountMinSketch::Config sketch;
    BloomFilter::Config bloom;
    uint32_t report_threshold = 64;  // epoch-relative heaviness cutoff
    size_t max_reports_per_epoch = 1024;
  };

  explicit HeavyHitterDetector(const Config& config);

  // One key hashed once: its sketch cells and the first report-table slot of its
  // probe run. Both are pure functions of the key, so a record staged ahead of
  // time stays valid while other keys are recorded.
  struct Staged {
    uint64_t key;
    CountMinSketch::Cells cells;
    size_t home;
  };
  Staged Stage(uint64_t key) const {
    return {key, sketch_.Locate(key), static_cast<size_t>(Mix64(key)) & slot_mask_};
  }
  // Pulls the staged cells and report slot toward the cache ahead of Record.
  void Prefetch(const Staged& staged) const {
    sketch_.Prefetch(staged.cells);
    __builtin_prefetch(&slots_[staged.home], 0, 1);
  }

  // Records one access to an *uncached* key (cached keys are counted by the per-object
  // hit counters instead, as in NetCache). Returns true if this access entered the key
  // into the report table — it crossed the report threshold for the first time this
  // epoch and the table had room. A reported key's stored estimate tracks its latest
  // count.
  bool Record(const Staged& staged);
  bool Record(uint64_t key) { return Record(Stage(key)); }

  // The data-plane report dedupe (§5): inserts `key` into the Bloom filter and returns
  // true unless all its bits were already set. The switch runs it on each key Record()
  // admits, so its reports carry the hardware filter's false positives; the software
  // controller path never touches the filter.
  bool FilterReport(uint64_t key) { return !bloom_.InsertAndTest(key); }

  // Keys reported this epoch, hottest-first by sketch estimate (ties: smaller key).
  std::vector<std::pair<uint64_t, uint32_t>> TopReports() const;

  // Clears sketch, bloom filter and report list. Called by the agent every second.
  void NewEpoch();

  uint32_t Estimate(uint64_t key) const { return sketch_.Estimate(key); }
  size_t MemoryBits() const { return sketch_.MemoryBits() + bloom_.MemoryBits(); }

 private:
  // One report-table slot; `used` marks it occupied.
  struct ReportSlot {
    uint64_t key = 0;
    uint32_t count = 0;
    uint32_t used = 0;
  };

  // `key`'s slot, or the free slot that ends its probe run from `home`.
  ReportSlot& FindSlot(uint64_t key, size_t home);

  Config config_;
  CountMinSketch sketch_;
  BloomFilter bloom_;
  // Open-addressing report table with linear probing, sized once so that
  // max_reports_per_epoch keys fill at most 4/5 of it: it never rehashes and a
  // probe run always ends at a free slot.
  std::vector<ReportSlot> slots_;
  size_t slot_mask_ = 0;
  size_t num_reports_ = 0;
};

}  // namespace distcache

#endif  // DISTCACHE_SKETCH_HEAVY_HITTER_H_
