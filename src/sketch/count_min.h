// Count-Min sketch (Cormode & Muthukrishnan) — the frequency estimator inside the
// switch heavy-hitter detector. The paper's prototype uses 4 register arrays × 64K
// 16-bit slots per array (§5); those are the defaults here, including saturating
// 16-bit counters to mirror the data-plane register width.
#ifndef DISTCACHE_SKETCH_COUNT_MIN_H_
#define DISTCACHE_SKETCH_COUNT_MIN_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/hash.h"

namespace distcache {

class CountMinSketch {
 public:
  // Most rows a sketch keeps: the paper's 4 register arrays. A larger
  // Config::rows is clamped, so one key's cells fit a fixed-size Cells record.
  static constexpr size_t kMaxRows = 4;

  struct Config {
    size_t rows = 4;        // paper: 4 register arrays (at most kMaxRows)
    size_t width = 65536;   // paper: 64K slots per array
    uint32_t counter_max = std::numeric_limits<uint16_t>::max();  // 16-bit registers
    uint64_t seed = 0x5eedc0de;
  };

  explicit CountMinSketch(const Config& config);

  // The counter cells of one key, one per row, as indices into the counter
  // array: the key is hashed once, and the cells can be prefetched before the
  // update that touches them.
  struct Cells {
    size_t index[kMaxRows];
  };
  Cells Locate(uint64_t key) const {
    Cells cells{};
    for (size_t r = 0; r < config_.rows; ++r) {
      cells.index[r] = r * config_.width + Slot(r, key);
    }
    return cells;
  }
  void Prefetch(const Cells& cells) const {
    for (size_t r = 0; r < config_.rows; ++r) {
      __builtin_prefetch(&counters_[cells.index[r]], 1, 1);
    }
  }

  // Increments the counters at `cells` and returns the post-update estimate.
  uint32_t Update(const Cells& cells);
  // Increments the counters for `key` and returns the post-update estimate.
  uint32_t Update(uint64_t key) { return Update(Locate(key)); }

  // Point-query estimate of the count of `key` (an overestimate in expectation).
  uint32_t Estimate(uint64_t key) const;

  // Zeroes all counters: the start of a new epoch (every second on the switch, §5;
  // every recording window in the engines' observer).
  void Reset();

  size_t rows() const { return config_.rows; }
  size_t width() const { return config_.width; }

  // Total bits of state — used by the switch resource model (Table 1).
  size_t MemoryBits() const { return config_.rows * config_.width * 16; }

 private:
  // Column of `key` in `row`: h_row(key) mod width. A power-of-two width takes
  // the mask, which selects the same column without a division.
  size_t Slot(size_t row, uint64_t key) const {
    const uint64_t h = hashes_.Hash(row, key);
    return static_cast<size_t>(width_mask_ != 0 ? h & width_mask_
                                                : h % config_.width);
  }

  Config config_;
  HashFamily hashes_;
  uint64_t width_mask_ = 0;  // width - 1 for a power-of-two width, else 0
  // rows × width counters, row-major in one allocation.
  std::vector<uint32_t> counters_;
};

}  // namespace distcache

#endif  // DISTCACHE_SKETCH_COUNT_MIN_H_
