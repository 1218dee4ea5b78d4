#include "sketch/count_min.h"

#include <algorithm>

namespace distcache {

CountMinSketch::CountMinSketch(const Config& config)
    : config_(config),
      hashes_(config.rows, config.seed),
      width_mask_(config.width != 0 && (config.width & (config.width - 1)) == 0
                      ? config.width - 1
                      : 0),
      counters_(config.rows * config.width, 0) {}

uint32_t CountMinSketch::Update(uint64_t key) {
  uint32_t estimate = std::numeric_limits<uint32_t>::max();
  uint32_t* row = counters_.data();
  for (size_t r = 0; r < config_.rows; ++r, row += config_.width) {
    uint32_t& cell = row[Slot(r, key)];
    if (cell < config_.counter_max) {
      ++cell;  // saturating, like a fixed-width data-plane register
    }
    estimate = std::min(estimate, cell);
  }
  return estimate;
}

uint32_t CountMinSketch::Estimate(uint64_t key) const {
  uint32_t estimate = std::numeric_limits<uint32_t>::max();
  const uint32_t* row = counters_.data();
  for (size_t r = 0; r < config_.rows; ++r, row += config_.width) {
    estimate = std::min(estimate, row[Slot(r, key)]);
  }
  return estimate;
}

void CountMinSketch::Reset() { std::fill(counters_.begin(), counters_.end(), 0); }

}  // namespace distcache
