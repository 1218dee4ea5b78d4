#include "sketch/count_min.h"

#include <algorithm>

namespace distcache {

namespace {

CountMinSketch::Config ClampRows(CountMinSketch::Config config) {
  config.rows = std::min(config.rows, CountMinSketch::kMaxRows);
  return config;
}

}  // namespace

CountMinSketch::CountMinSketch(const Config& config)
    : config_(ClampRows(config)),
      hashes_(config_.rows, config_.seed),
      width_mask_(config_.width != 0 && (config_.width & (config_.width - 1)) == 0
                      ? config_.width - 1
                      : 0),
      counters_(config_.rows * config_.width, 0) {}

uint32_t CountMinSketch::Update(const Cells& cells) {
  uint32_t estimate = std::numeric_limits<uint32_t>::max();
  for (size_t r = 0; r < config_.rows; ++r) {
    uint32_t& cell = counters_[cells.index[r]];
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
