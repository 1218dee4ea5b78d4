#include "sketch/heavy_hitter.h"

#include <algorithm>
#include <bit>

#include "common/hash.h"

namespace distcache {

namespace {

// The report order: estimate descending, then key ascending — a total order,
// so no container's iteration order can leak into a ranking.
template <typename Count>
bool Hotter(const std::pair<uint64_t, Count>& a, const std::pair<uint64_t, Count>& b) {
  if (a.second != b.second) {
    return a.second > b.second;
  }
  return a.first < b.first;
}

}  // namespace

std::vector<std::pair<uint64_t, uint64_t>> MergeHeavyHitterReports(
    const std::vector<std::vector<std::pair<uint64_t, uint32_t>>>& reports,
    size_t limit) {
  // Sort-based merge: gather every (key, count), sort by key, sum each run.
  size_t total = 0;
  for (const auto& list : reports) {
    total += list.size();
  }
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(total);
  for (const auto& list : reports) {
    for (const auto& [key, count] : list) {
      out.emplace_back(key, count);
    }
  }
  std::sort(out.begin(), out.end());
  size_t merged = 0;
  for (size_t i = 0; i < out.size(); ++merged) {
    const uint64_t key = out[i].first;
    uint64_t sum = 0;
    for (; i < out.size() && out[i].first == key; ++i) {
      sum += out[i].second;
    }
    out[merged] = {key, sum};
  }
  out.resize(merged);
  if (limit < out.size()) {
    std::partial_sort(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(limit),
                      out.end(), Hotter<uint64_t>);
    out.resize(limit);
  } else {
    std::sort(out.begin(), out.end(), Hotter<uint64_t>);
  }
  return out;
}

HeavyHitterDetector::HeavyHitterDetector(const Config& config)
    : config_(config),
      sketch_(config.sketch),
      bloom_(config.bloom),
      slots_(std::bit_ceil(config.max_reports_per_epoch +
                           config.max_reports_per_epoch / 4 + 1)),
      slot_mask_(slots_.size() - 1) {}

HeavyHitterDetector::ReportSlot& HeavyHitterDetector::FindSlot(uint64_t key,
                                                               size_t home) {
  for (size_t i = home;; i = (i + 1) & slot_mask_) {
    ReportSlot& slot = slots_[i];
    if (slot.used == 0 || slot.key == key) {
      return slot;
    }
  }
}

bool HeavyHitterDetector::Record(const Staged& staged) {
  const uint32_t estimate = sketch_.Update(staged.cells);
  if (estimate < config_.report_threshold) {
    return false;
  }
  const uint64_t key = staged.key;
  ReportSlot& slot = FindSlot(key, staged.home);
  if (slot.used != 0) {
    slot.count = estimate;  // rank by the latest count
    return false;
  }
  if (num_reports_ >= config_.max_reports_per_epoch) {
    return false;
  }
  slot = {key, estimate, 1};
  ++num_reports_;
  return true;
}

std::vector<std::pair<uint64_t, uint32_t>> HeavyHitterDetector::TopReports() const {
  std::vector<std::pair<uint64_t, uint32_t>> out;
  out.reserve(num_reports_);
  for (const ReportSlot& slot : slots_) {
    if (slot.used != 0) {
      out.emplace_back(slot.key, slot.count);
    }
  }
  std::sort(out.begin(), out.end(), Hotter<uint32_t>);
  return out;
}

void HeavyHitterDetector::NewEpoch() {
  sketch_.Reset();
  bloom_.Reset();
  if (num_reports_ != 0) {
    std::fill(slots_.begin(), slots_.end(), ReportSlot{});
    num_reports_ = 0;
  }
}

}  // namespace distcache
