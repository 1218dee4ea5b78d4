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
  using Report = std::pair<uint64_t, uint32_t>;
  const auto key_less = [](const Report& a, const Report& b) {
    return a.first < b.first;
  };
  // One key-ordered run per non-empty list: a list already in key order is
  // read in place, any other is merged from a sorted copy.
  struct Run {
    const Report* at;
    const Report* end;
  };
  std::vector<std::vector<Report>> sorted_copies;
  sorted_copies.reserve(reports.size());  // runs point into the copies
  std::vector<Run> runs;
  size_t total = 0;
  for (const auto& list : reports) {
    if (list.empty()) {
      continue;
    }
    total += list.size();
    const std::vector<Report>* run = &list;
    if (!std::is_sorted(list.begin(), list.end(), key_less)) {
      run = &sorted_copies.emplace_back(list);
      std::sort(sorted_copies.back().begin(), sorted_copies.back().end(), key_less);
    }
    runs.push_back({run->data(), run->data() + run->size()});
  }
  // k-way merge over a min-heap of run heads; equal keys arrive adjacent and
  // sum into one entry.
  const auto later = [](const Run& a, const Run& b) {
    return a.at->first > b.at->first;
  };
  std::make_heap(runs.begin(), runs.end(), later);
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(total);
  while (!runs.empty()) {
    std::pop_heap(runs.begin(), runs.end(), later);
    Run& run = runs.back();
    if (!out.empty() && out.back().first == run.at->first) {
      out.back().second += run.at->second;
    } else {
      out.emplace_back(run.at->first, run.at->second);
    }
    if (++run.at == run.end) {
      runs.pop_back();
    } else {
      std::push_heap(runs.begin(), runs.end(), later);
    }
  }
  // Hotter is a total order on distinct keys, so selecting the hottest
  // `limit` and sorting only them gives the full ranking's prefix.
  if (limit < out.size()) {
    std::nth_element(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(limit),
                     out.end(), Hotter<uint64_t>);
    out.resize(limit);
  }
  std::sort(out.begin(), out.end(), Hotter<uint64_t>);
  return out;
}

HeavyHitterDetector::HeavyHitterDetector(const Config& config)
    : config_(config),
      sketch_(config.sketch),
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

std::vector<std::pair<uint64_t, uint32_t>> HeavyHitterDetector::Reports() const {
  std::vector<std::pair<uint64_t, uint32_t>> out;
  out.reserve(num_reports_);
  for (const ReportSlot& slot : slots_) {
    if (slot.used != 0) {
      out.emplace_back(slot.key, slot.count);
    }
  }
  return out;
}

std::vector<std::pair<uint64_t, uint32_t>> HeavyHitterDetector::TopReports() const {
  auto out = Reports();
  std::sort(out.begin(), out.end(), Hotter<uint32_t>);
  return out;
}

std::vector<std::pair<uint64_t, uint32_t>> HeavyHitterDetector::ReportsByKey() const {
  auto out = Reports();
  std::sort(out.begin(), out.end());  // keys are distinct: key order
  return out;
}

void HeavyHitterDetector::NewEpoch() {
  sketch_.Reset();
  if (num_reports_ != 0) {
    std::fill(slots_.begin(), slots_.end(), ReportSlot{});
    num_reports_ = 0;
  }
}

}  // namespace distcache
