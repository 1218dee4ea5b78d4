#include "sketch/heavy_hitter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_map>

#include "common/random.h"
#include "common/zipf.h"
#include "sketch/count_min.h"

namespace distcache {
namespace {

HeavyHitterDetector::Config SmallConfig(uint32_t threshold = 32) {
  HeavyHitterDetector::Config cfg;
  cfg.sketch.rows = 4;
  cfg.sketch.width = 4096;
  cfg.report_threshold = threshold;
  return cfg;
}

TEST(HeavyHitterDetector, ColdKeysNotReported) {
  HeavyHitterDetector hh(SmallConfig());
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_FALSE(hh.Record(k));
  }
  EXPECT_TRUE(hh.TopReports().empty());
}

TEST(HeavyHitterDetector, HotKeyReportedOnceAtThreshold) {
  HeavyHitterDetector hh(SmallConfig(10));
  int reports = 0;
  for (int i = 0; i < 100; ++i) {
    reports += hh.Record(7) ? 1 : 0;
  }
  EXPECT_EQ(reports, 1);  // reported once per epoch
  const auto top = hh.TopReports();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].first, 7u);
  EXPECT_GE(top[0].second, 100u);
}

TEST(HeavyHitterDetector, ReportsRankedByCount) {
  HeavyHitterDetector hh(SmallConfig(5));
  for (int i = 0; i < 50; ++i) {
    hh.Record(1);
  }
  for (int i = 0; i < 20; ++i) {
    hh.Record(2);
  }
  const auto top = hh.TopReports();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, 1u);
  EXPECT_EQ(top[1].first, 2u);
}

TEST(HeavyHitterDetector, NewEpochClearsState) {
  HeavyHitterDetector hh(SmallConfig(5));
  for (int i = 0; i < 10; ++i) {
    hh.Record(3);
  }
  hh.NewEpoch();
  EXPECT_TRUE(hh.TopReports().empty());
  EXPECT_EQ(hh.Estimate(3), 0u);
  // Reportable again in the new epoch.
  int reports = 0;
  for (int i = 0; i < 10; ++i) {
    reports += hh.Record(3) ? 1 : 0;
  }
  EXPECT_EQ(reports, 1);
}

TEST(HeavyHitterDetector, FindsZipfHeadUnderRealisticTraffic) {
  HeavyHitterDetector hh(SmallConfig(64));
  ZipfDistribution dist(100000, 0.99);
  Rng rng(5);
  for (int i = 0; i < 50000; ++i) {
    hh.Record(dist.Sample(rng));
  }
  const auto top = hh.TopReports();
  ASSERT_GE(top.size(), 5u);
  // The hottest object must be among the first few reports.
  bool found_rank0 = false;
  for (size_t i = 0; i < 3 && i < top.size(); ++i) {
    found_rank0 |= top[i].first == 0;
  }
  EXPECT_TRUE(found_rank0);
}

TEST(HeavyHitterDetector, ReportCapIsEnforced) {
  HeavyHitterDetector::Config cfg = SmallConfig(1);
  cfg.max_reports_per_epoch = 8;
  HeavyHitterDetector hh(cfg);
  for (uint64_t k = 0; k < 100; ++k) {
    hh.Record(k);
  }
  EXPECT_LE(hh.TopReports().size(), 8u);
}

// The report table's reference model: the same sketch feeding a std::map under
// the detector's admission rule (threshold, then the per-epoch cap), ranked by
// (estimate desc, key asc). `Record` mirrors HeavyHitterDetector::Record.
class ReferenceDetector {
 public:
  explicit ReferenceDetector(const HeavyHitterDetector::Config& config)
      : config_(config), sketch_(config.sketch) {}

  bool Record(uint64_t key) {
    const uint32_t estimate = sketch_.Update(key);
    if (estimate < config_.report_threshold) {
      return false;
    }
    const auto it = reports_.find(key);
    if (it != reports_.end()) {
      it->second = estimate;
      return false;
    }
    if (reports_.size() >= config_.max_reports_per_epoch) {
      return false;
    }
    reports_.emplace(key, estimate);
    return true;
  }

  std::vector<std::pair<uint64_t, uint32_t>> TopReports() const {
    std::vector<std::pair<uint64_t, uint32_t>> out(reports_.begin(), reports_.end());
    std::stable_sort(out.begin(), out.end(),
                     [](const auto& a, const auto& b) { return a.second > b.second; });
    return out;  // the map's key order breaks the ties
  }

 private:
  HeavyHitterDetector::Config config_;
  CountMinSketch sketch_;
  std::map<uint64_t, uint32_t> reports_;
};

TEST(HeavyHitterDetector, FlatTableMatchesMapReferenceOnZipfStream) {
  // Narrow sketch and threshold 2: many keys share an estimate (ties), and the
  // small cap binds long before the stream ends.
  for (const size_t cap : {size_t{16}, size_t{200}, size_t{100000}}) {
    HeavyHitterDetector::Config cfg = SmallConfig(2);
    cfg.sketch.width = 1024;
    cfg.max_reports_per_epoch = cap;
    HeavyHitterDetector hh(cfg);
    ReferenceDetector ref(cfg);
    ZipfDistribution dist(50000, 0.9);
    Rng rng(17 + cap);
    for (int epoch = 0; epoch < 2; ++epoch) {
      for (int i = 0; i < 30000; ++i) {
        const uint64_t key = dist.Sample(rng);
        ASSERT_EQ(hh.Record(key), ref.Record(key)) << "cap " << cap << " access " << i;
      }
      const auto top = hh.TopReports();
      EXPECT_EQ(top, ref.TopReports()) << "cap " << cap;
      EXPECT_LE(top.size(), cap);
      if (cap == 16) {
        EXPECT_EQ(top.size(), cap);  // the cap binds
      } else {
        bool tied = false;
        for (size_t i = 1; i < top.size(); ++i) {
          tied |= top[i].second == top[i - 1].second;
        }
        EXPECT_TRUE(tied) << "the stream must exercise the tie order";
      }
      hh.NewEpoch();
      ref = ReferenceDetector(cfg);
    }
  }
}

TEST(HeavyHitterDetector, RecordsStagedAheadMatchRecordByKey) {
  // The batch core stages each key (sketch cells and report slot) a fixed
  // distance ahead and records it later, after the keys in between were
  // recorded; the decisions and the ranking must equal Record(key) in order.
  // The small cap fills the table, so late keys probe long runs.
  constexpr size_t kAhead = 16;
  HeavyHitterDetector::Config cfg = SmallConfig(2);
  cfg.sketch.width = 1024;
  cfg.max_reports_per_epoch = 400;
  HeavyHitterDetector staged_hh(cfg);
  HeavyHitterDetector keyed_hh(cfg);
  ZipfDistribution dist(50000, 0.9);
  Rng rng(23);
  std::vector<uint64_t> keys(20000);
  for (uint64_t& key : keys) {
    key = dist.Sample(rng);
  }
  std::vector<HeavyHitterDetector::Staged> ahead;
  for (size_t i = 0; i < kAhead; ++i) {
    ahead.push_back(staged_hh.Stage(keys[i]));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    const HeavyHitterDetector::Staged staged = ahead[i % kAhead];
    if (i + kAhead < keys.size()) {
      ahead[i % kAhead] = staged_hh.Stage(keys[i + kAhead]);
      staged_hh.Prefetch(ahead[i % kAhead]);
    }
    ASSERT_EQ(staged.key, keys[i]);
    ASSERT_EQ(staged_hh.Record(staged), keyed_hh.Record(keys[i])) << "access " << i;
  }
  EXPECT_EQ(staged_hh.TopReports(), keyed_hh.TopReports());
  EXPECT_EQ(staged_hh.TopReports().size(), cfg.max_reports_per_epoch);
}

// The merge's reference model: per-key sums in a hash map, then a full sort.
std::vector<std::pair<uint64_t, uint64_t>> ReferenceMerge(
    const std::vector<std::vector<std::pair<uint64_t, uint32_t>>>& reports) {
  std::unordered_map<uint64_t, uint64_t> merged;
  for (const auto& list : reports) {
    for (const auto& [key, count] : list) {
      merged[key] += count;
    }
  }
  std::vector<std::pair<uint64_t, uint64_t>> out(merged.begin(), merged.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  return out;
}

TEST(MergeHeavyHitterReports, PrefixEqualsFullMergePrefix) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    // Keys from a small range (shared across lists) and counts from a small
    // range, so sums collide and ties are everywhere.
    std::vector<std::vector<std::pair<uint64_t, uint32_t>>> reports(
        1 + rng.NextBounded(5));
    for (auto& list : reports) {
      const uint64_t len = rng.NextBounded(300);
      std::map<uint64_t, uint32_t> unique;  // a detector reports a key once
      for (uint64_t i = 0; i < len; ++i) {
        unique[rng.NextBounded(400)] = static_cast<uint32_t>(2 + rng.NextBounded(4));
      }
      list.assign(unique.begin(), unique.end());
      for (size_t i = list.size(); i > 1; --i) {  // any report order
        std::swap(list[i - 1], list[rng.NextBounded(i)]);
      }
    }
    const auto full = MergeHeavyHitterReports(reports);
    ASSERT_EQ(full, ReferenceMerge(reports)) << "trial " << trial;
    for (const size_t limit :
         {size_t{0}, size_t{1}, size_t{7}, full.size() / 2, full.size(),
          full.size() + 5}) {
      const auto prefix = MergeHeavyHitterReports(reports, limit);
      ASSERT_EQ(prefix.size(), std::min(limit, full.size()));
      EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), full.begin()))
          << "trial " << trial << " limit " << limit;
    }
  }
}

TEST(HeavyHitterDetector, ReportsByKeyIsTopReportsInKeyOrder) {
  HeavyHitterDetector::Config cfg = SmallConfig(2);
  cfg.max_reports_per_epoch = 300;
  HeavyHitterDetector hh(cfg);
  ZipfDistribution dist(20000, 0.9);
  Rng rng(31);
  for (int i = 0; i < 20000; ++i) {
    hh.Record(dist.Sample(rng));
  }
  const auto by_key = hh.ReportsByKey();
  ASSERT_FALSE(by_key.empty());
  EXPECT_TRUE(std::is_sorted(by_key.begin(), by_key.end(),
                             [](const auto& a, const auto& b) { return a.first < b.first; }));
  auto top = hh.TopReports();
  std::sort(top.begin(), top.end());
  EXPECT_EQ(by_key, top);
}

TEST(MergeHeavyHitterReports, KeyOrderedAndShuffledListsMatchReference) {
  // Each trial merges the same reports twice: as key-ordered lists (read in
  // place) and with every list shuffled (sorted first). Keys shared across
  // lists and small counts make sums collide and ties common; empty lists and
  // single lists occur.
  Rng rng(123);
  for (int trial = 0; trial < 60; ++trial) {
    const uint64_t pool = 1 + rng.NextBounded(200);
    std::vector<std::vector<std::pair<uint64_t, uint32_t>>> ordered(
        1 + rng.NextBounded(6));
    for (auto& list : ordered) {
      const uint64_t len = rng.NextBounded(4) == 0 ? 0 : rng.NextBounded(2 * pool + 1);
      std::map<uint64_t, uint32_t> unique;
      for (uint64_t i = 0; i < len; ++i) {
        unique[rng.NextBounded(3 * pool)] = static_cast<uint32_t>(2 + rng.NextBounded(3));
      }
      list.assign(unique.begin(), unique.end());  // key order
    }
    auto shuffled = ordered;
    for (auto& list : shuffled) {
      for (size_t i = list.size(); i > 1; --i) {
        std::swap(list[i - 1], list[rng.NextBounded(i)]);
      }
    }
    const auto reference = ReferenceMerge(ordered);
    for (const size_t limit :
         {size_t{0}, size_t{1}, static_cast<size_t>(pool), reference.size(),
          reference.size() + 3, std::numeric_limits<size_t>::max()}) {
      const size_t kept = std::min(limit, reference.size());
      const std::vector<std::pair<uint64_t, uint64_t>> want(
          reference.begin(), reference.begin() + static_cast<std::ptrdiff_t>(kept));
      ASSERT_EQ(MergeHeavyHitterReports(ordered, limit), want)
          << "trial " << trial << " limit " << limit;
      ASSERT_EQ(MergeHeavyHitterReports(shuffled, limit), want)
          << "trial " << trial << " limit " << limit;
    }
  }
}

TEST(MergeHeavyHitterReports, EmptyAndSingleInputs) {
  EXPECT_TRUE(MergeHeavyHitterReports({}).empty());
  EXPECT_TRUE(MergeHeavyHitterReports({{}, {}, {}}, 5).empty());
  // One list, no limit: its counts ranked hottest-first, ties on the key.
  const std::vector<std::vector<std::pair<uint64_t, uint32_t>>> single = {
      {{3, 5}, {8, 9}, {10, 5}, {12, 2}}};
  const std::vector<std::pair<uint64_t, uint64_t>> want = {
      {8, 9}, {3, 5}, {10, 5}, {12, 2}};
  EXPECT_EQ(MergeHeavyHitterReports(single), want);
  EXPECT_EQ(MergeHeavyHitterReports(single, 2),
            (std::vector<std::pair<uint64_t, uint64_t>>{{8, 9}, {3, 5}}));
  // A key repeated inside one unordered list still sums.
  EXPECT_EQ(MergeHeavyHitterReports({{{4, 1}, {2, 3}, {4, 6}}, {}}),
            (std::vector<std::pair<uint64_t, uint64_t>>{{4, 7}, {2, 3}}));
}

}  // namespace
}  // namespace distcache
