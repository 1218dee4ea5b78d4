// Property test: a random operation sequence against CacheSwitch must match a simple
// reference model (map of key -> {valid, value}) exactly, including slot accounting.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "cache/cache_switch.h"
#include "common/random.h"

namespace distcache {
namespace {

struct RefEntry {
  std::string value;
  bool valid = false;
  size_t slots = 1;
};

class CacheSwitchFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheSwitchFuzzTest, MatchesReferenceModel) {
  CacheSwitch::Config cfg;
  cfg.num_stages = 2;
  cfg.slots_per_stage = 64;  // small so ResourceExhausted paths get exercised
  CacheSwitch sw(cfg);
  std::map<uint64_t, RefEntry> ref;
  size_t ref_slots = 0;
  Rng rng(GetParam());

  const auto slots_for = [&](size_t n) { return n == 0 ? size_t{1} : (n + 15) / 16; };

  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.NextBounded(64);
    switch (rng.NextBounded(5)) {
      case 0: {  // InsertInvalid
        const size_t size = rng.NextBounded(129);
        const Status st = sw.InsertInvalid(key, size);
        if (ref.contains(key)) {
          EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
        } else if (ref_slots + slots_for(size) > 128) {
          EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
        } else {
          ASSERT_TRUE(st.ok());
          ref[key] = RefEntry{"", false, slots_for(size)};
          ref_slots += slots_for(size);
        }
        break;
      }
      case 1: {  // UpdateValue
        std::string value(rng.NextBounded(129), 'x');
        const Status st = sw.UpdateValue(key, value);
        auto it = ref.find(key);
        if (it == ref.end()) {
          EXPECT_EQ(st.code(), StatusCode::kNotFound);
        } else {
          const size_t new_slots = slots_for(value.size());
          if (new_slots > it->second.slots &&
              ref_slots + new_slots - it->second.slots > 128) {
            EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
          } else {
            ASSERT_TRUE(st.ok());
            ref_slots += new_slots;
            ref_slots -= it->second.slots;
            it->second = RefEntry{std::move(value), true, new_slots};
          }
        }
        break;
      }
      case 2: {  // Invalidate
        const Status st = sw.Invalidate(key);
        auto it = ref.find(key);
        if (it == ref.end()) {
          EXPECT_EQ(st.code(), StatusCode::kNotFound);
        } else {
          ASSERT_TRUE(st.ok());
          it->second.valid = false;
        }
        break;
      }
      case 3: {  // Evict
        const Status st = sw.Evict(key);
        auto it = ref.find(key);
        if (it == ref.end()) {
          EXPECT_EQ(st.code(), StatusCode::kNotFound);
        } else {
          ASSERT_TRUE(st.ok());
          ref_slots -= it->second.slots;
          ref.erase(it);
        }
        break;
      }
      case 4: {  // Lookup
        std::string value;
        const LookupResult result = sw.Lookup(key, &value);
        auto it = ref.find(key);
        if (it == ref.end()) {
          EXPECT_EQ(result, LookupResult::kMiss);
        } else if (!it->second.valid) {
          EXPECT_EQ(result, LookupResult::kInvalid);
        } else {
          EXPECT_EQ(result, LookupResult::kHit);
          EXPECT_EQ(value, it->second.value);
        }
        break;
      }
    }
    ASSERT_EQ(sw.num_entries(), ref.size());
    ASSERT_EQ(sw.slots_used(), ref_slots);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheSwitchFuzzTest, ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace distcache
