#include "dataplane/cache_program.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/zipf.h"

namespace distcache {
namespace {

PipelineCacheSwitch::Config SmallConfig() {
  PipelineCacheSwitch::Config cfg;
  cfg.num_stages = 8;
  cfg.slots_per_stage = 128;
  cfg.cm_width = 1024;
  cfg.bloom_bits = 4096;
  cfg.hh_report_threshold = 16;
  return cfg;
}

TEST(PipelineCacheSwitch, MissOnEmpty) {
  PipelineCacheSwitch sw(SmallConfig());
  std::string value;
  EXPECT_EQ(sw.Lookup(1, &value), LookupResult::kMiss);
}

TEST(PipelineCacheSwitch, InsertUpdateHitRoundTrip) {
  PipelineCacheSwitch sw(SmallConfig());
  ASSERT_TRUE(sw.InsertInvalid(1, 16).ok());
  std::string value;
  EXPECT_EQ(sw.Lookup(1, &value), LookupResult::kInvalid);
  ASSERT_TRUE(sw.UpdateValue(1, "hello").ok());
  EXPECT_EQ(sw.Lookup(1, &value), LookupResult::kHit);
  EXPECT_EQ(value, "hello");
}

TEST(PipelineCacheSwitch, MultiStageValueSpansPipeline) {
  PipelineCacheSwitch sw(SmallConfig());
  // 100 bytes spans 7 of the 8 stages' register arrays.
  std::string big;
  for (int i = 0; i < 100; ++i) {
    big.push_back(static_cast<char>('a' + i % 26));
  }
  ASSERT_TRUE(sw.InsertInvalid(9, big.size()).ok());
  ASSERT_TRUE(sw.UpdateValue(9, big).ok());
  std::string value;
  EXPECT_EQ(sw.Lookup(9, &value), LookupResult::kHit);
  EXPECT_EQ(value, big);
  EXPECT_EQ(sw.slots_used(), 7u);
}

TEST(PipelineCacheSwitch, MaxSizeValue) {
  PipelineCacheSwitch sw(SmallConfig());
  const std::string v(128, 'z');
  ASSERT_TRUE(sw.InsertInvalid(2, 128).ok());
  ASSERT_TRUE(sw.UpdateValue(2, v).ok());
  std::string value;
  EXPECT_EQ(sw.Lookup(2, &value), LookupResult::kHit);
  EXPECT_EQ(value, v);
  EXPECT_EQ(sw.InsertInvalid(3, 129).code(), StatusCode::kInvalidArgument);
}

TEST(PipelineCacheSwitch, SlotExhaustion) {
  PipelineCacheSwitch::Config cfg = SmallConfig();
  cfg.slots_per_stage = 2;
  PipelineCacheSwitch sw(cfg);
  ASSERT_TRUE(sw.InsertInvalid(1, 16).ok());
  ASSERT_TRUE(sw.InsertInvalid(2, 16).ok());
  EXPECT_EQ(sw.InsertInvalid(3, 16).code(), StatusCode::kResourceExhausted);
  sw.Evict(1).ok();
  EXPECT_TRUE(sw.InsertInvalid(3, 16).ok());  // slot reuse
}

TEST(PipelineCacheSwitch, TelemetryCountsValidHitsOnly) {
  PipelineCacheSwitch sw(SmallConfig());
  sw.InsertInvalid(1, 16).ok();
  std::string value;
  sw.Lookup(1, &value);  // invalid: no telemetry
  EXPECT_EQ(sw.TelemetryLoad(), 0u);
  sw.UpdateValue(1, "v").ok();
  sw.Lookup(1, &value);
  sw.Lookup(1, &value);
  EXPECT_EQ(sw.TelemetryLoad(), 2u);
  EXPECT_EQ(sw.HitCount(1), 2u);
  sw.NewEpoch();
  EXPECT_EQ(sw.TelemetryLoad(), 0u);
  EXPECT_EQ(sw.HitCount(1), 0u);
}

TEST(PipelineCacheSwitch, HeavyHitterReportedOnceViaBloom) {
  PipelineCacheSwitch sw(SmallConfig());
  int reports = 0;
  std::string value;
  for (int i = 0; i < 100; ++i) {
    bool reported = false;
    sw.Lookup(77, &value, &reported);
    reports += reported ? 1 : 0;
  }
  EXPECT_EQ(reports, 1);  // bloom rows dedupe within the epoch
  sw.NewEpoch();
  bool reported = false;
  for (int i = 0; i < 100 && !reported; ++i) {
    sw.Lookup(77, &value, &reported);
  }
  EXPECT_TRUE(reported);  // reportable again next epoch
}

TEST(PipelineCacheSwitch, ColdKeysNotReported) {
  PipelineCacheSwitch sw(SmallConfig());
  std::string value;
  for (uint64_t k = 0; k < 200; ++k) {
    bool reported = false;
    sw.Lookup(k, &value, &reported);
    EXPECT_FALSE(reported) << k;
  }
}

TEST(PipelineCacheSwitch, InvalidateThenUpdateRestoresHit) {
  PipelineCacheSwitch sw(SmallConfig());
  sw.InsertInvalid(5, 16).ok();
  sw.UpdateValue(5, "v1").ok();
  sw.Invalidate(5).ok();
  std::string value;
  EXPECT_EQ(sw.Lookup(5, &value), LookupResult::kInvalid);
  sw.UpdateValue(5, "v2").ok();
  EXPECT_EQ(sw.Lookup(5, &value), LookupResult::kHit);
  EXPECT_EQ(value, "v2");
}

TEST(PipelineCacheSwitch, ResourcesDerivedFromProgram) {
  PipelineCacheSwitch sw(PipelineCacheSwitch::Config{});  // paper-sized
  const PipelineResources res = sw.Resources();
  EXPECT_EQ(res.stages_used, 8u);
  EXPECT_GE(res.match_entries, 65536u);  // the lookup table
  // Value store 8 MB + CM 512 KB + bloom 96 KB >> 500 SRAM blocks of 16 KB.
  EXPECT_GT(res.sram_blocks, 500u);
  EXPECT_GE(res.hash_bits, 16u + 4 * 16u + 3 * 18u);
  EXPECT_GT(res.action_slots, 20u);
}

// Differential test: the pipeline-backed switch and the behavioural CacheSwitch must
// agree on every observable for a random operation sequence (HH reporting excluded —
// only the pipeline models the heavy-hitter registers).
class DataPlaneDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DataPlaneDifferentialTest, PipelineMatchesBehavioralModel) {
  PipelineCacheSwitch::Config pcfg = SmallConfig();
  pcfg.slots_per_stage = 512;  // stay below both models' capacity limits
  PipelineCacheSwitch pipeline_switch(pcfg);
  CacheSwitch behavioral(CacheSwitch::Config{});

  Rng rng(GetParam());
  for (int i = 0; i < 10000; ++i) {
    const uint64_t key = rng.NextBounded(300);
    switch (rng.NextBounded(5)) {
      case 0: {
        const size_t size = rng.NextBounded(129);
        const Status a = pipeline_switch.InsertInvalid(key, size);
        const Status b = behavioral.InsertInvalid(key, size);
        ASSERT_EQ(a.code(), b.code());
        break;
      }
      case 1: {
        std::string value;
        const size_t len = rng.NextBounded(129);
        value.reserve(len);
        for (size_t c = 0; c < len; ++c) {
          value.push_back(static_cast<char>('a' + rng.NextBounded(26)));
        }
        ASSERT_EQ(pipeline_switch.UpdateValue(key, value).code(),
                  behavioral.UpdateValue(key, value).code());
        break;
      }
      case 2:
        ASSERT_EQ(pipeline_switch.Invalidate(key).code(),
                  behavioral.Invalidate(key).code());
        break;
      case 3:
        ASSERT_EQ(pipeline_switch.Evict(key).code(), behavioral.Evict(key).code());
        break;
      case 4: {
        std::string va;
        std::string vb;
        const LookupResult ra = pipeline_switch.Lookup(key, &va);
        const LookupResult rb = behavioral.Lookup(key, &vb);
        ASSERT_EQ(ra, rb);
        if (ra == LookupResult::kHit) {
          ASSERT_EQ(va, vb);
        }
        break;
      }
    }
    ASSERT_EQ(pipeline_switch.num_entries(), behavioral.num_entries());
    ASSERT_EQ(pipeline_switch.TelemetryLoad(), behavioral.TelemetryLoad());
    ASSERT_EQ(pipeline_switch.HitCount(key), behavioral.HitCount(key));
    ASSERT_EQ(pipeline_switch.IsValid(key), behavioral.IsValid(key));
    if (i % 2000 == 1999) {
      pipeline_switch.NewEpoch();
      behavioral.NewEpoch();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataPlaneDifferentialTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace distcache
