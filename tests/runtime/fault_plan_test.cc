// FaultPlan spec parser / generator tests (runtime/fault_plan.h). Pure
// string/RNG logic — no forking, so these run everywhere including TSan.
#include "runtime/fault_plan.h"

#include <gtest/gtest.h>

#include <string>

namespace distcache {
namespace {

TEST(FaultPlanTest, EmptySpecYieldsEmptyPlan) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("", 4, 100'000, 42, &plan, &error)) << error;
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.arena_map_failure());
  EXPECT_EQ(plan.max_stall_ms(), 0u);
}

TEST(FaultPlanTest, ParsesExplicitEvents) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("kill:1@5000,stall:0@2000:250,drop:2@7500", 4,
                             100'000, 42, &plan, &error))
      << error;
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kCrashKill);
  EXPECT_EQ(plan.events[0].shard, 1u);
  EXPECT_EQ(plan.events[0].at_request, 5000u);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kStall);
  EXPECT_EQ(plan.events[1].param, 250u);
  EXPECT_EQ(plan.max_stall_ms(), 250u);
  // Default params: drop swallows 2 broadcasts unless told otherwise.
  EXPECT_EQ(plan.events[2].kind, FaultKind::kDropTelemetry);
  EXPECT_EQ(plan.events[2].param, 2u);
}

TEST(FaultPlanTest, EveryKindNameRoundTrips) {
  for (const FaultKind kind :
       {FaultKind::kCrashClean, FaultKind::kCrashKill, FaultKind::kCrashAbort,
        FaultKind::kStall, FaultKind::kDropTelemetry, FaultKind::kDelayControl,
        FaultKind::kCorruptStats, FaultKind::kArenaMapFail}) {
    FaultKind back = FaultKind::kCrashKill;
    ASSERT_TRUE(ParseFaultKind(FaultKindName(kind), &back))
        << FaultKindName(kind);
    EXPECT_EQ(back, kind);
  }
  FaultKind ignored;
  EXPECT_FALSE(ParseFaultKind("quux", &ignored));
}

TEST(FaultPlanTest, MapfailIsABarePseudoEvent) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("mapfail", 4, 100'000, 42, &plan, &error))
      << error;
  EXPECT_TRUE(plan.arena_map_failure());
  // mapfail cannot be targeted at a shard/time — it happens before the fork.
  EXPECT_FALSE(ParseFaultPlan("mapfail:0@100", 4, 100'000, 42, &plan, &error));
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  FaultPlan plan;
  std::string error;
  // Unknown kind, missing timestamp, shard out of range.
  EXPECT_FALSE(ParseFaultPlan("frob:0@10", 4, 100'000, 42, &plan, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseFaultPlan("kill:0", 4, 100'000, 42, &plan, &error));
  EXPECT_FALSE(ParseFaultPlan("kill:9@10", 4, 100'000, 42, &plan, &error));
}

// Numbers that once parsed into a different, valid-looking plan: the count
// and the shard were narrowed to uint32 (4294967297 faults became 1, shard
// 4294967296 became shard 0) and a leading '-' wrapped through strtoull.
TEST(FaultPlanTest, RejectsNumbersThatWouldWrap) {
  for (const char* spec :
       {"random:4294967297", "kill:4294967296@10", "kill:-1@10", "kill:0@-5",
        "stall:0@10:-5", "kill:+1@10", "kill:0@ 5", "kill:0@10:"}) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(ParseFaultPlan(spec, 4, 100'000, 42, &plan, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

TEST(FaultPlanTest, RandomCountIsCappedBeforeAllocating) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("random:" + std::to_string(kMaxRandomFaults), 4,
                             100'000, 42, &plan, &error))
      << error;
  EXPECT_EQ(plan.events.size(), kMaxRandomFaults);
  for (const std::string& spec :
       {"random:" + std::to_string(kMaxRandomFaults + 1), std::string("random:-1"),
        std::string("random:18446744073709551615")}) {
    error.clear();
    EXPECT_FALSE(ParseFaultPlan(spec, 4, 100'000, 42, &plan, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

TEST(FaultPlanTest, RandomSpecIsSeededAndDeterministic) {
  FaultPlan a;
  FaultPlan b;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("random:8", 4, 100'000, 7, &a, &error)) << error;
  ASSERT_TRUE(ParseFaultPlan("random:8", 4, 100'000, 7, &b, &error)) << error;
  ASSERT_EQ(a.events.size(), 8u);
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].shard, b.events[i].shard);
    EXPECT_EQ(a.events[i].at_request, b.events[i].at_request);
    EXPECT_EQ(a.events[i].param, b.events[i].param);
    // Never mapfail, always in-range, and inside the run.
    EXPECT_NE(a.events[i].kind, FaultKind::kArenaMapFail);
    EXPECT_LT(a.events[i].shard, 4u);
    EXPECT_LT(a.events[i].at_request, 100'000u);
  }
  // A different seed moves the plan (overwhelmingly likely with 8 events).
  FaultPlan c = GenerateFaultPlan(8, /*kind_or_negative=*/-1, 8, 4, 100'000);
  bool any_diff = false;
  for (size_t i = 0; i < c.events.size(); ++i) {
    any_diff = any_diff || c.events[i].at_request != a.events[i].at_request ||
               c.events[i].shard != a.events[i].shard;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultPlanTest, RandomSpecWithFixedKind) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("random:5:stall", 2, 50'000, 42, &plan, &error))
      << error;
  ASSERT_EQ(plan.events.size(), 5u);
  for (const FaultEvent& ev : plan.events) {
    EXPECT_EQ(ev.kind, FaultKind::kStall);
    EXPECT_GT(ev.param, 0u);
  }
}

TEST(FaultPlanTest, ToStringRoundTripsThroughParser) {
  FaultPlan plan = GenerateFaultPlan(42, -1, 6, 4, 200'000);
  plan.events.push_back({FaultKind::kArenaMapFail, 0, 0, 0});
  const std::string spec = FaultPlanToString(plan);
  FaultPlan back;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan(spec, 4, 200'000, 42, &back, &error))
      << spec << ": " << error;
  ASSERT_EQ(back.events.size(), plan.events.size());
  for (size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(back.events[i].kind, plan.events[i].kind);
    EXPECT_EQ(back.events[i].shard, plan.events[i].shard);
    EXPECT_EQ(back.events[i].at_request, plan.events[i].at_request);
    EXPECT_EQ(back.events[i].param, plan.events[i].param);
  }
  EXPECT_TRUE(back.arena_map_failure());
}

TEST(FaultPlanTest, CommaListMixesTermKinds) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("kill:0@1000,random:3,mapfail", 2, 10'000, 1,
                             &plan, &error))
      << error;
  EXPECT_TRUE(plan.arena_map_failure());
  EXPECT_EQ(plan.events.size(), 5u);  // 1 explicit + 3 random + mapfail
}

}  // namespace
}  // namespace distcache
