// Seeded mutation tests for the spec parsers a user types on the command line:
// ParseFaultPlan (runtime/fault_plan.h), ParsePhaseList and ParseBurstSpec
// (common/workload.h). Each starts from valid specs and applies three mutation
// classes: random byte replacements at every position, every truncation, and
// every number replaced by extreme values. Each mutant must either fail with a
// non-empty error or parse into a value in range — never crash, wrap or ask
// for an allocation its bytes cannot justify. The sanitizer build runs this
// suite too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/workload.h"
#include "runtime/fault_plan.h"

namespace distcache {
namespace {

// Values substituted for every number of a spec.
constexpr const char* kExtremeNumbers[] = {
    "0",    "-1",   "-5",  "4294967295", "4294967296", "18446744073709551615",
    "18446744073709551616", "99999999999999999999999999", "1e308", "-1e308",
    "nan",  "inf",  "0.5", "1.0000001",  "",           "+3",
};

constexpr uint32_t kFaultShards = 4;

// Every mutant of `spec` (see the header comment), deterministically from
// `seed`.
std::vector<std::string> Mutants(const std::string& spec, uint64_t seed) {
  std::vector<std::string> out;
  Rng rng(seed);
  for (size_t i = 0; i < spec.size(); ++i) {
    for (int k = 0; k < 4; ++k) {
      std::string m = spec;
      m[i] = static_cast<char>(rng.NextBounded(256));
      out.push_back(std::move(m));
    }
  }
  for (size_t cut = 0; cut < spec.size(); ++cut) {
    out.push_back(spec.substr(0, cut));
  }
  const auto numeric = [](char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '.';
  };
  for (size_t i = 0; i < spec.size();) {
    if (!numeric(spec[i])) {
      ++i;
      continue;
    }
    size_t end = i;
    while (end < spec.size() && numeric(spec[end])) {
      ++end;
    }
    for (const char* value : kExtremeNumbers) {
      out.push_back(spec.substr(0, i) + value + spec.substr(end));
    }
    i = end;
  }
  return out;
}

// Runs `parse` on every mutant of every spec in `valid`. `parse` returns
// whether the mutant parsed, after checking what it parsed into; a rejected
// mutant must come with an error.
template <class Parse>
void ForEachMutant(std::initializer_list<const char*> valid, uint64_t seed,
                   const Parse& parse) {
  for (const char* spec : valid) {
    for (const std::string& m : Mutants(spec, seed++)) {
      SCOPED_TRACE("'" + m + "'");
      std::string error;
      if (!parse(m, &error)) {
        EXPECT_FALSE(error.empty());
      }
    }
  }
}

TEST(SpecMutation, FaultPlanParserRejectsOrStaysInRange) {
  ForEachMutant(
      {"kill:1@5000,stall:0@2000:250,drop:2@7500", "random:8", "random:5:stall",
       "kill:0@1000,random:3,mapfail",
       "delay:3@99999:10,corrupt:1@0,exit:2@7,abort:0@1"},
      0x5bec0001, [](const std::string& m, std::string* error) {
        FaultPlan plan;
        if (!ParseFaultPlan(m, kFaultShards, 100'000, 42, &plan, error)) {
          return false;
        }
        const size_t terms =
            1 + static_cast<size_t>(std::count(m.begin(), m.end(), ','));
        EXPECT_LE(plan.events.size(), terms * kMaxRandomFaults);
        for (const FaultEvent& e : plan.events) {
          EXPECT_LT(e.shard, kFaultShards);
          EXPECT_LE(static_cast<int>(e.kind),
                    static_cast<int>(FaultKind::kArenaMapFail));
        }
        return true;
      });
}

TEST(SpecMutation, PhaseListParserRejectsOrStaysInRange) {
  ForEachMutant(
      {"0:0.99:0.0,500000:0.99:0.0:50000000", "0:1:1",
       "100:0:0.5:3,7:0.25:0.125"},
      0x5bec0002, [](const std::string& m, std::string* error) {
        std::vector<WorkloadPhase> phases;
        if (!ParsePhaseList(m, &phases, error)) {
          return false;
        }
        EXPECT_FALSE(phases.empty());
        for (size_t i = 0; i < phases.size(); ++i) {
          const WorkloadPhase& p = phases[i];
          EXPECT_TRUE(p.zipf_theta >= 0.0 && p.zipf_theta <= 1.0);
          EXPECT_TRUE(p.write_ratio >= 0.0 && p.write_ratio <= 1.0);
          if (i > 0) {
            EXPECT_LE(phases[i - 1].start_request, p.start_request);
          }
        }
        return true;
      });
}

TEST(SpecMutation, BurstSpecParserRejectsOrStaysInRange) {
  ForEachMutant(
      {"4:1000:50", "1:1:1", "2.5:0.5:0.25"}, 0x5bec0003,
      [](const std::string& m, std::string* error) {
        ArrivalConfig arrival;
        if (!ParseBurstSpec(m, &arrival, error)) {
          return false;
        }
        EXPECT_TRUE(std::isfinite(arrival.burst_factor) &&
                    arrival.burst_factor >= 1.0);
        EXPECT_TRUE(std::isfinite(arrival.burst_every) &&
                    arrival.burst_every > 0.0);
        EXPECT_TRUE(arrival.burst_duration > 0.0 &&
                    arrival.burst_duration <= arrival.burst_every);
        return true;
      });
}

}  // namespace
}  // namespace distcache
