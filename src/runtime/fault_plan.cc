#include "runtime/fault_plan.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/hash.h"
#include "common/parse.h"
#include "common/random.h"

namespace distcache {
namespace {

struct KindName {
  FaultKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::kCrashClean, "exit"},    {FaultKind::kCrashKill, "kill"},
    {FaultKind::kCrashAbort, "abort"},   {FaultKind::kStall, "stall"},
    {FaultKind::kDropTelemetry, "drop"}, {FaultKind::kDelayControl, "delay"},
    {FaultKind::kCorruptStats, "corrupt"}, {FaultKind::kArenaMapFail, "mapfail"},
};

// Default param when a spec term omits it: enough to be observable, small
// enough that smoke-sized chaos runs stay fast.
uint64_t DefaultParam(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStall:
      return 20;  // ms
    case FaultKind::kDropTelemetry:
      return 2;  // broadcasts
    case FaultKind::kDelayControl:
      return 10;  // ms
    default:
      return 0;
  }
}

// The classes `random:` samples from (everything injectable mid-run; mapfail
// is a whole-run property, not a schedulable event).
constexpr FaultKind kRandomKinds[] = {
    FaultKind::kCrashClean,    FaultKind::kCrashKill, FaultKind::kCrashAbort,
    FaultKind::kStall,         FaultKind::kDropTelemetry,
    FaultKind::kDelayControl,  FaultKind::kCorruptStats,
};

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  for (const KindName& entry : kKindNames) {
    if (entry.kind == kind) {
      return entry.name;
    }
  }
  return "?";
}

bool ParseFaultKind(const std::string& name, FaultKind* kind) {
  for (const KindName& entry : kKindNames) {
    if (name == entry.name) {
      *kind = entry.kind;
      return true;
    }
  }
  return false;
}

bool FaultPlan::arena_map_failure() const {
  for (const FaultEvent& e : events) {
    if (e.kind == FaultKind::kArenaMapFail) {
      return true;
    }
  }
  return false;
}

uint64_t FaultPlan::max_stall_ms() const {
  uint64_t max_ms = 0;
  for (const FaultEvent& e : events) {
    if (e.kind == FaultKind::kStall) {
      max_ms = std::max(max_ms, e.param);
    }
  }
  return max_ms;
}

FaultPlan GenerateFaultPlan(uint64_t seed, int kind_or_negative, uint32_t count,
                            uint32_t shards, uint64_t num_requests) {
  FaultPlan plan;
  Rng rng(HashCombine(seed, 0xfa1707afULL));
  const uint64_t lo = num_requests / 10;
  const uint64_t span = std::max<uint64_t>(1, num_requests * 7 / 10);
  plan.events.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    FaultEvent e;
    e.kind = kind_or_negative >= 0
                 ? static_cast<FaultKind>(kind_or_negative)
                 : kRandomKinds[rng.NextBounded(
                       sizeof(kRandomKinds) / sizeof(kRandomKinds[0]))];
    e.shard = shards == 0 ? 0 : static_cast<uint32_t>(rng.NextBounded(shards));
    e.at_request = lo + rng.NextBounded(span);
    e.param = DefaultParam(e.kind);
    plan.events.push_back(e);
  }
  return plan;
}

bool ParseFaultPlan(const std::string& spec, uint32_t shards,
                    uint64_t num_requests, uint64_t seed, FaultPlan* plan,
                    std::string* error) {
  plan->events.clear();
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string term = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (term.empty()) {
      continue;
    }
    if (term == "mapfail") {
      plan->events.push_back({FaultKind::kArenaMapFail, 0, 0, 0});
      continue;
    }
    if (term.rfind("random:", 0) == 0) {
      // random:<count>[:<kind>]
      const std::string rest = term.substr(7);
      const size_t colon = rest.find(':');
      uint64_t count = 0;
      if (!ParseStrictUint(rest.substr(0, colon), &count)) {
        return Fail(error, "fault-plan: bad count in '" + term + "'");
      }
      if (count > kMaxRandomFaults) {
        return Fail(error, "fault-plan: count in '" + term + "' exceeds " +
                               std::to_string(kMaxRandomFaults));
      }
      int kind_sel = -1;
      if (colon != std::string::npos) {
        FaultKind kind;
        if (!ParseFaultKind(rest.substr(colon + 1), &kind) ||
            kind == FaultKind::kArenaMapFail) {
          return Fail(error, "fault-plan: bad kind in '" + term + "'");
        }
        kind_sel = static_cast<int>(kind);
      }
      const FaultPlan generated = GenerateFaultPlan(
          seed, kind_sel, static_cast<uint32_t>(count), shards, num_requests);
      plan->events.insert(plan->events.end(), generated.events.begin(),
                          generated.events.end());
      continue;
    }
    // <kind>:<shard>@<at>[:<param>]
    const size_t kind_colon = term.find(':');
    if (kind_colon == std::string::npos) {
      return Fail(error, "fault-plan: expected <kind>:<shard>@<at> in '" +
                             term + "'");
    }
    FaultEvent e;
    if (!ParseFaultKind(term.substr(0, kind_colon), &e.kind) ||
        e.kind == FaultKind::kArenaMapFail) {
      return Fail(error, "fault-plan: unknown kind in '" + term + "'");
    }
    const std::string body = term.substr(kind_colon + 1);
    const size_t at_sign = body.find('@');
    if (at_sign == std::string::npos) {
      return Fail(error, "fault-plan: expected <shard>@<at> in '" + term + "'");
    }
    uint64_t shard = 0;
    if (!ParseStrictUint(body.substr(0, at_sign), &shard) ||
        shard > std::numeric_limits<uint32_t>::max()) {
      return Fail(error, "fault-plan: bad shard in '" + term + "'");
    }
    e.shard = static_cast<uint32_t>(shard);
    std::string at_str = body.substr(at_sign + 1);
    const size_t param_colon = at_str.find(':');
    e.param = DefaultParam(e.kind);
    if (param_colon != std::string::npos) {
      if (!ParseStrictUint(at_str.substr(param_colon + 1), &e.param)) {
        return Fail(error, "fault-plan: bad param in '" + term + "'");
      }
      at_str.resize(param_colon);
    }
    if (!ParseStrictUint(at_str, &e.at_request)) {
      return Fail(error, "fault-plan: bad timestamp in '" + term + "'");
    }
    if (shards != 0 && e.shard >= shards) {
      return Fail(error, "fault-plan: shard out of range in '" + term + "'");
    }
    plan->events.push_back(e);
  }
  return true;
}

std::string FaultPlanToString(const FaultPlan& plan) {
  std::string out;
  char buf[96];
  for (const FaultEvent& e : plan.events) {
    if (!out.empty()) {
      out += ',';
    }
    if (e.kind == FaultKind::kArenaMapFail) {
      out += "mapfail";
      continue;
    }
    std::snprintf(buf, sizeof(buf), "%s:%u@%llu", FaultKindName(e.kind),
                  e.shard, static_cast<unsigned long long>(e.at_request));
    out += buf;
    if (e.param != DefaultParam(e.kind)) {
      std::snprintf(buf, sizeof(buf), ":%llu",
                    static_cast<unsigned long long>(e.param));
      out += buf;
    }
  }
  return out;
}

}  // namespace distcache
