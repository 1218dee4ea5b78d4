#include "sim/engine_core.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace distcache {

// Observer sizing: the simulated controller aggregates switch reports in
// software, so the sketch is deliberately wider than the data-plane defaults
// (§5: 4×64K×16bit). Width 2^18 keeps per-cell collision mass ≪ 1 for the
// request windows the benches run, and threshold 2 admits every key seen twice
// within an observation window — sampled-tail keys essentially never are, head
// keys almost always are.
HeavyHitterDetector::Config EngineCore::ObserverConfig(uint64_t pool) {
  HeavyHitterDetector::Config cfg;
  cfg.sketch.width = 1 << 18;
  cfg.sketch.counter_max = std::numeric_limits<uint32_t>::max();
  cfg.report_threshold = 2;
  cfg.max_reports_per_epoch = static_cast<size_t>(2 * pool);
  return cfg;
}

namespace {

// Applies one plan step's routing-relevant transition to (alive, shift, model) —
// the single source of truth for how a step changes the controller state — and
// returns the post-step route snapshot (null for steps that change no routes:
// kFailSpine keeps clients on their stale routes, kReallocateCache is computed
// at runtime). Shared by the construction-time plan walk and the
// post-reallocation suffix rebuild so the two can never diverge.
std::shared_ptr<const RouteTable> AdvancePlanState(const TimelineStep& step,
                                                   ClusterModel& model,
                                                   std::vector<uint8_t>& alive,
                                                   uint64_t& shift) {
  const auto snapshot = [&] {
    return std::make_shared<const RouteTable>(BuildRouteTable(model, shift));
  };
  if (step.is_phase) {
    shift = step.phase.hot_shift;
    return snapshot();
  }
  switch (step.event.kind) {
    case ClusterEvent::Kind::kFailSpine:
      if (step.event.spine < alive.size()) {
        alive[step.event.spine] = 0;
      }
      return nullptr;  // no remap: stale routes until recovery
    case ClusterEvent::Kind::kRecoverSpine:
      if (step.event.spine < alive.size()) {
        alive[step.event.spine] = 1;
      }
      model.SyncControllerRemap(alive);
      return snapshot();
    case ClusterEvent::Kind::kRunRecovery:
      model.SyncControllerRemap(alive);
      return snapshot();
    case ClusterEvent::Kind::kShiftHotspot:
      shift = step.event.value;
      return snapshot();
    case ClusterEvent::Kind::kReallocateCache:
      break;
  }
  return nullptr;
}

// Whether the timeline plan keeps `event` under cache policy `policy`; the
// one place that decides a dynamic policy has no kReallocateCache step.
bool PlanKeepsEvent(const ClusterEvent& event, CachePolicyKind policy) {
  return event.kind != ClusterEvent::Kind::kReallocateCache ||
         !PolicyIsDynamic(policy);
}

}  // namespace

uint64_t PlanRouteTableBytes(const RouteTable* base,
                             const std::vector<TimelineStep>& plan) {
  uint64_t total = base != nullptr ? base->bytes() : 0;
  for (const TimelineStep& step : plan) {
    if (step.routes != nullptr) {
      total += step.routes->bytes();
    }
  }
  return total;
}

bool TimelineNeedsObserver(const std::vector<ClusterEvent>& events,
                           CachePolicyKind policy) {
  return std::any_of(events.begin(), events.end(), [policy](const ClusterEvent& e) {
    return e.kind == ClusterEvent::Kind::kReallocateCache &&
           PlanKeepsEvent(e, policy);
  });
}

std::vector<TimelineStep> BuildTimelinePlan(const SimBackendConfig& config,
                                            ClusterModel& model) {
  std::vector<TimelineStep> plan;
  plan.reserve(config.events.size() + config.phases.size());
  for (const WorkloadPhase& phase : config.phases) {
    TimelineStep step;
    step.at_request = phase.start_request;
    step.is_phase = true;
    step.phase = phase;
    plan.push_back(std::move(step));
  }
  for (const ClusterEvent& event : config.events) {
    if (!PlanKeepsEvent(event, config.cluster.cache_policy)) {
      continue;
    }
    TimelineStep step;
    step.at_request = event.at_request;
    step.event = event;
    plan.push_back(std::move(step));
  }
  // Phases before events on ties; otherwise list order (stable).
  std::stable_sort(plan.begin(), plan.end(),
                   [](const TimelineStep& a, const TimelineStep& b) {
                     if (a.at_request != b.at_request) {
                       return a.at_request < b.at_request;
                     }
                     return a.is_phase && !b.is_phase;
                   });

  // Walk the timeline once, tracking the alive set the way the controller would
  // observe it, and snapshot the route table after every routing-relevant step
  // (each snapshot is a pure function of the timeline prefix, so precomputing it
  // off the hot path is exact). kReallocateCache snapshots cannot be precomputed:
  // they depend on runtime-observed counts.
  std::vector<uint8_t> alive(model.cfg.num_spine, 1);
  uint64_t shift = 0;
  for (TimelineStep& step : plan) {
    if (step.is_phase && !config.two_level_sampling) {
      // O(pool) dense pmf for the phase's sampler rebuild. Two-level mode
      // skips it: the engines rebuild their O(hot) samplers from the phase's
      // zipf_theta in closed form instead (the hook receives a null pmf).
      step.pmf = std::make_shared<const std::vector<double>>(
          model.HeadWithTailFor(step.phase.zipf_theta));
    }
    step.routes = AdvancePlanState(step, model, alive, shift);
  }
  return plan;
}

std::vector<std::shared_ptr<const RouteTable>> RebuildPlanSuffixRoutes(
    const std::vector<TimelineStep>& plan, size_t from, ClusterModel& model,
    std::vector<uint8_t> alive_now, uint64_t shift_now) {
  std::vector<std::shared_ptr<const RouteTable>> routes;
  if (from >= plan.size()) {
    return routes;
  }
  routes.reserve(plan.size() - from);
  std::vector<uint8_t> alive = std::move(alive_now);
  uint64_t shift = shift_now;
  for (size_t i = from; i < plan.size(); ++i) {
    routes.push_back(AdvancePlanState(plan[i], model, alive, shift));
  }
  return routes;
}

void ApplyReallocation(
    ClusterModel& model, const EngineCore& core,
    const std::vector<std::vector<std::pair<uint64_t, uint32_t>>>& reports) {
  model.SyncControllerRemap(core.spine_alive());
  std::vector<uint64_t> hottest;
  for (const auto& [key, count] : MergeHeavyHitterReports(reports, model.pool)) {
    hottest.push_back(key);
  }
  model.ReallocateCache(hottest);
}

ReallocatedRoutes RebuildReallocatedRoutes(const std::vector<TimelineStep>& plan,
                                           ClusterModel& model,
                                           const EngineCore& core) {
  ReallocatedRoutes out;
  out.now = std::make_shared<const RouteTable>(
      BuildRouteTable(model, core.hot_shift()));
  out.suffix = RebuildPlanSuffixRoutes(plan, core.next_action_index(), model,
                                       core.spine_alive(), core.hot_shift());
  return out;
}

EngineCore::EngineCore(const ClusterModel* model, uint64_t rng_seed,
                       uint64_t router_seed, bool enable_observer)
    : model_(model),
      rng_(rng_seed),
      view_(MakeTrackerConfig(model->cfg)),
      router_(&view_, model->cfg.routing, router_seed),
      write_ratio_(model->cfg.write_ratio),
      spine_alive_(model->cfg.num_spine, 1) {
  if (enable_observer) {
    observer_ = std::make_unique<HeavyHitterDetector>(ObserverConfig(model->pool));
  }
  const CachePolicyKind kind = model->cfg.cache_policy;
  if (kind == CachePolicyKind::kStaticTopK) {
    policy_mode_ = kSerialStatic;
  } else if (PolicyIsDynamic(kind)) {
    policy_mode_ = kDynamicPolicy;
    CachePolicyConfig pc;
    pc.policy = kind;
    pc.hierarchy = model->cfg.cache_hierarchy;
    pc.write = model->cfg.write_policy;
    // One replica per engine stream; the seed is stream-independent so every
    // shard's replica filters identically (per-shard divergence comes from the
    // request streams, like the telemetry-staleness relaxation).
    pc.seed = HashCombine(model->cfg.seed, 0xca9e9071c7ULL);
    policy_ = std::make_unique<CachePolicyRuntime>(
        pc, model->allocation.get(), &model->placement, &spine_alive_);
  }
}

void EngineCore::ConfigureOpenLoop(const QueueModelConfig& queue,
                                   uint64_t time_seed) {
  if (!queue.enabled()) {
    return;  // closed loop: the byte stays 0 and no state is allocated
  }
  open_loop_ = 1;
  time_rng_.Seed(time_seed);
  arrival_ = queue.arrival;
  hop_cost_ = queue.hop_cost;
  server_rate_ = queue.server_service_rate > 0.0 ? queue.server_service_rate : 1.0;
  layer_rate_ = ResolveServiceRates(queue, model_->cfg);
  vnow_ = 0.0;
  cache_free_at_ = model_->ZeroCacheLoads();
  server_free_at_.assign(model_->num_servers(), 0.0);
}

namespace {

bool IsReallocation(const EngineCore::Action& action) {
  return !action.is_phase &&
         action.event.kind == ClusterEvent::Kind::kReallocateCache;
}

// The actions after which ApplyAction resets the observer. A phase boundary or
// a hot-spot shift starts a new popularity regime, and the controller must rank
// keys by the new one, not the accumulated past; after a re-allocation the next
// one ranks by post-reallocation popularity only.
bool ResetsObserver(const EngineCore::Action& action) {
  return action.is_phase ||
         action.event.kind == ClusterEvent::Kind::kShiftHotspot ||
         IsReallocation(action);
}

}  // namespace

void EngineCore::UpdateRecordingWindow() {
  recorder_ = nullptr;
  if (!observer_) {
    return;
  }
  const auto pending = actions_.begin() + static_cast<std::ptrdiff_t>(next_action_);
  const auto next_reset = std::find_if(pending, actions_.end(), ResetsObserver);
  if (next_reset != actions_.end() && IsReallocation(*next_reset)) {
    recorder_ = observer_.get();
  }
}

uint64_t EngineCore::NextAdvanceAt() const {
  // Smallest request index p with double(p) >= t, saturating past the range.
  const auto first_index_at = [](double t) -> uint64_t {
    const double c = std::ceil(t);
    if (!(c > 0.0)) {
      return 0;
    }
    return c < 0x1p64 ? static_cast<uint64_t>(c)
                      : std::numeric_limits<uint64_t>::max();
  };
  uint64_t next = std::numeric_limits<uint64_t>::max();
  if (next_action_ < actions_.size()) {
    next = first_index_at(actions_[next_action_].at_local);
  }
  if (sample_step_ > 0.0) {
    next = std::min(next, first_index_at(next_sample_at_));
  }
  return next;
}

bool EngineCore::ReallocatePending() const {
  return std::any_of(actions_.begin() + static_cast<std::ptrdiff_t>(next_action_),
                     actions_.end(), IsReallocation);
}

void EngineCore::ApplyAction(const Action& action) {
  ApplyStep(action);
  if (ResetsObserver(action)) {
    ResetObserver();
  }
}

void EngineCore::ApplyStep(const Action& action) {
  // Route installation honoring both snapshot flavors: the owning shared_ptr
  // (in-process plans) and the non-owning arena view (multiproc plans).
  const auto install_routes = [this, &action] {
    if (action.has_route_view) {
      SetRouteView(action.route_view, action.route_view_len,
                   action.overflow_view);
    } else if (action.routes != nullptr) {
      SetRoutes(action.routes);
    }
  };
  if (action.is_phase) {
    write_ratio_ = action.phase.write_ratio;
    hot_shift_ = action.phase.hot_shift;
    install_routes();
    if (phase_hook_) {
      phase_hook_(action.phase, action.pmf);
    }
    return;
  }
  const ClusterEvent& event = action.event;
  const uint32_t num_spine = model_->cfg.num_spine;
  switch (event.kind) {
    case ClusterEvent::Kind::kFailSpine:
      if (event.spine < num_spine && spine_alive_[event.spine]) {
        spine_alive_[event.spine] = 0;
        ++dead_spines_;
        recovery_ran_ = false;  // hot objects of the dead switch lose their copy
        view_.MarkDead({0, event.spine});
        if (policy_) {
          // The failed switch loses its cache (dirty lines and all); it comes
          // back cold on recovery and rewarms through the policy's fill path.
          policy_->InvalidateNode({0, event.spine});
        }
      }
      break;
    case ClusterEvent::Kind::kRecoverSpine:
      if (event.spine < num_spine && !spine_alive_[event.spine]) {
        spine_alive_[event.spine] = 1;
        --dead_spines_;
        view_.MarkAlive({0, event.spine});
      }
      install_routes();  // partitions return to their home switch
      break;
    case ClusterEvent::Kind::kRunRecovery:
      recovery_ran_ = true;
      install_routes();  // invalidate cached routes
      break;
    case ClusterEvent::Kind::kShiftHotspot:
      hot_shift_ = event.value;
      install_routes();
      break;
    case ClusterEvent::Kind::kReallocateCache:
      if (realloc_hook_) {
        if (std::shared_ptr<const RouteTable> routes = realloc_hook_()) {
          SetRoutes(std::move(routes));
        }
      }
      break;
  }
}

}  // namespace distcache
