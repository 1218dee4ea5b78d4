#include "sim/sequential_backend.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "sim/route_table.h"
#include "sketch/heavy_hitter.h"

namespace distcache {

namespace {

// Charges loads into the global cumulative counters and refreshes the telemetry
// view in place — the per-request piggybacked-telemetry semantics of §4.2 (every
// reply, data or coherence ack, carries the serving switch's current load).
struct SequentialSink {
  BackendStats* st;
  LoadTracker* view;

  void AddCacheLoad(CacheNodeId node, double delta) {
    double& load = st->cache_load[node.layer][node.index];
    load += delta;
    view->Set(node, load);
  }
  void AddServerLoad(uint32_t server, double delta) {
    st->server_load[server] += delta;
  }
};

}  // namespace

SequentialBackend::SequentialBackend(const SimBackendConfig& config)
    : config_(config),
      model_(config.cluster, /*build_popularity=*/!config.two_level_sampling),
      core_(&model_, HashCombine(config.cluster.seed, 0xc1057e4ULL),
            HashCombine(config.cluster.seed, 0x90076eULL),
            TimelineNeedsObserver(config.events)) {
  if (config_.two_level_sampling) {
    two_level_ = std::make_unique<TwoLevelSampler>(
        model_.cfg.num_keys, model_.cfg.zipf_theta, model_.pool);
  } else {
    head_dist_ = std::make_unique<DiscreteDistribution>(model_.head_with_tail,
                                                        "head+tail");
  }
  // The pre-event route table must snapshot the pristine allocation, so build it
  // before the plan walk below mutates the controller state.
  model_.dense_routes = config_.dense_routes;
  auto base = std::make_shared<const RouteTable>(BuildRouteTable(model_));
  base_route_bytes_ = base->bytes();
  core_.SetRoutes(std::move(base));
  // Open-loop virtual time, when configured. The time stream gets its own seed
  // derivation so the key/write streams stay bit-identical to closed-loop runs.
  core_.ConfigureOpenLoop(config_.queue,
                          HashCombine(config.cluster.seed, 0x0be71457ULL));
  plan_ = BuildTimelinePlan(config_, model_);
  core_.SetPhaseHook([this](const WorkloadPhase& phase,
                            const std::shared_ptr<const std::vector<double>>& pmf) {
    if (two_level_ != nullptr) {
      // Closed-form rebuild from the phase's skew — no pmf was materialized.
      two_level_ = std::make_unique<TwoLevelSampler>(
          model_.cfg.num_keys, phase.zipf_theta, model_.pool);
    } else if (pmf != nullptr) {
      head_dist_ = std::make_unique<DiscreteDistribution>(*pmf, "head+tail");
    }
  });
  core_.SetReallocateHook([this]() -> std::shared_ptr<const RouteTable> {
    // Controller re-allocation (§6.4): rank the observed heavy-hitter counts
    // (the refill reads only the hottest `pool`), refill the allocation
    // hottest-first, and swap in the rebuilt routes. The controller acts on
    // its *current* failure knowledge, so first re-sync its remap to the
    // alive set as of this timestamp (the construction-time plan walk left it
    // at the end-of-timeline state).
    model_.SyncControllerRemap(core_.spine_alive());
    std::vector<std::vector<std::pair<uint64_t, uint32_t>>> reports;
    reports.push_back(core_.ObservedCounts());
    std::vector<uint64_t> hottest;
    for (const auto& [key, count] : MergeHeavyHitterReports(reports, model_.pool)) {
      hottest.push_back(key);
    }
    model_.ReallocateCache(hottest);
    auto routes = std::make_shared<const RouteTable>(
        BuildRouteTable(model_, core_.hot_shift()));
    // The remaining timeline's precomputed snapshots describe the pre-refill
    // cached set; rebuild them against the refilled allocation so later
    // failure/shift steps do not resurrect it. (Actions align with plan_ 1:1.)
    const size_t from = core_.next_action_index();
    const auto suffix = RebuildPlanSuffixRoutes(plan_, from, model_,
                                                core_.spine_alive(),
                                                core_.hot_shift());
    for (size_t i = 0; i < suffix.size(); ++i) {
      if (suffix[i] != nullptr) {
        core_.SetActionRoutes(from + i, suffix[i]);
      }
    }
    return routes;
  });
}

BackendStats SequentialBackend::Run(uint64_t num_requests) {
  BackendStats st;
  st.cache_load = model_.ZeroCacheLoads();
  st.server_load.assign(model_.num_servers(), 0.0);
  core_.BindStats(&st);
  core_.SetSampleStep(static_cast<double>(config_.sample_interval));
  core_.ClearActions();
  for (const TimelineStep& step : plan_) {
    // Timestamps at or beyond the Run never fire (AdvanceTo stops at the last
    // request index); queue everything and let the clock decide.
    core_.QueueAction({static_cast<double>(step.at_request), step.is_phase,
                       step.phase, step.event, step.pmf, step.routes});
  }
  SequentialSink sink{&st, &core_.view()};
  const uint64_t epoch = config_.epoch_requests;
  const uint64_t batch = std::max<uint32_t>(config_.batch_size, 1);
  inputs_.resize(batch);
  uniforms_.resize(batch);

  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < num_requests;) {
    // A batch starts where the request-at-a-time loop would change state:
    // timeline actions and sample points (AdvanceTo), and telemetry epochs.
    core_.AdvanceTo(i);

    // Telemetry epoch boundary: refresh the client's view from true loads.
    // Between boundaries the per-request Set() in the sink keeps the view exact
    // for routed nodes. (Dead spines emit no telemetry; the tracker routes their
    // refresh to the shadow value, keeping the +inf pin — see load_tracker.h.)
    if (epoch != 0 && i % epoch == 0) {
      for (uint32_t layer = 0; layer < st.cache_load.size(); ++layer) {
        for (uint32_t n = 0; n < st.cache_load[layer].size(); ++n) {
          core_.view().Set({layer, n}, st.cache_load[layer][n]);
        }
      }
    }

    // The batch ends before the next index at which AdvanceTo acts or an
    // epoch starts. While transit drops draw from the core RNG, Process draws
    // after the request's inputs, so the batch is that one request.
    uint64_t end = std::min(num_requests, core_.NextAdvanceAt());
    if (epoch != 0) {
      end = std::min(end, (i / epoch + 1) * epoch);
    }
    const uint32_t count = static_cast<uint32_t>(
        core_.TransitCanDraw() ? 1 : std::min(end - i, batch));
    // Each request's draws in the request-at-a-time order: sampler, then the
    // core's write flag and tail rank. Drawing the batch in its own pass lets
    // consecutive samples' table lookups overlap.
    if (two_level_ != nullptr) {
      for (uint32_t k = 0; k < count; ++k) {
        inputs_[k] = core_.DrawInput(two_level_->Sample(core_.rng()));
      }
    } else {
      // The inverse-CDF sampler draws one uniform, and a request's later
      // draws depend only on whether it selects the tail bucket: one compare.
      // The binary searches for the head buckets then run after all draws,
      // independent of each other and of the RNG.
      const uint32_t tail = static_cast<uint32_t>(model_.pool);
      for (uint32_t k = 0; k < count; ++k) {
        const double u = core_.rng().NextDouble();
        uniforms_[k] = u;
        inputs_[k] = core_.DrawInput(head_dist_->SelectsLast(u) ? tail : 0);
      }
      for (uint32_t k = 0; k < count; ++k) {
        EngineCore::RequestInput& in = inputs_[k];
        if (in.bucket != tail) {
          in.bucket = static_cast<uint32_t>(head_dist_->IndexOf(uniforms_[k]));
          in.rank = in.bucket;
        }
      }
    }
    core_.ProcessBatch(sink, inputs_.data(), count);
    i += count;
  }
  const auto t1 = std::chrono::steady_clock::now();
  st.requests = num_requests;
  core_.FinishSeries(num_requests);
  st.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  st.peak_rss_bytes = CurrentPeakRssBytes();
  st.route_table_bytes = base_route_bytes_ + PlanRouteTableBytes(nullptr, plan_);
  st.sampler_bytes =
      two_level_ != nullptr ? two_level_->bytes() : head_dist_->bytes();
  return st;
}

}  // namespace distcache
