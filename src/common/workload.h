// Workload generation: a stream of GET/PUT operations drawn from a key-popularity
// distribution with a configurable write ratio, mirroring the paper's client library
// (§6.1: uniform and Zipf-0.9/0.95/0.99 over 100M objects, varying write ratio).
//
// Workloads are *phased*: a WorkloadPhase list divides the request timeline into
// stretches with their own skew, write ratio, and hot-set rotation. This is how the
// paper's dynamic-workload experiments (hot-spot shift, §6.4) are expressed — a
// single-phase list reproduces the historical static i.i.d. stream bit for bit.
#ifndef DISTCACHE_COMMON_WORKLOAD_H_
#define DISTCACHE_COMMON_WORKLOAD_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"

namespace distcache {

enum class OpType : uint8_t {
  kGet,
  kPut,
};

struct Op {
  OpType type;
  uint64_t key;
};

// One stretch of the workload timeline, starting at `start_request` (timestamps are
// in requests, relative to a run). Popularity is always rank-ordered — rank 0 is the
// hottest — and `hot_shift` rotates the rank→key mapping: popularity rank r maps to
// key (r + hot_shift) % num_keys. A shift therefore moves the entire hot set onto
// previously-cold keys without changing the shape of the distribution, which is
// exactly the paper's hot-spot-shift experiment. Changing `zipf_theta` re-shapes the
// distribution itself (samplers must be rebuilt at the boundary).
struct WorkloadPhase {
  uint64_t start_request = 0;
  double zipf_theta = 0.99;  // 0 => uniform
  double write_ratio = 0.0;  // fraction of PUTs
  uint64_t hot_shift = 0;    // rank r → key (r + hot_shift) % num_keys
};

// Orders phases by start_request, preserving list order for ties — the later entry
// of a tie wins (a zero-length phase is applied and immediately superseded).
void SortPhasesByStart(std::vector<WorkloadPhase>& phases);

// The key id carrying popularity rank `rank` under a phase's rotation. With
// both operands already below num_keys their sum is below 2·num_keys, so one
// conditional subtract replaces the division.
inline uint64_t KeyOfRank(uint64_t rank, uint64_t hot_shift, uint64_t num_keys) {
  if (hot_shift == 0) {
    return rank;
  }
  if (rank < num_keys && hot_shift < num_keys) {
    const uint64_t key = rank + hot_shift;
    return key >= num_keys ? key - num_keys : key;
  }
  return (rank + hot_shift) % num_keys;
}

// Parses a phase list from the CLI syntax
//   start:theta:write_ratio[:hot_shift][,start:theta:write_ratio[:hot_shift]]...
// e.g. "0:0.99:0.0,500000:0.99:0.0:50000000". Returns false and sets *error on
// malformed input (non-numeric fields, NaN/negative values, theta > 1, write ratio
// outside [0,1]). Phases are returned sorted by start_request.
bool ParsePhaseList(const std::string& text, std::vector<WorkloadPhase>* phases,
                    std::string* error);

// Open-loop arrival process (the virtual-time layer): requests arrive Poisson at
// `rate` per virtual-time unit, where one unit is one storage server's mean
// service time — so rate is directly comparable to ClusterSim capacities
// (rate == TotalServerCapacity() offers exactly aggregate server capacity).
// Optional periodic bursts multiply the rate by `burst_factor` for the first
// `burst_duration` units of every `burst_every`-unit window, modelling diurnal
// or flash-crowd traffic. rate == 0 disables the open-loop clock entirely: the
// engines then run closed-loop and record no latency (the historical behaviour,
// bit-identical).
struct ArrivalConfig {
  double rate = 0.0;
  double burst_factor = 1.0;
  double burst_every = 0.0;     // 0 = no bursts
  double burst_duration = 0.0;

  bool enabled() const { return rate > 0.0; }
  bool bursty() const {
    return burst_factor != 1.0 && burst_every > 0.0 && burst_duration > 0.0;
  }
  // The instantaneous arrival rate at virtual time `now` (phase within the
  // burst window decides; deterministic, consumes no RNG).
  double RateAt(double now) const {
    if (!bursty()) {
      return rate;
    }
    const double phase = now - burst_every * std::floor(now / burst_every);
    return phase < burst_duration ? rate * burst_factor : rate;
  }
  // Long-run mean rate (burst duty cycle folded in) — what the fluid engine's
  // steady-state queueing forms see.
  double MeanRate() const {
    if (!bursty()) {
      return rate;
    }
    const double duty = burst_duration >= burst_every
                            ? 1.0
                            : burst_duration / burst_every;
    return rate * (1.0 + (burst_factor - 1.0) * duty);
  }
};

// Parses the CLI burst syntax "factor:every:duration" (e.g. "4:1000:50": 4x the
// base rate for the first 50 of every 1000 virtual-time units) into an existing
// ArrivalConfig (rate is set separately). Returns false and sets *error on
// malformed input (non-numeric, factor < 1, non-positive window, duration
// outside (0, every]).
bool ParseBurstSpec(const std::string& text, ArrivalConfig* arrival,
                    std::string* error);

struct WorkloadConfig {
  uint64_t num_keys = 100'000'000;  // paper: 100 million objects
  double zipf_theta = 0.99;         // 0 => uniform; paper default zipf-0.99
  double write_ratio = 0.0;         // fraction of PUTs
  uint64_t seed = 1;
  // Optional timeline. Empty = one implicit phase from the fields above. When
  // non-empty, the first phase takes effect at its start_request; until then the
  // top-level zipf_theta/write_ratio apply.
  std::vector<WorkloadPhase> phases;
};

// Draws a stream of operations, advancing through the configured phase timeline.
// One instance per client thread. Sampler rebuilds happen lazily at phase
// boundaries and consume no RNG draws, so two generators with the same config and
// seed produce identical streams regardless of when phases fire.
class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(const WorkloadConfig& config);

  Op Next();

  // The distribution currently in effect (phase-dependent).
  const KeyDistribution& distribution() const { return *dist_; }
  double write_ratio() const { return write_ratio_; }
  uint64_t hot_shift() const { return hot_shift_; }
  uint64_t requests_drawn() const { return drawn_; }
  const WorkloadConfig& config() const { return config_; }

 private:
  void ApplyPhase(const WorkloadPhase& phase);

  WorkloadConfig config_;
  std::unique_ptr<KeyDistribution> dist_;
  Rng rng_;
  double write_ratio_;
  double theta_;
  uint64_t hot_shift_ = 0;
  uint64_t drawn_ = 0;
  size_t next_phase_ = 0;
};

// Exact popularity of the `top_k` hottest keys plus the aggregate tail mass, used by
// the fluid cluster simulator: hot keys are tracked individually, the tail is spread
// across storage servers by the placement hash.
struct PopularityVector {
  std::vector<double> head;  // head[i] = Pr[rank == i], i < top_k
  double tail_mass = 0.0;    // 1 - sum(head)
};

PopularityVector BuildPopularityVector(const KeyDistribution& dist, uint64_t top_k);

}  // namespace distcache

#endif  // DISTCACHE_COMMON_WORKLOAD_H_
