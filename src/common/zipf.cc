#include "common/zipf.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace distcache {
namespace {

// Number of leading terms summed exactly before switching to the integral tail.
constexpr uint64_t kExactPrefix = 10000;

// Distance from theta == 1 below which the closed forms switch to their
// logarithmic limits: the integral tail and the Gray et al. constant alpha both
// divide by (1 - theta), so theta = 1.0 exactly would produce inf/NaN ranks.
constexpr double kThetaOneEps = 1e-6;

}  // namespace

double ZipfDistribution::Zeta(uint64_t n, double theta) {
  const uint64_t prefix = n < kExactPrefix ? n : kExactPrefix;
  double sum = 0.0;
  for (uint64_t i = 1; i <= prefix; ++i) {
    sum += std::pow(static_cast<double>(i), -theta);
  }
  if (n > prefix) {
    // Midpoint-rule integral tail: sum_{i=prefix+1..n} i^-theta ≈
    // ∫_{prefix+0.5}^{n+0.5} x^-theta dx. The midpoint correction makes the relative
    // error negligible for theta <= 1 at these scales. At theta ≈ 1 the antiderivative
    // (x^{1-θ})/(1-θ) degenerates; its limit is ln(x).
    const double a = static_cast<double>(prefix) + 0.5;
    const double b = static_cast<double>(n) + 0.5;
    if (std::abs(1.0 - theta) < kThetaOneEps) {
      sum += std::log(b) - std::log(a);
    } else {
      sum += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) / (1.0 - theta);
    }
  }
  return sum;
}

ZipfDistribution::ZipfDistribution(uint64_t num_keys, double theta)
    : num_keys_(num_keys), theta_(theta) {
  zetan_ = Zeta(num_keys_, theta_);
  zeta2_ = Zeta(2, theta_);
  // Gray et al.'s sampling constants divide by (1 - theta); evaluate them at a
  // guarded skew just below 1 when theta == 1. The rank formula
  // n·(1 - eta(1-u))^alpha then converges to its smooth n·exp(-c(1-u)) limit, so
  // sampled ranks stay finite and in range.
  const double guarded =
      std::abs(1.0 - theta_) < kThetaOneEps ? 1.0 - kThetaOneEps : theta_;
  alpha_ = 1.0 / (1.0 - guarded);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(num_keys_), 1.0 - guarded)) /
         (1.0 - zeta2_ / zetan_);
}

uint64_t ZipfDistribution::Sample(Rng& rng) const {
  // Gray et al. / YCSB approximate inverse-CDF sampling.
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;  // rank 1
  }
  if (uz < 1.0 + std::pow(0.5, theta_)) {
    return 1;  // rank 2
  }
  const uint64_t rank =
      1 + static_cast<uint64_t>(static_cast<double>(num_keys_) *
                                std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return (rank >= num_keys_ ? num_keys_ - 1 : rank - 1) + 0;
}

double ZipfDistribution::Pmf(uint64_t key) const {
  if (key >= num_keys_) {
    return 0.0;
  }
  return std::pow(static_cast<double>(key + 1), -theta_) / zetan_;
}

double ZipfDistribution::TopMass(uint64_t k) const {
  if (k >= num_keys_) {
    return 1.0;
  }
  return Zeta(k, theta_) / zetan_;
}

std::string ZipfDistribution::name() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "zipf-%.2f", theta_);
  return buf;
}

DiscreteDistribution::DiscreteDistribution(std::vector<double> pmf, std::string name)
    : pmf_(std::move(pmf)), name_(std::move(name)) {
  double sum = 0.0;
  for (double p : pmf_) {
    sum += p;
  }
  if (sum > 0.0) {
    for (double& p : pmf_) {
      p /= sum;
    }
  } else if (!pmf_.empty()) {
    // Degenerate all-zero pmf: without this the rounding guard below would set
    // cdf_.back() = 1.0 and silently dump 100% of the mass on the last key. Fall
    // back to uniform, which at least keeps Sample()/Pmf()/TopMass() consistent.
    pmf_.assign(pmf_.size(), 1.0 / static_cast<double>(pmf_.size()));
  }
  // Accumulated rounding can carry an interior sum past 1.0; clamping every
  // entry keeps the cdf monotone up to the last entry, pinned to 1.0. Draws
  // are below 1, so the clamp selects no different index.
  cdf_.resize(pmf_.size());
  double acc = 0.0;
  for (size_t i = 0; i < pmf_.size(); ++i) {
    acc += pmf_[i];
    cdf_[i] = std::min(acc, 1.0);
  }
  if (!cdf_.empty()) {
    cdf_.back() = 1.0;  // guard against rounding
  }
}

uint64_t DiscreteDistribution::IndexOf(double u) const {
  // std::lower_bound's index (the first cdf entry not below u), found without
  // a data-dependent branch: every halving step selects the upper half with a
  // conditional add, so independent searches overlap instead of serializing
  // on mispredicted branches. Entries before `base` stay below u, and the
  // entry at base + n (or the end) is not.
  const double* base = cdf_.data();
  size_t n = cdf_.size();
  if (n == 0) {
    return 0;
  }
  while (n > 1) {
    const size_t half = n / 2;
    base += base[half] < u ? half : 0;
    n -= half;
  }
  return static_cast<uint64_t>(base - cdf_.data()) + (*base < u ? 1 : 0);
}

double DiscreteDistribution::TopMass(uint64_t k) const {
  if (k == 0) {
    return 0.0;
  }
  if (k >= cdf_.size()) {
    return 1.0;
  }
  return cdf_[k - 1];
}

std::vector<double> CappedZipfPmf(uint64_t num_keys, double theta, double cap) {
  // Feasibility: a pmf over n keys cannot have every entry below 1/n, so a cap
  // under that floor is unsatisfiable — the clip-and-renormalize loop below would
  // run its 64 rounds and silently return a cap-violating pmf. The closest
  // satisfiable answer is exactly uniform; return it directly.
  const double floor_cap = 1.0 / static_cast<double>(num_keys);
  if (cap <= floor_cap * (1.0 + 1e-12)) {
    return std::vector<double>(num_keys, floor_cap);
  }
  ZipfDistribution zipf(num_keys, theta);
  std::vector<double> pmf(num_keys);
  for (uint64_t i = 0; i < num_keys; ++i) {
    pmf[i] = zipf.Pmf(i);
  }
  // Clip-and-renormalize until the cap holds; redistribution converges geometrically
  // since each round moves the clipped surplus into the (large) unclipped tail.
  for (int round = 0; round < 64; ++round) {
    double sum = 0.0;
    double max_p = 0.0;
    for (double& p : pmf) {
      p = std::min(p, cap);
      sum += p;
    }
    for (double& p : pmf) {
      p /= sum;
      max_p = std::max(max_p, p);
    }
    if (max_p <= cap * (1.0 + 1e-12)) {
      break;
    }
  }
  return pmf;
}

std::unique_ptr<KeyDistribution> MakeDistribution(uint64_t num_keys, double theta) {
  if (theta <= 0.0) {
    return std::make_unique<UniformDistribution>(num_keys);
  }
  return std::make_unique<ZipfDistribution>(num_keys, theta);
}

}  // namespace distcache
