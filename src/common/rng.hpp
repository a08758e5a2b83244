// Deterministic, fast pseudo-random generation.
//
// All stochastic components (latency models, adversarial schedules,
// Monte-Carlo validation) draw from this generator so that every
// experiment is reproducible from a single 64-bit seed.
#pragma once

#include <cstdint>

namespace timing {

/// splitmix64 — used to expand a user seed into xoshiro state.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// A Bernoulli(p) decision as an integer compare, built once from p.
///
/// Rng::uniform() is k * 2^-53 with k = next() >> 11, an exact double, so
/// `uniform() < p` holds iff k < p * 2^53 (also exact: scaling by a power
/// of two), iff k < ceil(p * 2^53). The threshold stores that ceiling, and
/// Rng::bernoulli(threshold) makes the same decision as Rng::bernoulli(p)
/// for every draw while consuming the same single next(). The mapping is
/// total: NaN and p <= 0 give 0 (never), p >= 1 gives 2^53 (always), and
/// every value in between lies in [1, 2^53], so the cast is always in
/// range.
class BernoulliThreshold {
 public:
  constexpr explicit BernoulliThreshold(double p = 0.0) noexcept
      : t_(ceil_scaled(p)) {}

  /// ceil(p * 2^53), clamped to [0, 2^53].
  constexpr std::uint64_t value() const noexcept { return t_; }

 private:
  static constexpr std::uint64_t ceil_scaled(double p) noexcept {
    if (!(p > 0.0)) return 0;
    if (p >= 1.0) return 1ULL << 53;
    const double x = p * 0x1.0p53;                  // exact, in (0, 2^53)
    const auto t = static_cast<std::uint64_t>(x);  // floor
    return static_cast<double>(t) < x ? t + 1 : t;
  }

  std::uint64_t t_;
};

/// xoshiro256** by Blackman & Vigna. Satisfies UniformRandomBitGenerator,
/// so it can also be plugged into <random> distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept { return next(); }

  // next() and uniform() are defined here so that sampling loops inline
  // them instead of paying a call per draw.
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the 53 high bits of next().
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t uniform_int(std::uint64_t bound) noexcept;

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// The same trial with p pre-converted (see BernoulliThreshold): the
  /// identical decision and RNG consumption, without the int-to-double
  /// conversion and floating compare.
  bool bernoulli(BernoulliThreshold p) noexcept {
    return (next() >> 11) < p.value();
  }

  /// Standard normal via Box-Muller (caches the spare deviate).
  double normal() noexcept;

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Lognormal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept;

  /// Exponential with given mean (mean = 1/lambda).
  double exponential(double mean) noexcept;

  /// Pareto with scale x_m and shape alpha (heavy tail for WAN spikes).
  double pareto(double x_m, double alpha) noexcept;

  /// Derive an independent stream (e.g. one per link or per run).
  /// Stateful: advances this generator, so the result depends on how many
  /// splits happened before. For parallel trials prefer substream().
  Rng split() noexcept;

  /// Same state: the two generators produce the same future draws.
  friend bool operator==(const Rng&, const Rng&) = default;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

/// Counter-based sub-stream seed for trial `index` of a root seed: a pure
/// function of (root, index), so trial k draws the same values no matter
/// which thread runs it, in what order sub-streams are created, or how
/// many trials exist. This is the seed derivation the experiment harness
/// has always used per run; exposed here so every parallel consumer
/// shares it.
std::uint64_t substream_seed(std::uint64_t root, std::uint64_t index) noexcept;

/// The generator for trial `index` of root seed `root`.
Rng substream(std::uint64_t root, std::uint64_t index) noexcept;

}  // namespace timing
