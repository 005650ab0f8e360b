// Deterministic random number generation for reproducible experiments.
//
// All stochastic components of the library (workload synthesis, instance
// resampling in Bagging, weight initialisation in the MLP, ...) draw from a
// `Rng` seeded explicitly by the caller, never from global state, so every
// table and figure regenerates bit-identically across runs and platforms.
//
// The generator is xoshiro256** (Blackman & Vigna) seeded via SplitMix64 —
// small, fast, and with well-studied statistical quality; we avoid
// std::mt19937 because its distributions are not specified to be identical
// across standard library implementations.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "support/check.h"

namespace hmd {

/// SplitMix64 step — used for seeding and for cheap hash-like mixing.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Mix an arbitrary 64-bit value into a well-distributed hash.
constexpr std::uint64_t mix64(std::uint64_t x) {
  std::uint64_t s = x;
  return splitmix64(s);
}

/// Deterministic xoshiro256** generator with explicit seeding.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xD1CEB00DULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Derive an independent stream, e.g. one per workload or per bag.
  Rng fork(std::uint64_t stream) const {
    Rng child(0);
    std::uint64_t sm = state_[0] ^ mix64(stream ^ 0xA5A5A5A5DEADBEEFULL);
    for (auto& word : child.state_) word = splitmix64(sm);
    return child;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t below(std::uint64_t n) {
    HMD_REQUIRE(n > 0);
    // Reject draws below 2^64 mod n to keep the stream exactly uniform.
    // That threshold is < n, so a draw >= n is accepted without computing
    // it; the division is only paid on the rare draw below n.
    for (;;) {
      const std::uint64_t r = operator()();
      if (r >= n || r >= (0 - n) % n) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    HMD_REQUIRE(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Standard normal via Box–Muller (no cached spare: keeps state simple).
  double gaussian() {
    double u1 = uniform();
    while (u1 <= 1e-300) u1 = uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.14159265358979323846 * u2);
  }

  double gaussian(double mean, double stddev) {
    return mean + stddev * gaussian();
  }

  /// Log-normal sample with the given underlying normal parameters.
  double lognormal(double mu, double sigma) {
    return std::exp(gaussian(mu, sigma));
  }

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  /// Geometric-ish burst length >= 1 with mean roughly `mean`.
  std::uint64_t burst(double mean) {
    HMD_REQUIRE(mean >= 1.0);
    const double p = 1.0 / mean;
    std::uint64_t n = 1;
    while (!chance(p) && n < 1u << 20) ++n;
    return n;
  }

  /// Poisson sample (Knuth for small lambda, normal approx for large).
  std::uint64_t poisson(double lambda) {
    HMD_REQUIRE(lambda >= 0.0);
    if (lambda <= 0.0) return 0;
    if (lambda > 64.0) {
      const double v = gaussian(lambda, std::sqrt(lambda));
      return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
    }
    const double limit = std::exp(-lambda);
    double prod = uniform();
    std::uint64_t n = 0;
    while (prod > limit) {
      ++n;
      prod *= uniform();
    }
    return n;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace hmd
