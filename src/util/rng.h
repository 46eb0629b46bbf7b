// Deterministic pseudo-random number generation (xoshiro256** seeded via
// splitmix64). All stochastic components of the library (synthetic
// hierarchies, distributions, object streams, noisy oracles) take an explicit
// Rng so experiments are reproducible bit-for-bit.
#ifndef AIGS_UTIL_RNG_H_
#define AIGS_UTIL_RNG_H_

#include <cmath>
#include <cstdint>

#include "util/common.h"

namespace aigs {

/// xoshiro256** — fast, high-quality, 256-bit state PRNG.
class Rng {
 public:
  /// Seeds deterministically from a single 64-bit value via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  /// Re-seeds the generator.
  void Seed(std::uint64_t seed);

  /// Next raw 64-bit output.
  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0. Uses Lemire's
  /// nearly-divisionless unbiased method. Defined here, like Next(), so
  /// per-draw loops (catalog generation, shuffles) inline both.
  std::uint64_t UniformInt(std::uint64_t bound) {
    AIGS_DCHECK(bound > 0);
    // Lemire's method: multiply-shift with rejection to remove modulo bias.
    std::uint64_t x = Next();
    U128 m = static_cast<U128>(x) * static_cast<U128>(bound);
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = Next();
        m = static_cast<U128>(x) * static_cast<U128>(bound);
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformIntInclusive(std::int64_t lo, std::int64_t hi) {
    AIGS_DCHECK(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    UniformInt(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double UniformReal() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1] — safe as a log() argument.
  double UniformRealOpenLow() {
    return (static_cast<double>(Next() >> 11) + 1.0) * 0x1.0p-53;
  }

  /// Exponential(rate) variate, rate > 0.
  double Exponential(double rate) {
    AIGS_DCHECK(rate > 0);
    return -std::log(UniformRealOpenLow()) / rate;
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return UniformReal() < p; }

  /// Fisher-Yates shuffle of a random-access container.
  template <typename Container>
  void Shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(UniformInt(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

  /// Derives an independent child generator (for per-thread / per-trace
  /// streams).
  Rng Fork() { return Rng(Next() ^ 0xD1B54A32D192ED03ULL); }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace aigs

#endif  // AIGS_UTIL_RNG_H_
