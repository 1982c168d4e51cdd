// Deterministic random number generation.
//
// Every stochastic component (adversary strategies, account assignment,
// topology generators) draws from an explicitly seeded Rng so that a whole
// experiment is reproducible from (config, seed). SplitMix64 is used for
// seeding / hashing; the heavy generator is xoshiro256** which is fast and
// has no measurable bias for the simulation's needs.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"

namespace stableshard {

/// SplitMix64 step: also usable as a 64-bit mixing/hash function.
constexpr std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit hash of a value (for height tiebreaks, block hashing).
constexpr std::uint64_t Mix64(std::uint64_t x) {
  std::uint64_t s = x;
  return SplitMix64(s);
}

/// xoshiro256** seeded via SplitMix64. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL) { Seed(seed); }

  void Seed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = SplitMix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return ~static_cast<result_type>(0);
  }

  result_type operator()() {
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

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t NextBounded(std::uint64_t bound) {
    SSHARD_CHECK(bound > 0);
    // Lemire-style rejection to remove modulo bias.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (-bound) % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t NextInRange(std::int64_t lo, std::int64_t hi) {
    SSHARD_CHECK(lo <= hi);
    const auto span =
        static_cast<std::uint64_t>(hi - lo) + 1;  // hi-lo < 2^63 in practice
    return lo + static_cast<std::int64_t>(NextBounded(span));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool NextBool(double p) { return NextDouble() < p; }

  /// Fisher-Yates shuffle of a span.
  template <typename T>
  void Shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = NextBounded(i);
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Sample `count` distinct values from [0, population) without
  /// replacement into `out` (replacing its contents), in draw order. Dense
  /// requests (population <= 4 * count or population <= 64) run a partial
  /// Fisher-Yates over `out` itself; sparse ones redraw on a repeat, found
  /// by a linear scan of `out` — every caller samples one transaction's
  /// accounts, so count is small. Allocates nothing once `out`'s capacity
  /// covers `population` (dense) or `count` (sparse).
  void SampleWithoutReplacement(std::uint64_t population, std::uint64_t count,
                                std::vector<std::uint64_t>& out);

  std::vector<std::uint64_t> SampleWithoutReplacement(std::uint64_t population,
                                                      std::uint64_t count) {
    std::vector<std::uint64_t> sample;
    SampleWithoutReplacement(population, count, sample);
    return sample;
  }

  /// Derive an independent child generator (for per-task determinism in
  /// threaded sweeps regardless of scheduling order).
  Rng Fork() {
    const std::uint64_t a = (*this)();
    const std::uint64_t b = (*this)();
    Rng child(a ^ Rotl(b, 31));
    return child;
  }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace stableshard
