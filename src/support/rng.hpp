// Deterministic pseudo-random number generation for the listrank90 library.
//
// All randomized algorithms in this library (random-mate coin flips, random
// sublist splitting positions, workload generation) draw from this engine so
// that every test, bench, and example is reproducible from a single seed.
//
// The generator is xoshiro256** seeded via splitmix64, which is fast,
// high-quality, and -- unlike std::mt19937 -- has a trivially portable state
// so results are identical across standard library implementations.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace lr90 {

/// Library-wide default seed. Every options struct that carries a seed
/// (EngineOptions, the workspace RNG) defaults to this one value so "same
/// program, no seed given" is reproducible across entry points.
inline constexpr std::uint64_t kDefaultSeed = 0x5eed5eedULL;

/// Splitmix64 step: used for seeding and as a cheap standalone mixer.
/// Advances `state` and returns the next 64-bit output.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** engine with convenience sampling helpers.
class Rng {
 public:
  /// Seeds the four 64-bit words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit output.
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound). Requires bound > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double uniform_real();

  /// Bernoulli trial: returns true with probability `p_true`.
  bool coin(double p_true = 0.5);

  /// Fills `out` with a uniformly random permutation of 0..out.size()-1
  /// (Fisher-Yates).
  void permutation(std::span<std::uint32_t> out);

  /// Draws `k` distinct values from [0, bound) in O(k) expected time
  /// (Floyd's algorithm). Result order is unspecified but deterministic.
  /// Requires k <= bound.
  std::vector<std::uint32_t> sample_distinct(std::uint32_t k,
                                             std::uint32_t bound);

  /// Splits off an independently-seeded child generator. Children of the
  /// same parent in the same order are reproducible.
  Rng split();

  /// True iff both generators are in the same state (will produce the
  /// same stream). Lets caches key on "the draws would repeat exactly"
  /// (core/workspace.hpp's packed-slab cache).
  friend bool operator==(const Rng& a, const Rng& b) {
    return a.s_[0] == b.s_[0] && a.s_[1] == b.s_[1] && a.s_[2] == b.s_[2] &&
           a.s_[3] == b.s_[3];
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace lr90
