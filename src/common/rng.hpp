// Deterministic random number generation.
//
// Every stochastic component in pwx (simulator noise, k-fold shuffling,
// scenario sampling) takes an explicit 64-bit seed so that experiments are
// reproducible. We use xoshiro256** (Blackman & Vigna) seeded through
// splitmix64; it is fast, passes BigCrush, and is trivially forkable for
// parallel streams via jump().
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace pwx {

/// splitmix64 step; used to expand a single seed into generator state.
std::uint64_t splitmix64(std::uint64_t& state);

struct SinCos {
  double sin = 0.0;
  double cos = 0.0;
};

/// sin(2πu) and cos(2πu) for u in [0, 1], Box–Muller's angle. Uses + and *
/// alone, so the bits are the same on every host; both stay within 1e-15
/// (in tests, one ulp) of std::sin and std::cos of 2πu.
SinCos sincos_2pi(double u);

/// xoshiro256** pseudo-random generator. Satisfies UniformRandomBitGenerator.
class Rng {
public:
  using result_type = std::uint64_t;

  /// Construct from a 64-bit seed (expanded through splitmix64).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit value.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n) (n > 0).
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box–Muller (cached pair).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// The next out.size() (<= 64) normals of the stream, exactly as that many
  /// normal() calls would return them, written to out[i] for every bit i set
  /// in `wanted`; the other entries of `out` are unspecified. Draws the
  /// uniforms in stream order, then runs Box–Muller on the pairs that have a
  /// wanted half: a pair with neither half wanted costs two raw steps. A pair
  /// whose second half falls past the batch is always computed, and that half
  /// is cached for the next normal() or normals().
  void normals(std::span<double> out, std::uint64_t wanted);

  /// Shape of a log-normal with coefficient of variation cv:
  /// σ = sqrt(log(1 + cv²)) and σ²/2. Depends on cv only, so a caller that
  /// draws many variates with one cv computes it once.
  struct LognormalShape {
    double sigma = 0.0;
    double half_sigma2 = 0.0;
  };

  /// Shape for `cv` (cv >= 0). cv == 0, and any cv whose cv² vanishes
  /// next to 1 (cv < ~1e-8), gives σ == 0: a point mass.
  static LognormalShape lognormal_shape(double cv);

  /// Log-normal with mean `mean` (> 0) and the given shape. σ == 0 returns
  /// `mean` and consumes no normal from the stream.
  double lognormal(double mean, LognormalShape shape);

  /// Log-normal such that the *mean* of the distribution is `mean` and the
  /// coefficient of variation is `cv`. Handy for strictly positive noise.
  double lognormal_mean_cv(double mean, double cv);

  /// Fork an independent stream (equivalent to 2^128 steps of this stream).
  Rng fork();

  /// Fisher–Yates shuffle of indices [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace pwx
