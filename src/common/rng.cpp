#include "common/rng.hpp"

#include <bit>
#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace pwx {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

SinCos sincos_2pi(double u) {
  // Quadrant k = round(4u), taken exactly on u. The remainder t ∈ [−π/4, π/4]
  // comes from the rounded angle fl(2πu) that libm would be handed, less
  // k·π/2 in two parts; k·kPio2Hi and the first subtraction are exact. So t
  // tracks libm's own reduction to an ulp, and radius·sin stays within
  // 1e-15·max(1, |z|) of the libm Box–Muller. Reducing 4u − k instead would
  // drop the angle's rounding (up to 4.4e-16), which the radius multiplies
  // past that bound.
  constexpr double kPio2Hi = 1.57079632673412561417e+00;  // π/2 to 33 bits
  constexpr double kPio2Lo = 6.07710050650619224932e-11;  // π/2 − kPio2Hi
  const int k = static_cast<int>(4.0 * u + 0.5);
  const double t = (2.0 * std::numbers::pi * u - k * kPio2Hi) - k * kPio2Lo;
  const double z = t * t;
  // Taylor polynomials through t^17 and t^16: truncation below 1e-17.
  const double s =
      t + t * z *
              (-1.0 / 6 +
               z * (1.0 / 120 +
                    z * (-1.0 / 5040 +
                         z * (1.0 / 362880 +
                              z * (-1.0 / 39916800 +
                                   z * (1.0 / 6227020800 +
                                        z * (-1.0 / 1307674368000 +
                                             z * (1.0 / 355687428096000))))))));
  const double c =
      1.0 + z * (-0.5 +
                 z * (1.0 / 24 +
                      z * (-1.0 / 720 +
                           z * (1.0 / 40320 +
                                z * (-1.0 / 3628800 +
                                     z * (1.0 / 479001600 +
                                          z * (-1.0 / 87178291200 +
                                               z * (1.0 / 20922789888000))))))));
  // Quadrant fix-up on the bits, because a random quadrant mispredicts a
  // switch: odd k swaps sin and cos, k = 2, 3 negate sin, k = 1, 2 negate cos.
  const auto sb = std::bit_cast<std::uint64_t>(s);
  const auto cb = std::bit_cast<std::uint64_t>(c);
  const std::uint64_t swap = 0 - static_cast<std::uint64_t>(k & 1);
  const std::uint64_t sin_sign = static_cast<std::uint64_t>(k & 2) << 62;
  const std::uint64_t cos_sign = static_cast<std::uint64_t>((k + 1) & 2) << 62;
  return {std::bit_cast<double>(((sb & ~swap) | (cb & swap)) ^ sin_sign),
          std::bit_cast<double>(((cb & ~swap) | (sb & swap)) ^ cos_sign)};
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

struct NormalPair {
  double first = 0.0;
  double second = 0.0;
};

/// Box–Muller on u1 in (0, 1] and u2 in [0, 1): the one place both halves of
/// every pair are computed, so all entry points return the same bits.
inline NormalPair box_muller(double u1, double u2) {
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const SinCos angle = sincos_2pi(u2);
  return {radius * angle.cos, radius * angle.sin};
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = splitmix64(sm);
  }
}

Rng::result_type Rng::operator()() {
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

double Rng::uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  PWX_REQUIRE(n > 0, "uniform_index needs n > 0");
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) {
      return r % n;
    }
  }
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // u1 in (0,1] keeps the log finite.
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const NormalPair z = box_muller(u1, u2);
  cached_normal_ = z.second;
  has_cached_normal_ = true;
  return z.first;
}

void Rng::normals(std::span<double> out, std::uint64_t wanted) {
  const std::size_t n = out.size();
  PWX_REQUIRE(n <= 64, "normals draws at most 64 at once, got ", n);
  std::size_t i = 0;
  if (n > 0 && has_cached_normal_) {
    out[0] = cached_normal_;
    has_cached_normal_ = false;
    i = 1;
  }
  // Uniforms in stream order; only pairs with a wanted half keep theirs.
  std::array<double, 32> u1;
  std::array<double, 32> u2;
  std::array<std::size_t, 32> at;
  std::size_t pairs = 0;
  for (; i + 1 < n; i += 2) {
    if (((wanted >> i) & 3) == 0) {
      (*this)();
      (*this)();
      continue;
    }
    u1[pairs] = 1.0 - uniform();
    u2[pairs] = uniform();
    at[pairs++] = i;
  }
  if (i < n) {
    // The last pair straddles the batch: its second half is the stream's next,
    // so the pair is computed whether or not its first half is wanted.
    const double last_u1 = 1.0 - uniform();
    const double last_u2 = uniform();
    const NormalPair z = box_muller(last_u1, last_u2);
    out[i] = z.first;
    cached_normal_ = z.second;
    has_cached_normal_ = true;
  }
  for (std::size_t p = 0; p < pairs; ++p) {
    const NormalPair z = box_muller(u1[p], u2[p]);
    out[at[p]] = z.first;
    out[at[p] + 1] = z.second;
  }
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

Rng::LognormalShape Rng::lognormal_shape(double cv) {
  PWX_REQUIRE(cv >= 0.0, "lognormal needs cv >= 0, got cv=", cv);
  const double sigma2 = std::log(1.0 + cv * cv);
  return {std::sqrt(sigma2), 0.5 * sigma2};
}

double Rng::lognormal(double mean, LognormalShape shape) {
  PWX_REQUIRE(mean > 0.0, "lognormal needs mean > 0, got mean=", mean);
  if (shape.sigma == 0.0) {
    return mean;
  }
  return mean * std::exp(shape.sigma * normal() - shape.half_sigma2);
}

double Rng::lognormal_mean_cv(double mean, double cv) {
  return lognormal(mean, lognormal_shape(cv));
}

Rng Rng::fork() {
  // The xoshiro256** jump polynomial advances the stream by 2^128 steps.
  static constexpr std::array<std::uint64_t, 4> kJump = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  Rng child = *this;  // child takes the current stream position ...
  std::array<std::uint64_t, 4> acc{};
  for (const std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ULL << bit)) {
        for (std::size_t i = 0; i < 4; ++i) {
          acc[i] ^= s_[i];
        }
      }
      (*this)();
    }
  }
  s_ = acc;  // ... and the parent jumps ahead, so the streams never overlap.
  child.has_cached_normal_ = false;
  return child;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) {
    idx[i] = i;
  }
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = uniform_index(i);
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

}  // namespace pwx
