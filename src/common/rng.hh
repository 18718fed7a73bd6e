/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis and
 * randomized placement policies.
 *
 * A SplitMix64 seeder feeding xoshiro256** state; small, fast, and
 * reproducible across platforms (unlike std::mt19937 distributions, whose
 * outputs are implementation-defined for some distribution types).
 */

#ifndef SILC_COMMON_RNG_HH
#define SILC_COMMON_RNG_HH

#include <array>
#include <cmath>
#include <cstdint>

#include "common/logging.hh"

namespace silc {

/** xoshiro256** PRNG with SplitMix64 seeding. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (default: a fixed project seed). */
    explicit Rng(uint64_t seed = 0x51CF00D5EEDULL) { reseed(seed); }

    /** Re-initialise the state from @p seed. */
    void
    reseed(uint64_t seed)
    {
        uint64_t x = seed;
        for (auto &word : s_)
            word = splitmix64(x);
    }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    uint64_t
    below(uint64_t bound)
    {
        silc_assert(bound > 0);
        // Lemire's multiply-shift rejection-free approximation is fine for
        // simulation purposes; use 128-bit multiply for unbiased-enough
        // mapping.
        return static_cast<uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    uint64_t
    between(uint64_t lo, uint64_t hi)
    {
        silc_assert(lo <= hi);
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * The integer form of probability @p p for chanceBelow(): uniform()
     * is k * 2^-53 for k = next() >> 11, so uniform() < p exactly when
     * k < ceil(p * 2^53).  0 for p <= 0 (or NaN), 2^53 for p >= 1.
     */
    static uint64_t
    threshold(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return uint64_t(1) << 53;
        return static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
    }

    /** chance(p) for @p t = threshold(p): the same draw and outcome,
     *  without the conversion to double. */
    bool
    chanceBelow(uint64_t t)
    {
        return (next() >> 11) < t;
    }

    /** The raw xoshiro256** state, for checkpoint serialization. */
    std::array<uint64_t, 4>
    state() const
    {
        return {s_[0], s_[1], s_[2], s_[3]};
    }

    /** Restore state captured by state(). */
    void
    setState(const std::array<uint64_t, 4> &s)
    {
        for (int i = 0; i < 4; ++i)
            s_[i] = s[i];
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    static uint64_t
    splitmix64(uint64_t &state)
    {
        uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

    uint64_t s_[4];
};

/**
 * Zipfian sampler over [0, n): rank r is drawn with probability
 * proportional to 1 / (r+1)^alpha.  Used to model skewed page popularity
 * (hot working sets) in the synthetic SPEC-like workloads.
 *
 * Uses the rejection-inversion method of Hormann & Derflinger, which is
 * O(1) per sample and exact for alpha != 1 as well.
 */
class ZipfSampler
{
  public:
    /**
     * @param n     number of items (> 0)
     * @param alpha skew (0 = uniform; typical hot-page skew 0.6 - 1.2)
     */
    ZipfSampler(uint64_t n, double alpha)
        : n_(n), alpha_(alpha)
    {
        silc_assert(n > 0);
        silc_assert(alpha >= 0.0);
        hxm_ = h(static_cast<double>(n) + 0.5);
        const double h0 = h(0.5);
        hx0_minus_hxm_ = h0 - hxm_;
        s_ = 2.0 - hInv(h(2.5) - pow1(2.0));
    }

    /** Draw a rank in [0, n) using entropy from @p rng. */
    uint64_t
    sample(Rng &rng)
    {
        if (alpha_ == 0.0)
            return rng.below(n_);
        while (true) {
            const double u = hxm_ + rng.uniform() * hx0_minus_hxm_;
            const double x = hInv(u);
            double k = std::floor(x + 0.5);
            if (k < 1.0)
                k = 1.0;
            else if (k > static_cast<double>(n_))
                k = static_cast<double>(n_);
            if (k - x <= s_ || u >= h(k + 0.5) - pow1(k)) {
                return static_cast<uint64_t>(k) - 1;
            }
        }
    }

    uint64_t items() const { return n_; }
    double alpha() const { return alpha_; }

  private:
    // H(x) = integral of 1/x^alpha
    double
    h(double x) const
    {
        if (alpha_ == 1.0)
            return std::log(x);
        return (std::pow(x, 1.0 - alpha_) - 1.0) / (1.0 - alpha_);
    }

    double
    hInv(double x) const
    {
        if (alpha_ == 1.0)
            return std::exp(x);
        return std::pow(1.0 + x * (1.0 - alpha_), 1.0 / (1.0 - alpha_));
    }

    double
    pow1(double x) const
    {
        return std::pow(x, -alpha_);
    }

    uint64_t n_;
    double alpha_;
    double hxm_;
    double hx0_minus_hxm_;
    double s_;
};

} // namespace silc

#endif // SILC_COMMON_RNG_HH
