/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * Every stochastic component draws from an explicitly seeded Rng so that
 * experiments are reproducible run-to-run; there is no global generator.
 * The core is xoshiro256**, which is fast and has no observable bias for
 * our use cases (set selection, jitter, noise injection).
 */

#ifndef PKTCHASE_SIM_RNG_HH
#define PKTCHASE_SIM_RNG_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace pktchase
{

/**
 * Seedable xoshiro256** generator with distribution helpers.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
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

    /**
     * Uniform integer in [0, bound); bound must be nonzero. Inline, so
     * a constant power-of-two bound folds to a mask of next().
     */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        if (bound == 0)
            panicZeroBound();
        // Rejection sampling to remove modulo bias.
        const std::uint64_t threshold = -bound % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in the closed interval [lo, hi]. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble() { return (next() >> 11) * 0x1.0p-53; }

    /** Bernoulli trial: true with probability p. */
    bool nextBool(double p = 0.5) { return nextDouble() < p; }

    /** Standard normal variate (Box-Muller with caching). */
    double nextGaussian();

    /** The two variates Box-Muller makes from one uniform pair. */
    struct GaussianPair
    {
        double first;  ///< mag * cos(2 pi u2): nextGaussian returns it.
        double second; ///< mag * sin(2 pi u2): the cached one.
    };

    /**
     * The Box-Muller transform nextGaussian applies to its uniforms
     * u1 in (0, 1) and u2 in [0, 1). Callers that draw the uniforms
     * themselves get nextGaussian's variates bit for bit from it.
     */
    static GaussianPair boxMuller(double u1, double u2);

    /** Normal variate with the given mean and standard deviation. */
    double nextGaussian(double mean, double sigma);

    /** Exponential variate with the given rate (lambda). */
    double nextExponential(double lambda);

    /** Fisher-Yates shuffle of a vector in place. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = nextBounded(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Split off an independent child generator (for sub-components). */
    Rng split();

  private:
    [[noreturn]] static void panicZeroBound();

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
    bool hasCachedGaussian_ = false;
    double cachedGaussian_ = 0.0;
};

} // namespace pktchase

#endif // PKTCHASE_SIM_RNG_HH
