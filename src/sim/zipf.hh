/**
 * @file
 * Zipf-distributed ranks by exact table inversion.
 *
 * The server workload's object-store model draws a rank per access
 * from the closed-form continuous-Zipf inverse
 *
 *   x(u) = (u * hn * (1 - s) + 1)^(1 / (1 - s)) - 1,   rank = min(x, n-1)
 *
 * (x(u) = exp(u * hn) - 1 for s = 1), evaluated at u = 1 - nextDouble().
 * That formula costs a pow per draw. ZipfSampler returns the same rank
 * for the same Rng draw without it: u lives on the lattice
 * j * 2^-53, j in [1, 2^53], and the rank is a step function of j, so
 * the sampler stores the first lattice point of every rank and inverts
 * with a guide table (Chen & Asau 1974).
 */

#ifndef PKTCHASE_SIM_ZIPF_HH
#define PKTCHASE_SIM_ZIPF_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"

namespace pktchase
{

/**
 * Zipf sampler over ranks [0, n) with exponent s.
 */
class ZipfSampler
{
  public:
    /** Lattice points u = j * 2^-53 run over j in [1, kOne]. */
    static constexpr std::uint64_t kOne = std::uint64_t(1) << 53;

    /**
     * Half-width, in lattice points, of the band around each rank
     * threshold inside which rankOf() re-evaluates the formula (see
     * zipf.cc for why the band is needed and why this width covers it).
     */
    static constexpr std::uint64_t kGuard = std::uint64_t(1) << 16;

    /** Build the tables for ranks [0, n); n must be in [1, 2^32). */
    ZipfSampler(std::uint64_t n, double s);

    /** One rank; consumes exactly one rng.next(), as nextDouble does. */
    std::uint64_t
    draw(Rng &rng) const
    {
        return rankOf(kOne - (rng.next() >> 11));
    }

    /** Rank at lattice point u = j * 2^-53, j in [1, kOne]. */
    std::uint64_t
    rankOf(std::uint64_t j) const
    {
        std::uint64_t k = guide_[j >> guideShift_];
        while (first_[k + 1] <= j)
            ++k;
        if (j - first_[k] < kGuard || first_[k + 1] - j <= kGuard)
            return formulaRank(j);
        return k;
    }

    /**
     * First lattice point whose rank is at least @p k, k in [1, n);
     * kOne + 1 when no u in (0, 1] reaches rank k.
     */
    std::uint64_t threshold(std::uint64_t k) const { return first_[k]; }

  private:
    std::uint64_t n_;
    double s_;
    double hn_;                        ///< The formula's normalizer.
    unsigned guideShift_;              ///< j >> guideShift_ = bucket.
    std::vector<std::uint64_t> first_; ///< n + 1: 0, thresholds, kOne + 1.
    std::vector<std::uint32_t> guide_; ///< Rank at each bucket's start.

    /** The closed-form rank of lattice point @p j. */
    std::uint64_t formulaRank(std::uint64_t j) const;
};

} // namespace pktchase

#endif // PKTCHASE_SIM_ZIPF_HH
