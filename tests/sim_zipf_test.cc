/**
 * @file
 * ZipfSampler against the closed-form rank it replaces: identical
 * ranks at every table threshold, around every guard band and on
 * random draws, and identical Rng consumption.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/zipf.hh"

using namespace pktchase;

namespace
{

/** The server model's original per-draw rank formula. */
std::uint64_t
referenceRank(double u, std::uint64_t n, double s)
{
    double x = 0.0;
    if (s == 1.0) {
        const double hn = std::log(static_cast<double>(n) + 1.0);
        x = std::exp(u * hn) - 1.0;
    } else {
        const double oneMinusS = 1.0 - s;
        const double hn =
            (std::pow(static_cast<double>(n) + 1.0, oneMinusS) - 1.0) /
            oneMinusS;
        x = std::pow(u * hn * oneMinusS + 1.0, 1.0 / oneMinusS) - 1.0;
    }
    return std::min(static_cast<std::uint64_t>(x), n - 1);
}

std::uint64_t
referenceAt(std::uint64_t j, std::uint64_t n, double s)
{
    return referenceRank(static_cast<double>(j) * 0x1.0p-53, n, s);
}

struct ZipfParams
{
    std::uint64_t n;
    double s;
};

const ZipfParams kParams[] = {
    {4800, 0.6}, {1000, 0.6}, {1000, 1.0}, {7, 0.99}, {1, 0.6},
};

} // namespace

TEST(ZipfSampler, InRangeAndSkewed)
{
    const ZipfSampler zipf(1000, 1.0);
    Rng rng(29);
    std::vector<unsigned> counts(1000, 0);
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t k = zipf.draw(rng);
        ASSERT_LT(k, 1000u);
        ++counts[k];
    }
    // Rank 0 must dominate the tail under any Zipf-like law.
    EXPECT_GT(counts[0], counts[999] * 5);
    EXPECT_GT(counts[0], counts[100]);
}

TEST(ZipfSampler, MatchesFormulaAtEveryThresholdAndBandEdge)
{
    constexpr std::uint64_t kOne = ZipfSampler::kOne;
    constexpr std::uint64_t kGuard = ZipfSampler::kGuard;
    for (const ZipfParams &p : kParams) {
        const ZipfSampler zipf(p.n, p.s);
        std::uint64_t reached = 0;
        for (std::uint64_t k = 1; k < p.n; ++k) {
            const std::uint64_t t = zipf.threshold(k);
            if (t > kOne) {
                // Unreachable ranks: the formula tops out below k.
                EXPECT_LT(referenceAt(kOne, p.n, p.s), k);
                continue;
            }
            ++reached;
            // The threshold is the formula's first lattice point at k.
            ASSERT_GE(referenceAt(t, p.n, p.s), k) << "n=" << p.n;
            if (t > 1) {
                ASSERT_LT(referenceAt(t - 1, p.n, p.s), k) << "n=" << p.n;
            }
            // The threshold, j - 1, and both sides of both band edges.
            for (const std::int64_t d :
                 {std::int64_t(0), std::int64_t(-1),
                  -std::int64_t(kGuard) - 1, -std::int64_t(kGuard),
                  std::int64_t(kGuard) - 1, std::int64_t(kGuard)}) {
                const std::int64_t j = static_cast<std::int64_t>(t) + d;
                if (j < 1 || j > static_cast<std::int64_t>(kOne))
                    continue;
                const auto uj = static_cast<std::uint64_t>(j);
                ASSERT_EQ(zipf.rankOf(uj), referenceAt(uj, p.n, p.s))
                    << "n=" << p.n << " s=" << p.s << " k=" << k
                    << " j=threshold" << (d < 0 ? "" : "+") << d;
            }
        }
        // Rank n-1 is reached at u = 1 for every parameter set here.
        EXPECT_EQ(reached, p.n - 1) << "n=" << p.n << " s=" << p.s;
        EXPECT_EQ(zipf.rankOf(1), referenceAt(1, p.n, p.s));
        EXPECT_EQ(zipf.rankOf(kOne), referenceAt(kOne, p.n, p.s));
    }
}

TEST(ZipfSampler, MatchesFormulaOnRandomDraws)
{
    // A twin stream feeds the formula the same u = 1 - nextDouble()
    // the sampler consumed, so any extra or missing draw desyncs them.
    for (const ZipfParams &p : kParams) {
        const ZipfSampler zipf(p.n, p.s);
        Rng rng(41);
        Rng twin(41);
        for (int i = 0; i < 1000000; ++i) {
            const double u = 1.0 - twin.nextDouble();
            ASSERT_EQ(zipf.draw(rng), referenceRank(u, p.n, p.s))
                << "draw " << i << " n=" << p.n << " s=" << p.s;
        }
        EXPECT_EQ(rng.next(), twin.next());
    }
}

TEST(ZipfSamplerDeath, ZeroRanksFatal)
{
    EXPECT_EXIT(ZipfSampler(0, 0.6), ::testing::ExitedWithCode(1),
                "ZipfSampler: n must be");
}
