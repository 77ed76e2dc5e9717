/**
 * @file
 * The memory model's fast paths against test-local copies of the code
 * they replaced: timedRead's libm-free noise rounding against the
 * Rng::nextGaussian + nextBool expression, and 32-bit LRU stamps
 * against 64-bit ones across the clock wrap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "cache/hierarchy.hh"
#include "cache/replacement.hh"

using namespace pktchase;
using namespace pktchase::cache;

namespace
{

Hierarchy
makeNoisy(double sigma, double outlier_prob, std::uint64_t seed)
{
    LlcConfig llc;
    llc.geom = Geometry{1, 64, 4};
    HierarchyConfig cfg;
    cfg.timerNoiseSigma = sigma;
    cfg.outlierProb = outlier_prob;
    cfg.seed = seed;
    return Hierarchy(llc, cfg, std::make_unique<IdentitySliceHash>(1, 0));
}

/** timedRead's latency as it was computed before the fast path. */
Cycles
referenceLatency(Rng &rng, const HierarchyConfig &cfg, bool hit)
{
    double lat = hit ? static_cast<double>(cfg.llcHitLatency)
                     : static_cast<double>(cfg.dramLatency);
    lat += rng.nextGaussian(0.0, cfg.timerNoiseSigma);
    if (rng.nextBool(cfg.outlierProb))
        lat += static_cast<double>(cfg.outlierCycles);
    lat = std::max(lat, 1.0);
    return static_cast<Cycles>(lat);
}

/** The 64-bit-stamp LRU the 32-bit one replaced. */
class ReferenceLru
{
  public:
    ReferenceLru(std::size_t sets, unsigned ways)
        : ways_(ways), stamps_(sets * ways, 0)
    {
    }

    void touch(std::size_t set, unsigned way)
    {
        stamps_[set * ways_ + way] = clock_++;
    }

    unsigned
    victim(std::size_t set, WayMask mask) const
    {
        unsigned best_way = 0;
        std::uint64_t best_stamp = ~0ull;
        for (unsigned w = 0; w < ways_; ++w) {
            const std::uint64_t s = stamps_[set * ways_ + w];
            if ((mask & (WayMask(1) << w)) && s < best_stamp) {
                best_stamp = s;
                best_way = w;
            }
        }
        return best_way;
    }

    void reset(std::size_t set, unsigned way)
    {
        stamps_[set * ways_ + way] = 0;
    }

  private:
    unsigned ways_;
    std::uint64_t clock_ = 1;
    std::vector<std::uint64_t> stamps_;
};

} // namespace

class TimedReadNoise : public ::testing::TestWithParam<double>
{
};

TEST_P(TimedReadNoise, MatchesLibmReference)
{
    const double sigma = GetParam();
    Hierarchy h = makeNoisy(sigma, 0.01, 11);
    Rng ref(h.config().seed);
    Rng addrs(3);
    // 512 blocks over a 256-line cache: a mix of hits and misses.
    for (int i = 0; i < 10000000; ++i) {
        const Addr paddr = addrs.nextBounded(512) * blockBytes;
        const bool hit = h.llc().contains(paddr);
        const Cycles want = referenceLatency(ref, h.config(), hit);
        ASSERT_EQ(h.timedRead(paddr, static_cast<Cycles>(i)), want)
            << "read " << i << " sigma " << sigma;
    }
    // Same draws, same order: the generators end in the same state.
    Rng mine = h.noiseRng();
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(mine.next(), ref.next());
    if (sigma == 0.0) {
        EXPECT_EQ(h.noiseFallbacks(), 0u);
    }
    if (sigma >= 64.0) {
        // Wide noise lands in the guard band hundreds of times.
        EXPECT_GT(h.noiseFallbacks(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Sigmas, TimedReadNoise,
                         ::testing::Values(0.0, 0.5, 4.0, 64.0));

TEST(TimedRead, GuardBandTakesExactTransform)
{
    // Pick sigma so the first read's exact noise is 5 cycles to within
    // an ulp: the approximate latency then sits on an integer, inside
    // the guard band, and only the libm transform can round it.
    const std::uint64_t seed = 19;
    Rng probe(seed);
    double u1 = 0.0;
    do {
        u1 = probe.nextDouble();
    } while (u1 <= 0.0);
    const double u2 = probe.nextDouble();
    const double g = Rng::boxMuller(u1, u2).first;
    ASSERT_GT(std::fabs(g), 0.1);
    const double sigma = 5.0 / g;

    Hierarchy h = makeNoisy(sigma, 0.0, seed);
    Rng ref(seed);
    const Cycles first = h.timedRead(0x1000, 0);
    EXPECT_EQ(first, referenceLatency(ref, h.config(), false));
    EXPECT_EQ(h.noiseFallbacks(), 1u);
    EXPECT_EQ(h.timedRead(0x1000, 1),
              referenceLatency(ref, h.config(), true));
}

TEST(Lru, VictimsMatchU64StampsAcrossClockWrap)
{
    constexpr std::size_t sets = 4;
    constexpr unsigned ways = 20;
    constexpr std::uint32_t start = 0xFFFFFFFFu - 3000;
    LruPolicy lru(sets, ways, start);
    ReferenceLru ref(sets, ways);
    Rng rng(77);
    std::uint64_t touches = 0;
    for (int i = 0; i < 20000; ++i) {
        const std::size_t set = rng.nextBounded(sets);
        const auto way = static_cast<unsigned>(rng.nextBounded(ways));
        const std::uint64_t op = rng.nextBounded(10);
        if (op < 6) {
            lru.touch(set, way);
            ref.touch(set, way);
            ++touches;
        } else if (op < 7) {
            lru.reset(set, way);
            ref.reset(set, way);
        } else {
            auto mask = static_cast<WayMask>(rng.nextBounded(1u << ways));
            if (mask == 0)
                mask = WayMask(1) << way;
            ASSERT_EQ(lru.victim(set, mask), ref.victim(set, mask))
                << "op " << i << " after " << touches << " touches";
        }
    }
    ASSERT_GT(touches, 0xFFFFFFFFu - start) << "never crossed the wrap";
}

TEST(Lru, WrapKeepsNeverUsedWayOldest)
{
    // Way 3 is never used and way 0 is the oldest live line when the
    // third touch wraps the clock; every mask must pick as before.
    LruPolicy lru(1, 4, 0xFFFFFFFFu - 3);
    ReferenceLru ref(1, 4);
    for (const unsigned w : {0u, 1u, 2u}) {
        lru.touch(0, w);
        ref.touch(0, w);
    }
    for (WayMask mask = 1; mask < 16; ++mask)
        EXPECT_EQ(lru.victim(0, mask), ref.victim(0, mask))
            << "mask " << mask;
}
