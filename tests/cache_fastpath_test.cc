/**
 * @file
 * The memory model's fast paths against test-local copies of the code
 * they replaced: timedRead's libm-free noise rounding against the
 * Rng::nextGaussian + nextBool expression, timedWalk's keyed,
 * draw-ahead walk against per-address timedRead, the noiseless
 * hierarchy's draw-free latencies, and 32-bit LRU stamps against
 * 64-bit ones across the clock wrap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "cache/hierarchy.hh"
#include "cache/injection_policy.hh"
#include "cache/replacement.hh"
#include "llc_test_util.hh"

using namespace pktchase;
using namespace pktchase::cache;
using llctest::HashingTelemetry;

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

/** A 2-slice LLC small enough that the walks below conflict in it. */
Hierarchy
makeWalker(double sigma, bool adaptive, double outlier_prob)
{
    LlcConfig llc;
    llc.geom = Geometry{2, 32, 4};
    HierarchyConfig cfg;
    cfg.timerNoiseSigma = sigma;
    cfg.outlierProb = outlier_prob;
    cfg.seed = 23;
    std::unique_ptr<InjectionPolicy> policy;
    if (adaptive)
        policy = std::make_unique<AdaptivePartitionPolicy>();
    return Hierarchy(llc, cfg,
                     std::make_unique<IdentitySliceHash>(2, 11),
                     std::move(policy));
}

void
expectSameStats(const LlcStats &a, const LlcStats &b)
{
    EXPECT_EQ(a.cpuReads, b.cpuReads);
    EXPECT_EQ(a.cpuReadMisses, b.cpuReadMisses);
    EXPECT_EQ(a.cpuWrites, b.cpuWrites);
    EXPECT_EQ(a.cpuWriteMisses, b.cpuWriteMisses);
    EXPECT_EQ(a.ioWrites, b.ioWrites);
    EXPECT_EQ(a.ioWriteHits, b.ioWriteHits);
    EXPECT_EQ(a.ioAllocations, b.ioAllocations);
    EXPECT_EQ(a.cpuEvictedByCpu, b.cpuEvictedByCpu);
    EXPECT_EQ(a.cpuEvictedByIo, b.cpuEvictedByIo);
    EXPECT_EQ(a.ioEvictedByCpu, b.ioEvictedByCpu);
    EXPECT_EQ(a.ioEvictedByIo, b.ioEvictedByIo);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.memReads, b.memReads);
    EXPECT_EQ(a.invalidations, b.invalidations);
    EXPECT_EQ(a.partitionAdaptations, b.partitionAdaptations);
    EXPECT_EQ(a.partitionInvalidations, b.partitionInvalidations);
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

struct WalkCase
{
    double sigma;
    bool adaptive;
    double outlierProb = 0.01; ///< 0 with sigma 0: a noiseless walk.
};

class TimedWalkTwin : public ::testing::TestWithParam<WalkCase>
{
};

TEST_P(TimedWalkTwin, MatchesPerAddressTimedRead)
{
    const WalkCase wc = GetParam();
    Hierarchy reads = makeWalker(wc.sigma, wc.adaptive, wc.outlierProb);
    Hierarchy walks = makeWalker(wc.sigma, wc.adaptive, wc.outlierProb);
    HashingTelemetry reads_telem;
    HashingTelemetry walks_telem;
    reads.llc().attachTelemetry(&reads_telem);
    walks.llc().attachTelemetry(&walks_telem);

    constexpr std::size_t chunk = Hierarchy::kWalkChunk;
    // Empty, single, around one chunk, and odd lengths, so a
    // Box-Muller pair straddles two walks.
    const std::size_t lengths[] = {0, 1, chunk - 1, chunk, chunk + 1,
                                   3, 2 * chunk + 1, 7, 0, 1, 5};
    const Cycles threshold = 130;
    Rng addrs(5);
    Cycles t = 0;
    for (int round = 0; round < 400; ++round) {
        for (const std::size_t n : lengths) {
            // 640 blocks over a 256-line cache: hits and misses.
            std::vector<Addr> lines(n);
            std::vector<LineKey> keys(n);
            for (std::size_t i = 0; i < n; ++i) {
                lines[i] = addrs.nextBounded(640) * blockBytes;
                keys[i] = walks.llc().lineKey(lines[i]);
            }
            Cycles t_reads = t;
            unsigned reads_misses = 0;
            for (const Addr a : lines) {
                const Cycles lat = reads.timedRead(a, t_reads);
                t_reads += lat;
                if (lat > threshold)
                    ++reads_misses;
            }
            unsigned walks_misses = 0;
            const Cycles t_walks = walks.timedWalk(keys.data(), n, t,
                                                   threshold, walks_misses);
            ASSERT_EQ(t_walks, t_reads)
                << "round " << round << " length " << n;
            ASSERT_EQ(walks_misses, reads_misses)
                << "round " << round << " length " << n;
            // DMA between walks: I/O lines for the walks to displace.
            const Addr dma = addrs.nextBounded(640) * blockBytes;
            reads.dmaWrite(dma, 2 * blockBytes, t_reads);
            walks.dmaWrite(dma, 2 * blockBytes, t_walks);
            t = t_walks + 1;
        }
    }

    expectSameStats(walks.llc().stats(), reads.llc().stats());
    EXPECT_GT(reads.llc().stats().cpuReadMisses, 0u);
    EXPECT_GT(reads.llc().stats().cpuReads,
              reads.llc().stats().cpuReadMisses);
    EXPECT_EQ(walks.noiseFallbacks(), reads.noiseFallbacks());
    EXPECT_EQ(walks_telem.events, reads_telem.events);
    EXPECT_EQ(walks_telem.hash, reads_telem.hash);
    Rng walks_rng = walks.noiseRng();
    Rng reads_rng = reads.noiseRng();
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(walks_rng.next(), reads_rng.next());
    if (wc.sigma == 64.0) {
        // The walk's guard band reached the exact transform.
        EXPECT_GT(walks.noiseFallbacks(), 0u);
    }
    if (wc.adaptive) {
        EXPECT_GT(reads.llc().stats().partitionAdaptations, 0u);
    }
}

// sigma = 2^20 widens the guard band past 1/4: every read takes the
// exact transform.
INSTANTIATE_TEST_SUITE_P(
    Sigmas, TimedWalkTwin,
    ::testing::Values(WalkCase{0.0, false}, WalkCase{4.0, false},
                      WalkCase{64.0, false}, WalkCase{0x1p20, false},
                      WalkCase{0.0, true}, WalkCase{4.0, true},
                      WalkCase{64.0, true}, WalkCase{0x1p20, true}));

// sigma = 0 and outlierProb = 0: both sides skip the noise generator.
INSTANTIATE_TEST_SUITE_P(
    Noiseless, TimedWalkTwin,
    ::testing::Values(WalkCase{0.0, false, 0.0}, WalkCase{0.0, true, 0.0}));

TEST(TimedRead, NoiselessReturnsBaseLatencyAndDrawsNothing)
{
    // A zero hit latency shows the clamp to 1 cycle.
    for (const Cycles hit_lat : {Cycles{44}, Cycles{0}}) {
        LlcConfig llc;
        llc.geom = Geometry{1, 64, 4};
        HierarchyConfig cfg;
        cfg.llcHitLatency = hit_lat;
        cfg.timerNoiseSigma = 0.0;
        cfg.outlierProb = 0.0;
        cfg.seed = 29;
        Hierarchy h(llc, cfg, std::make_unique<IdentitySliceHash>(1, 0));
        const Cycles want_hit = std::max<Cycles>(hit_lat, 1);
        const Cycles want_miss = cfg.dramLatency;

        Rng addrs(7);
        Cycles t = 0;
        unsigned hits = 0;
        for (int i = 0; i < 20000; ++i) {
            const Addr paddr = addrs.nextBounded(512) * blockBytes;
            const bool hit = h.llc().contains(paddr);
            hits += hit;
            ASSERT_EQ(h.timedRead(paddr, t), hit ? want_hit : want_miss)
                << "read " << i;
            ++t;
        }
        EXPECT_GT(hits, 0u);
        // Walks: each read costs exactly its hit or miss latency.
        for (int round = 0; round < 200; ++round) {
            std::vector<LineKey> keys(Hierarchy::kWalkChunk + 3);
            for (LineKey &key : keys)
                key = h.llc().lineKey(addrs.nextBounded(512) * blockBytes);
            const LlcStats before = h.llc().stats();
            unsigned misses = 0;
            const Cycles end =
                h.timedWalk(keys.data(), keys.size(), t, want_hit, misses);
            const LlcStats &after = h.llc().stats();
            const std::uint64_t walk_misses =
                after.cpuReadMisses - before.cpuReadMisses;
            ASSERT_EQ(after.cpuReads - before.cpuReads, keys.size());
            ASSERT_EQ(misses, walk_misses) << "round " << round;
            ASSERT_EQ(end - t, (keys.size() - walk_misses) * want_hit +
                                   walk_misses * want_miss)
                << "round " << round;
            t = end;
        }
        EXPECT_EQ(h.noiseFallbacks(), 0u);
        Rng seeded(cfg.seed);
        Rng mine = h.noiseRng();
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(mine.next(), seeded.next());
    }
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
