/**
 * @file
 * Tests for the PRIME+PROBE monitor primitives.
 */

#include <gtest/gtest.h>

#include "attack/prime_probe.hh"
#include "testbed/testbed.hh"

using namespace pktchase;
using namespace pktchase::attack;

namespace
{

struct Fixture : ::testing::Test
{
    testbed::Testbed tb{quietConfig()};

    static testbed::TestbedConfig
    quietConfig()
    {
        testbed::TestbedConfig cfg = testbed::TestbedConfig::reduced();
        cfg.hier.timerNoiseSigma = 0.0;
        cfg.hier.outlierProb = 0.0;
        return cfg;
    }

    PrimeProbeMonitor
    makeMonitor(std::vector<std::size_t> combos)
    {
        std::vector<EvictionSet> sets;
        for (std::size_t c : combos)
            sets.push_back(tb.groups().evictionSetFor(
                c, tb.config().llc.geom.ways));
        return PrimeProbeMonitor(tb.hier(), std::move(sets));
    }
};

} // namespace

TEST_F(Fixture, QuietAfterPrime)
{
    PrimeProbeMonitor mon = makeMonitor({0, 1, 2});
    mon.primeAll(0);
    const ProbeSample s = mon.probeAll(1000);
    for (auto a : s.active)
        EXPECT_EQ(a, 0);
}

TEST_F(Fixture, DetectsPlantedIoWrite)
{
    PrimeProbeMonitor mon = makeMonitor({0, 1, 2});
    mon.primeAll(0);
    mon.probeAll(1000);
    // A packet lands in a page of combo 1.
    const Addr page =
        tb.groups().groups[1][tb.config().llc.geom.ways + 2];
    tb.hier().dmaWrite(page, 64, 2000);
    const ProbeSample s = mon.probeAll(3000);
    EXPECT_EQ(s.active[0], 0);
    EXPECT_EQ(s.active[1], 1);
    EXPECT_EQ(s.active[2], 0);
}

TEST_F(Fixture, ActivityClearsAfterOneProbe)
{
    // Probing re-primes: the next round is quiet again.
    PrimeProbeMonitor mon = makeMonitor({1});
    mon.primeAll(0);
    tb.hier().dmaWrite(
        tb.groups().groups[1][tb.config().llc.geom.ways + 1], 64, 100);
    const ProbeSample hot = mon.probeAll(1000);
    EXPECT_EQ(hot.active[0], 1);
    const ProbeSample cold = mon.probeAll(5000);
    EXPECT_EQ(cold.active[0], 0);
}

TEST_F(Fixture, ProbeOneCountsMisses)
{
    PrimeProbeMonitor mon = makeMonitor({0});
    mon.primeAll(0);
    Cycles elapsed = 0;
    EXPECT_EQ(mon.probeOne(0, 1000, elapsed), 0u);
    tb.hier().dmaWrite(
        tb.groups().groups[0][tb.config().llc.geom.ways + 1], 64, 2000);
    EXPECT_GE(mon.probeOne(0, 3000, elapsed), 1u);
    EXPECT_GT(elapsed, 0u);
}

TEST_F(Fixture, ProbeTimeAccounted)
{
    PrimeProbeMonitor mon = makeMonitor({0, 1, 2, 3});
    mon.primeAll(0);
    const ProbeSample s = mon.probeAll(10000);
    // 4 sets x ways hits at >= hit latency each.
    const Cycles min_cost = 4 * tb.config().llc.geom.ways *
        tb.config().hier.llcHitLatency;
    EXPECT_GE(s.end - s.start, min_cost);
    EXPECT_EQ(s.start, 10000u);
}

TEST_F(Fixture, ReplaceSetSwitchesTarget)
{
    PrimeProbeMonitor mon = makeMonitor({0});
    mon.replaceSet(0, tb.groups()
                          .evictionSetFor(0, tb.config().llc.geom.ways)
                          .atBlock(1));
    mon.primeAll(0);
    mon.probeAll(1000);
    const Addr victim_page =
        tb.groups().groups[0][tb.config().llc.geom.ways + 1];
    // Packet touching only block 0 is now invisible...
    tb.hier().dmaWrite(victim_page, 64, 2000);
    EXPECT_EQ(mon.probeAll(3000).active[0], 0);
    // ...but one touching block 1 is seen.
    tb.hier().dmaWrite(victim_page + blockBytes, 64, 4000);
    EXPECT_EQ(mon.probeAll(5000).active[0], 1);
}

TEST_F(Fixture, TimedLoadsAccumulate)
{
    PrimeProbeMonitor mon = makeMonitor({0, 1});
    const std::uint64_t after_prime =
        2 * tb.config().llc.geom.ways;
    mon.primeAll(0);
    EXPECT_EQ(mon.timedLoads(), after_prime);
    mon.probeAll(1000);
    EXPECT_EQ(mon.timedLoads(), 2 * after_prime);
}

TEST_F(Fixture, DeathOnBadIndex)
{
    PrimeProbeMonitor mon = makeMonitor({0});
    Cycles elapsed = 0;
    EXPECT_DEATH(mon.probeOne(5, 0, elapsed), "range");
    EXPECT_DEATH(mon.replaceSet(5, EvictionSet{}), "range");
}

TEST_F(Fixture, ReplaceSetSplicesLongerAndShorterSets)
{
    const unsigned ways = tb.config().llc.geom.ways;
    PrimeProbeMonitor mon = makeMonitor({0, 1, 2});
    // Combo 1's blocks 0 and 1 (two LLC sets, 2 x ways lines), then
    // half an eviction set.
    EvictionSet longer = tb.groups().evictionSetFor(1, ways);
    const EvictionSet block1 = longer.atBlock(1);
    longer.addrs.insert(longer.addrs.end(), block1.addrs.begin(),
                        block1.addrs.end());
    const EvictionSet shorter = tb.groups().evictionSetFor(1, ways / 2);

    // A fresh victim page in combo 2 for every DMA write below.
    const std::vector<Addr> &victims = tb.groups().groups[2];
    ASSERT_GE(victims.size(), ways + 4u);
    std::size_t victim = ways;

    Cycles t = 0;
    for (const EvictionSet &es : {longer, shorter}) {
        const std::uint64_t loads = mon.timedLoads();
        mon.replaceSet(1, es);
        EXPECT_EQ(mon.size(), 3u);
        EXPECT_EQ(mon.timedLoads(), loads);

        // Sets 0 and 2 have ways lines each.
        const std::uint64_t total = 2 * ways + es.addrs.size();
        t += mon.primeAll(t) + 1000;
        EXPECT_EQ(mon.timedLoads(), loads + total);
        const ProbeSample &quiet = mon.probeAll(t);
        t = quiet.end + 1000;
        for (const auto a : quiet.active)
            EXPECT_EQ(a, 0);

        // A packet in combo 2, the set after the spliced one, shows
        // up there and nowhere else.
        tb.hier().dmaWrite(victims[victim++], 64, t);
        const ProbeSample &hot = mon.probeAll(t + 1000);
        t = hot.end + 1000;
        EXPECT_EQ(hot.active[0], 0);
        EXPECT_EQ(hot.active[1], 0);
        EXPECT_EQ(hot.active[2], 1);

        tb.hier().dmaWrite(victims[victim++], 64, t);
        Cycles elapsed = 0;
        EXPECT_EQ(mon.probeOne(0, t + 1000, elapsed), 0u);
        t += 1000 + elapsed;
        EXPECT_GE(mon.probeOne(2, t, elapsed), 1u);
        t += elapsed;
        EXPECT_EQ(mon.probeOne(1, t, elapsed), 0u);
        t += elapsed;
        // One prime, two rounds, and each set probed once more.
        EXPECT_EQ(mon.timedLoads(), loads + 4 * total);
    }
}

TEST_F(Fixture, DeathOnTagTooWideForKeys)
{
    // A tag of 32 or more bits has no LineKey: the monitor rejects it
    // when it derives the keys, not on some later read.
    const cache::Geometry &g = tb.config().llc.geom;
    const Addr wide = Addr{0xffffffffu} << (blockShift + g.indexBits());
    EXPECT_DEATH(PrimeProbeMonitor(tb.hier(), {EvictionSet{{wide}}}),
                 "32 or more bits");
    PrimeProbeMonitor mon = makeMonitor({0});
    EXPECT_DEATH(mon.replaceSet(0, EvictionSet{{0x1000, wide}}),
                 "32 or more bits");
}
