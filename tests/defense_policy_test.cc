/**
 * @file
 * Direct tests for the defense strategy implementations: the ring
 * buffer policies over the IGB driver and the cache injection
 * policies over the Llc. Previously the defenses were only exercised
 * indirectly through the fig16 grid.
 */

#include <gtest/gtest.h>

#include <set>

#include "cache/hierarchy.hh"
#include "cache/injection_policy.hh"
#include "mem/phys_mem.hh"
#include "nic/buffer_policy.hh"
#include "nic/igb_driver.hh"
#include "testbed/testbed.hh"

using namespace pktchase;
using namespace pktchase::nic;

namespace
{

struct World
{
    mem::PhysMem phys;
    cache::Hierarchy hier;

    World()
        : phys(Addr(64) << 20, Rng(1)),
          hier(smallLlc(), quietHier(),
               cache::XorFoldSliceHash::twoSlice())
    {
    }

    static cache::LlcConfig
    smallLlc()
    {
        cache::LlcConfig cfg;
        cfg.geom = cache::Geometry{2, 512, 8};
        return cfg;
    }

    static cache::HierarchyConfig
    quietHier()
    {
        cache::HierarchyConfig cfg;
        cfg.timerNoiseSigma = 0.0;
        cfg.outlierProb = 0.0;
        return cfg;
    }
};

IgbConfig
smallRing(std::size_t size = 16)
{
    IgbConfig cfg;
    cfg.ringSize = size;
    return cfg;
}

Frame
frameOf(Addr bytes)
{
    Frame f;
    f.bytes = bytes;
    f.protocol = Protocol::Tcp;
    return f;
}

} // namespace

// ------------------------------------------------------------- ring --

TEST(FullRandomPolicy, ReallocatesOnEveryPacket)
{
    World w;
    IgbDriver drv(smallRing(4), w.phys, w.hier,
                  std::make_unique<FullRandomPolicy>());
    Addr last = 0;
    for (int i = 0; i < 20; ++i) {
        const std::size_t slot = i % 4;
        const Addr before = drv.pageBase(slot);
        drv.receive(frameOf(64), Cycles(i) * 1000);
        EXPECT_NE(drv.pageBase(slot), before);
        EXPECT_NE(drv.pageBase(slot), last);
        last = drv.pageBase(slot);
        EXPECT_EQ(drv.stats().buffersReallocated,
                  static_cast<std::uint64_t>(i + 1));
    }
}

TEST(PartialPeriodicPolicy, ReshufflesExactlyEveryN)
{
    World w;
    IgbDriver drv(smallRing(8), w.phys, w.hier,
                  std::make_unique<PartialPeriodicPolicy>(10));
    for (int i = 0; i < 35; ++i)
        drv.receive(frameOf(64), Cycles(i) * 1000);
    // Reshuffles fire before packets 11, 21, and 31 -- exactly when
    // the received count is a positive multiple of the interval.
    EXPECT_EQ(drv.stats().ringRandomizations, 3u);
    EXPECT_EQ(drv.stats().buffersReallocated, 3u * 8u);
}

TEST(PartialPeriodicPolicy, NameEmbedsIntervalWithSingleSourceDefault)
{
    EXPECT_EQ(PartialPeriodicPolicy(250).name(), "ring.partial:250");
    // The default interval has exactly one definition.
    EXPECT_EQ(PartialPeriodicPolicy().interval(),
              PartialPeriodicPolicy::kDefaultInterval);
    EXPECT_EQ(PartialPeriodicPolicy().name(),
              "ring.partial:" +
                  std::to_string(PartialPeriodicPolicy::kDefaultInterval));
}

TEST(PartialPeriodicPolicyDeath, ZeroIntervalFatal)
{
    EXPECT_EXIT(PartialPeriodicPolicy(0),
                ::testing::ExitedWithCode(1), "interval");
}

TEST(QuarantinePolicy, NeverHandsBackARecentlyUsedPage)
{
    World w;
    const std::uint64_t depth = 3;
    IgbDriver drv(smallRing(4), w.phys, w.hier,
                  std::make_unique<QuarantinePolicy>(depth));
    std::vector<Addr> recently_used;
    for (int i = 0; i < 200; ++i) {
        const Addr used = drv.pageBase(drv.ring().head());
        drv.receive(frameOf(64), Cycles(i) * 1000);
        recently_used.push_back(used);
        if (recently_used.size() > depth)
            recently_used.erase(recently_used.begin());
        // The last `depth` used pages are all still in quarantine, so
        // none of them may back any ring descriptor right now.
        for (Addr page : recently_used) {
            for (std::size_t d = 0; d < 4; ++d)
                ASSERT_NE(drv.pageBase(d), page)
                    << "quarantined page handed back at packet " << i;
        }
    }
}

TEST(QuarantinePolicy, SwapsAreNotReallocations)
{
    World w;
    IgbDriver drv(smallRing(4), w.phys, w.hier,
                  std::make_unique<QuarantinePolicy>(8));
    for (int i = 0; i < 50; ++i)
        drv.receive(frameOf(64), Cycles(i) * 1000);
    EXPECT_EQ(drv.stats().pageSwaps, 50u);
    EXPECT_EQ(drv.stats().buffersReallocated, 0u);
}

TEST(QuarantinePolicy, PoolPagesReleasedAtTeardown)
{
    World w;
    const std::size_t free_before = w.phys.freeFrames();
    {
        IgbDriver drv(smallRing(4), w.phys, w.hier,
                      std::make_unique<QuarantinePolicy>(8));
        // Ring + skb pool + quarantine pool are all outstanding.
        EXPECT_LT(w.phys.freeFrames(), free_before - 8);
        for (int i = 0; i < 30; ++i)
            drv.receive(frameOf(64), Cycles(i) * 1000);
    }
    EXPECT_EQ(w.phys.freeFrames(), free_before);
}

TEST(QuarantinePolicyDeath, ZeroDepthFatal)
{
    EXPECT_EXIT(QuarantinePolicy(0),
                ::testing::ExitedWithCode(1), "depth");
}

TEST(RandomOffsetPolicy, KeepsPagesButRandomizesTheHalf)
{
    World w;
    IgbDriver drv(smallRing(1), w.phys, w.hier,
                  std::make_unique<RandomOffsetPolicy>());
    const Addr page = drv.pageBase(0);
    std::set<Addr> offsets;
    for (int i = 0; i < 64; ++i) {
        drv.receive(frameOf(1000), Cycles(i) * 1000);
        EXPECT_EQ(drv.pageBase(0), page);
        const Addr off = drv.bufferAddr(0) - page;
        EXPECT_TRUE(off == 0 || off == 2048);
        offsets.insert(off);
    }
    // Both halves must occur -- the deterministic alternation the
    // sequencer tracks is gone.
    EXPECT_EQ(offsets.size(), 2u);
    EXPECT_EQ(drv.stats().buffersReallocated, 0u);
}

TEST(RandomOffsetPolicy, DeterministicForAGivenSeed)
{
    std::vector<Addr> runs[2];
    for (int run = 0; run < 2; ++run) {
        World w;
        IgbDriver drv(smallRing(1), w.phys, w.hier,
                      std::make_unique<RandomOffsetPolicy>());
        for (int i = 0; i < 32; ++i) {
            drv.receive(frameOf(1000), Cycles(i) * 1000);
            runs[run].push_back(drv.bufferAddr(0));
        }
    }
    EXPECT_EQ(runs[0], runs[1]);
}

TEST(BufferPolicy, DriverExposesActivePolicy)
{
    World w;
    IgbDriver none(smallRing(4), w.phys, w.hier);
    EXPECT_EQ(none.policy().name(), "ring.none");
    IgbDriver part(smallRing(4), w.phys, w.hier,
                   std::make_unique<PartialPeriodicPolicy>(500));
    EXPECT_EQ(part.policy().name(), "ring.partial:500");
}

// ------------------------------------------------------------ cache --

TEST(DdioWaysPolicy, CapsIoLinesPerSet)
{
    for (unsigned cap : {1u, 3u}) {
        cache::LlcConfig cfg;
        cfg.geom = cache::Geometry{1, 64, 8};
        cache::Llc llc(cfg,
                       std::make_unique<cache::IdentitySliceHash>(1, 0),
                       std::make_unique<cache::DdioWaysPolicy>(cap));
        // Flood one set with I/O fills; the policy must recycle its
        // own lines once the cap is reached.
        for (unsigned i = 0; i < 16; ++i)
            llc.ioWrite(Addr(i) * 64 * blockBytes, i);
        const std::size_t gset = llc.globalSet(0);
        EXPECT_EQ(llc.ioCount(gset), cap);
        EXPECT_EQ(llc.ioPartitionSize(gset), cap);
        EXPECT_EQ(llc.injectionPolicy().name(),
                  "cache.ddio-ways:" + std::to_string(cap));
    }
}

TEST(DdioWaysPolicyDeath, CapBeyondWaysFatal)
{
    cache::LlcConfig cfg;
    cfg.geom = cache::Geometry{1, 64, 4};
    EXPECT_EXIT(
        cache::Llc(cfg, std::make_unique<cache::IdentitySliceHash>(1, 0),
                   std::make_unique<cache::DdioWaysPolicy>(5)),
        ::testing::ExitedWithCode(1), "ddio-ways");
}

TEST(DdioWaysPolicyDeath, ZeroWaysFatal)
{
    EXPECT_EXIT(cache::DdioWaysPolicy(0),
                ::testing::ExitedWithCode(1), "ddio-ways");
}

TEST(InjectionPolicy, DefaultIsDdioBaseline)
{
    cache::LlcConfig cfg;
    cfg.geom = cache::Geometry{1, 64, 8};
    cache::Llc llc(cfg,
                   std::make_unique<cache::IdentitySliceHash>(1, 0));
    EXPECT_EQ(llc.injectionPolicy().name(), "cache.ddio");
    EXPECT_TRUE(llc.injectionPolicy().injectsToLlc());
    EXPECT_EQ(llc.ioPartitionSize(0), cache::kDdioWays);
}

// --------------------------------------------------------- assembly --

TEST(TestbedDefense, SpecStringsDriveAssembly)
{
    testbed::TestbedConfig cfg = testbed::TestbedConfig::reduced();
    cfg.ringDefense = "ring.quarantine:8";
    cfg.cacheDefense = "cache.ddio-ways:1";
    testbed::Testbed tb(cfg);
    EXPECT_EQ(tb.driver().policy().name(), "ring.quarantine:8");
    EXPECT_EQ(tb.hier().llc().injectionPolicy().name(),
              "cache.ddio-ways:1");
    EXPECT_TRUE(tb.hier().ddioEnabled());

    nic::Frame f;
    f.bytes = 64;
    f.protocol = nic::Protocol::Tcp;
    for (int i = 0; i < 40; ++i)
        tb.driver().receive(f, Cycles(i) * 1000);
    EXPECT_EQ(tb.driver().stats().pageSwaps, 40u);
}

TEST(TestbedDefense, NoDdioSpecDisablesInjection)
{
    testbed::TestbedConfig cfg = testbed::TestbedConfig::reduced();
    cfg.cacheDefense = "cache.no-ddio";
    testbed::Testbed tb(cfg);
    EXPECT_FALSE(tb.hier().ddioEnabled());
}
