/**
 * @file
 * Tests for eviction-set construction: the oracle partition, the
 * timing-only conflict-testing algorithm, and their agreement, and the
 * set size the attacker components derive from the LLC geometry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "attack/chasing.hh"
#include "attack/eviction_set.hh"
#include "attack/footprint.hh"
#include "obs/stats.hh"
#include "testbed/testbed.hh"

using namespace pktchase;
using namespace pktchase::attack;

namespace
{

testbed::Testbed &
reducedBed()
{
    static testbed::Testbed tb(testbed::TestbedConfig::reduced());
    return tb;
}

} // namespace

TEST(EvictionSetOracle, GroupsPartitionThePool)
{
    auto &tb = reducedBed();
    const ComboGroups &groups = tb.groups();
    const auto &geom = tb.config().llc.geom;
    EXPECT_EQ(groups.groups.size(), geom.pageAlignedCombos());
    std::size_t total = 0;
    std::set<Addr> seen;
    for (const auto &g : groups.groups) {
        total += g.size();
        for (Addr p : g)
            EXPECT_TRUE(seen.insert(p).second);
    }
    EXPECT_EQ(total, tb.config().builder.poolPages);
}

TEST(EvictionSetOracle, GroupMembersShareGlobalSet)
{
    auto &tb = reducedBed();
    const ComboGroups &groups = tb.groups();
    for (const auto &g : groups.groups) {
        if (g.empty())
            continue;
        const std::size_t gset = tb.hier().llc().globalSet(g[0]);
        for (Addr p : g)
            EXPECT_EQ(tb.hier().llc().globalSet(p), gset);
    }
}

TEST(EvictionSetOracle, RankMatchesComboOf)
{
    auto &tb = reducedBed();
    const ComboGroups &groups = tb.groups();
    for (std::size_t c = 0; c < groups.groups.size(); ++c)
        for (Addr p : groups.groups[c])
            EXPECT_EQ(tb.comboOf(p), c);
}

TEST(EvictionSetOracle, EveryComboPopulated)
{
    // The pool (768 pages over 16 combos) must cover each combo with
    // at least `ways` pages or the monitor cannot prime it.
    auto &tb = reducedBed();
    for (const auto &g : tb.groups().groups)
        EXPECT_GE(g.size(), tb.config().llc.geom.ways);
}

TEST(EvictionSet, EvictionSetForTakesWaysPages)
{
    auto &tb = reducedBed();
    const unsigned ways = tb.config().llc.geom.ways;
    const EvictionSet es = tb.groups().evictionSetFor(0, ways);
    EXPECT_EQ(es.addrs.size(), ways);
}

TEST(EvictionSet, AtBlockOffsetsAddresses)
{
    auto &tb = reducedBed();
    const EvictionSet base = tb.groups().evictionSetFor(0, 4);
    const EvictionSet blk3 = base.atBlock(3);
    ASSERT_EQ(blk3.addrs.size(), base.addrs.size());
    for (std::size_t i = 0; i < base.addrs.size(); ++i)
        EXPECT_EQ(blk3.addrs[i], base.addrs[i] + 3 * blockBytes);
}

TEST(EvictionSet, AtBlockTargetsOneSet)
{
    auto &tb = reducedBed();
    const EvictionSet blk =
        tb.groups().evictionSetFor(1, 8).atBlock(5);
    const std::size_t gset = tb.hier().llc().globalSet(blk.addrs[0]);
    for (Addr a : blk.addrs)
        EXPECT_EQ(tb.hier().llc().globalSet(a), gset);
}

TEST(EvictionSetTiming, EvictsDetectsRealConflicts)
{
    testbed::Testbed tb(testbed::TestbedConfig::reduced());
    EvictionSetBuilder &b = tb.builder();
    const ComboGroups groups = b.buildWithOracle();
    const unsigned ways = tb.config().llc.geom.ways;

    // A full same-combo set evicts a same-combo target...
    const auto &g0 = groups.groups[0];
    ASSERT_GT(g0.size(), ways);
    std::vector<Addr> candidate(g0.begin(), g0.begin() + ways);
    EXPECT_TRUE(b.evicts(candidate, g0[ways]));

    // ...but not a target from another combo.
    const auto &g1 = groups.groups[1];
    ASSERT_FALSE(g1.empty());
    EXPECT_FALSE(b.evicts(candidate, g1[0]));
}

TEST(EvictionSetTiming, TooFewLinesDoNotEvict)
{
    testbed::Testbed tb(testbed::TestbedConfig::reduced());
    EvictionSetBuilder &b = tb.builder();
    const ComboGroups groups = b.buildWithOracle();
    const unsigned ways = tb.config().llc.geom.ways;
    const auto &g0 = groups.groups[0];
    std::vector<Addr> candidate(g0.begin(),
                                g0.begin() + (ways - 1));
    EXPECT_FALSE(b.evicts(candidate, g0[ways]));
}

TEST(EvictionSetTiming, ConflictTestingMatchesOracle)
{
    // The real attack path: partition a pool by load timing only, and
    // verify it reproduces the oracle grouping. Run on the reduced
    // geometry with a trimmed pool so the group-test reduction stays
    // fast.
    testbed::TestbedConfig cfg = testbed::TestbedConfig::reduced();
    cfg.builder.poolPages = 256;
    testbed::Testbed tb(cfg);
    EvictionSetBuilder &b = tb.builder();

    const ComboGroups oracle = b.buildWithOracle();
    const ComboGroups timing = b.buildByConflictTesting(4);
    ASSERT_EQ(timing.groups.size(), 4u);
    for (auto g : timing.groups) {
        ASSERT_FALSE(g.empty());
        // Every member of a timing-discovered group shares the global
        // set of its first member: identical to oracle grouping.
        const std::size_t gset = tb.hier().llc().globalSet(g[0]);
        for (Addr p : g)
            EXPECT_EQ(tb.hier().llc().globalSet(p), gset);
        // And it found *all* pool pages of that combo, exactly the
        // oracle group.
        auto expect = oracle.groups[tb.comboOf(g[0])];
        std::sort(g.begin(), g.end());
        std::sort(expect.begin(), expect.end());
        EXPECT_EQ(g, expect);
    }
    EXPECT_GT(b.timedLoads(), 0u);
}

TEST(EvictionSetSize, AttackerRoundsCostCombosTimesWays)
{
    // The components size every eviction set from the hierarchy's LLC
    // associativity, so a prime or probe round over k sets costs
    // k x ways LLC accesses: 8 ways on the reduced testbed, 20 on the
    // full one. Only combos with more than 20 pages are monitored, so
    // a set size that ignored the geometry would change the count.
    for (const testbed::TestbedConfig &cfg :
         {testbed::TestbedConfig::reduced(), testbed::TestbedConfig{}}) {
        testbed::Testbed tb(cfg);
        const std::size_t ways = cfg.llc.geom.ways;
        std::vector<std::size_t> combos;
        for (std::size_t c = 0;
             c < tb.groups().groups.size() && combos.size() < 8; ++c) {
            if (tb.groups().groups[c].size() > 20)
                combos.push_back(c);
        }
        ASSERT_EQ(combos.size(), 8u);

        // Scanning to the current cycle runs the prime and exactly one
        // probe round, each over one set per combo.
        FootprintScanner scanner(tb.hier(), tb.groups(), combos);
        obs::StatSnapshot before = obs::snapshot();
        EXPECT_EQ(scanner.scan(tb.eq(), tb.eq().now()).size(), 1u);
        EXPECT_EQ((obs::snapshot() - before).get(obs::Stat::LlcAccesses),
                  2 * combos.size() * ways);

        // A chase primes 8 sets (block rows 0..3 of both half-pages)
        // per ring slot, then probes the cursor slot's 8 sets once.
        ChasingMonitor chaser(tb.hier(), tb.groups(), combos,
                              ProbeEngineConfig{});
        before = obs::snapshot();
        EXPECT_EQ(chaser.chase(tb.eq(), tb.eq().now()).probes, 1u);
        EXPECT_EQ((obs::snapshot() - before).get(obs::Stat::LlcAccesses),
                  (combos.size() + 1) * 8 * ways);
    }
}

TEST(EvictionSetDeath, OutOfRangeCombo)
{
    auto &tb = reducedBed();
    EXPECT_DEATH(tb.groups().evictionSetFor(10000, 4), "range");
}
