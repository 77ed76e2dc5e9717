/**
 * @file
 * Edge-case tests for the cache::InjectionPolicy family: zero and
 * oversized DdioWays configurations fail loudly, and partition state
 * never leaks across scenarios -- each policy instance re-derives its
 * per-set state at init(), and the registry hands every testbed a
 * fresh instance.
 */

#include <gtest/gtest.h>

#include "cache/llc.hh"
#include "defense/registry.hh"
#include "llc_test_util.hh"

using namespace pktchase;
using namespace pktchase::cache;
using namespace pktchase::cache::llctest;

namespace
{

/** Drive one I/O-heavy phase so the adaptive partition grows. */
void
growPartition(Llc &llc)
{
    Cycles t = 0;
    for (unsigned round = 0; round < 40; ++round) {
        for (unsigned i = 0; i < 4; ++i)
            llc.ioWrite(addrOf(0, 100 + i), t += 500);
    }
}

} // namespace

TEST(InjectionPolicyDeath, ZeroDdioWaysFatal)
{
    EXPECT_EXIT(DdioWaysPolicy(0), ::testing::ExitedWithCode(1),
                "ddio-ways must be nonzero");
    EXPECT_EXIT(defense::makeCachePolicy("cache.ddio-ways:0"),
                ::testing::ExitedWithCode(1),
                "ddio-ways must be nonzero");
}

TEST(InjectionPolicyDeath, WaysBeyondAssociativityFatalAtBind)
{
    // The policy alone cannot know the geometry; binding it to an
    // 8-way cache must fail loudly.
    EXPECT_EXIT(Llc(singleSliceConfig(8),
                    std::make_unique<IdentitySliceHash>(1, 0),
                    std::make_unique<DdioWaysPolicy>(9)),
                ::testing::ExitedWithCode(1),
                "exceeds the set's ways");
}

TEST(InjectionPolicy, DdioWaysAtAssociativityIsAccepted)
{
    Llc llc(singleSliceConfig(8),
            std::make_unique<IdentitySliceHash>(1, 0),
            std::make_unique<DdioWaysPolicy>(8));
    EXPECT_EQ(llc.ioPartitionSize(0), 8u);
}

TEST(InjectionPolicy, AdaptiveStateResetsAcrossScenarios)
{
    // Scenario 1: heavy I/O grows set 0's partition past its initial
    // size.
    Llc first(singleSliceConfig(8),
              std::make_unique<IdentitySliceHash>(1, 0),
              std::make_unique<AdaptivePartitionPolicy>());
    EXPECT_EQ(first.ioPartitionSize(0), 2u);
    growPartition(first);
    EXPECT_GT(first.ioPartitionSize(0), 2u);

    // Scenario 2: a fresh policy instance (as the registry hands out)
    // starts from kIoLinesInit again -- nothing carried over.
    Llc second(singleSliceConfig(8),
               std::make_unique<IdentitySliceHash>(1, 0),
               std::make_unique<AdaptivePartitionPolicy>());
    EXPECT_EQ(second.ioPartitionSize(0), 2u);
    EXPECT_EQ(second.stats().partitionAdaptations, 0u);

    // And the second scenario's dynamics replay the first's exactly:
    // same accesses, same partition trajectory, same counters.
    growPartition(second);
    EXPECT_EQ(second.ioPartitionSize(0), first.ioPartitionSize(0));
    EXPECT_EQ(second.stats().partitionAdaptations,
              first.stats().partitionAdaptations);
    EXPECT_EQ(second.stats().partitionInvalidations,
              first.stats().partitionInvalidations);
}

TEST(InjectionPolicy, RegistryHandsOutFreshInstances)
{
    // Two cells naming the same spec must not share policy state.
    auto a = defense::makeCachePolicy("cache.adaptive");
    auto b = defense::makeCachePolicy("cache.adaptive");
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(a->name(), b->name());
}
