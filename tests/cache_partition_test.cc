/**
 * @file
 * Tests for the Sec. VII adaptive I/O cache partitioning defense,
 * including its core guarantee as a property test: with the defense
 * on, an incoming packet can never evict a CPU line.
 */

#include <gtest/gtest.h>

#include "cache/llc.hh"
#include "sim/rng.hh"
#include "llc_test_util.hh"

using namespace pktchase;
using namespace pktchase::cache;
using namespace pktchase::cache::llctest;

namespace
{

Llc
makePartitioned(unsigned ways = 8)
{
    return Llc(singleSliceConfig(ways),
               std::make_unique<IdentitySliceHash>(1, 0),
               std::make_unique<AdaptivePartitionPolicy>());
}

} // namespace

TEST(Partition, InitialPartitionSize)
{
    Llc llc = makePartitioned();
    EXPECT_EQ(llc.ioPartitionSize(0), 2u);
}

TEST(Partition, IoNeverEvictsCpuDirected)
{
    Llc llc = makePartitioned(4);
    // Fill the CPU quota (4 - 2 = 2 lines).
    llc.cpuRead(addrOf(0, 0), 0);
    llc.cpuRead(addrOf(0, 1), 1);
    // Flood with I/O: CPU lines must survive.
    for (unsigned i = 0; i < 16; ++i)
        llc.ioWrite(addrOf(0, 100 + i), 2 + i);
    EXPECT_TRUE(llc.contains(addrOf(0, 0)));
    EXPECT_TRUE(llc.contains(addrOf(0, 1)));
    EXPECT_EQ(llc.stats().cpuEvictedByIo, 0u);
}

TEST(Partition, CpuNeverEvictsIoWithinBound)
{
    Llc llc = makePartitioned(4);
    llc.ioWrite(addrOf(0, 100), 0);
    llc.ioWrite(addrOf(0, 101), 1);
    // CPU flood: the two I/O lines stay (partition reserved).
    for (unsigned i = 0; i < 16; ++i)
        llc.cpuRead(addrOf(0, i), 2 + i);
    EXPECT_EQ(llc.stats().ioEvictedByCpu, 0u);
    EXPECT_EQ(llc.ioCount(0), 2u);
}

TEST(Partition, CpuQuotaEnforced)
{
    Llc llc = makePartitioned(8); // quota = 8 - 2 = 6
    for (unsigned i = 0; i < 12; ++i)
        llc.cpuRead(addrOf(0, i), i);
    const std::size_t gset = llc.globalSet(addrOf(0, 0));
    EXPECT_LE(llc.validCount(gset) - llc.ioCount(gset), 6u);
    EXPECT_GT(llc.stats().cpuEvictedByCpu, 0u);
}

TEST(Partition, GrowsUnderSustainedIo)
{
    Llc llc = makePartitioned();
    // Keep I/O present across many adaptation periods.
    Cycles t = 0;
    for (int p = 0; p < 20; ++p) {
        for (int k = 0; k < 10; ++k) {
            llc.ioWrite(addrOf(0, 100 + (k % 3)), t);
            t += 1000;
        }
    }
    EXPECT_EQ(llc.ioPartitionSize(0), 3u);
}

TEST(Partition, ShrinksWhenIoIdle)
{
    Llc llc = makePartitioned();
    // One burst, then CPU-only traffic with the I/O line aging out.
    llc.ioWrite(addrOf(0, 100), 0);
    Cycles t = 1000;
    // CPU traffic elsewhere advances this set's clock only when it is
    // touched; touch it with CPU reads. The I/O line stays valid, so
    // presence remains 1 -- shrink requires the I/O line to leave.
    // Evict it via partition shrink: first starve its presence by
    // invalidating (DMA snoop from a non-DDIO write).
    llc.invalidateBlock(addrOf(0, 100));
    for (int p = 0; p < 10; ++p) {
        t += 10000;
        llc.cpuRead(addrOf(0, p % 4), t);
    }
    EXPECT_EQ(llc.ioPartitionSize(llc.globalSet(addrOf(0, 0))),
              1u);
}

TEST(Partition, ShrinkInvalidatesExcessIoLines)
{
    Llc llc = makePartitioned();
    Cycles t = 0;
    // Grow to 3 with sustained I/O.
    for (int p = 0; p < 30; ++p) {
        llc.ioWrite(addrOf(0, 100 + (p % 3)), t);
        t += 3000;
    }
    ASSERT_EQ(llc.ioPartitionSize(0), 3u);
    ASSERT_EQ(llc.ioCount(0), 3u);
    // Starve I/O presence: invalidate all I/O lines, let periods pass.
    for (unsigned k = 0; k < 3; ++k)
        llc.invalidateBlock(addrOf(0, 100 + k));
    for (int p = 0; p < 10; ++p) {
        t += 10000;
        llc.cpuRead(addrOf(0, 0), t);
    }
    EXPECT_EQ(llc.ioPartitionSize(0), 1u);
    EXPECT_LE(llc.ioCount(0), 1u);
}

TEST(Partition, DmaHitOnCpuLineReallocatesIntoPartition)
{
    Llc llc = makePartitioned(4);
    llc.cpuRead(addrOf(0, 0), 0);
    // DMA overwrites a block the CPU has cached: the defense must not
    // let the line morph in place (that would exceed the bound).
    llc.ioWrite(addrOf(0, 0), 1);
    EXPECT_TRUE(llc.containsIoLine(addrOf(0, 0)));
    EXPECT_LE(llc.ioCount(0), llc.ioPartitionSize(0));
}

TEST(Partition, PropertyIoNeverEvictsCpuUnderRandomTraffic)
{
    // The paper's guarantee, as a randomized invariant sweep.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Llc llc = makePartitioned(8);
        Rng rng(seed);
        Cycles t = 0;
        for (int op = 0; op < 50000; ++op) {
            const Addr a =
                addrOf(static_cast<unsigned>(rng.nextBounded(64)),
                       static_cast<unsigned>(rng.nextBounded(10)));
            t += rng.nextBounded(2000);
            switch (rng.nextBounded(4)) {
              case 0:
                llc.cpuRead(a, t);
                break;
              case 1:
                llc.cpuWrite(a, t);
                break;
              case 2:
                llc.ioWrite(a, t);
                break;
              default:
                llc.invalidateBlock(a);
                break;
            }
            // The per-set I/O line count tracks every flag write
            // (partition drops and a mid-run flush included).
            if (op == 25000) {
                llc.flushAll();
                ASSERT_TRUE(ioCountsMatchRescan(llc, 10));
            }
            if (op % 5000 == 4999) {
                ASSERT_TRUE(ioCountsMatchRescan(llc, 10))
                    << "seed " << seed << " after op " << op;
            }
        }
        EXPECT_EQ(llc.stats().cpuEvictedByIo, 0u)
            << "defense leaked with seed " << seed;
        EXPECT_EQ(llc.stats().ioEvictedByCpu, 0u);
        // Partition bounds hold in every set.
        for (std::size_t g = 0; g < 64; ++g) {
            EXPECT_LE(llc.ioCount(g), llc.ioPartitionSize(g));
            EXPECT_LE(llc.validCount(g) - llc.ioCount(g),
                      8u - llc.ioPartitionSize(g));
        }
    }
}

TEST(Partition, AdaptationCountersAdvance)
{
    Llc llc = makePartitioned();
    llc.cpuRead(addrOf(0, 0), 0);
    llc.cpuRead(addrOf(0, 0), 500000);
    EXPECT_GT(llc.stats().partitionAdaptations, 0u);
}

TEST(Partition, LongIdleGapHandledInConstantTime)
{
    // The lazy catch-up must fast-forward over huge gaps (regression
    // guard for the saturation shortcut).
    Llc llc = makePartitioned();
    llc.cpuRead(addrOf(0, 0), 0);
    llc.cpuRead(addrOf(0, 0), 3'300'000'000ull); // one second later
    EXPECT_TRUE(llc.contains(addrOf(0, 0)));
}

TEST(PartitionDeath, BadBoundsFatal)
{
    // The largest partition (3 I/O ways) would leave a 3-way set no
    // CPU way.
    EXPECT_EXIT(makePartitioned(3), ::testing::ExitedWithCode(1),
                "partition");
}
