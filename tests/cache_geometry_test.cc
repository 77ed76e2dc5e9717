/**
 * @file
 * Tests for cache geometry and address decomposition.
 */

#include <gtest/gtest.h>

#include "cache/geometry.hh"

using namespace pktchase;
using namespace pktchase::cache;

TEST(Geometry, PaperMachineMatchesSectionIII)
{
    const Geometry g = Geometry::xeonE52660();
    // "Each processor has a 20 MB last level cache with 16384 sets."
    EXPECT_EQ(g.totalSets(), 16384u);
    EXPECT_EQ(g.capacityBytes(), Addr(20) << 20);
    EXPECT_EQ(g.slices, 8u);
}

TEST(Geometry, ReducedGeometriesForFig14)
{
    EXPECT_EQ(Geometry::llc11MB().capacityBytes(), Addr(11) << 20);
    EXPECT_EQ(Geometry::llc8MB().capacityBytes(), Addr(8) << 20);
}

TEST(Geometry, SetIndexUsesBitsAboveBlockOffset)
{
    const Geometry g = Geometry::xeonE52660();
    EXPECT_EQ(g.setIndex(0), 0u);
    EXPECT_EQ(g.setIndex(63), 0u);
    EXPECT_EQ(g.setIndex(64), 1u);
    EXPECT_EQ(g.setIndex(64 * 2048), 0u); // wraps at setsPerSlice
}

TEST(Geometry, TagAboveIndexBits)
{
    const Geometry g = Geometry::xeonE52660();
    EXPECT_EQ(g.tag(0), 0u);
    EXPECT_EQ(g.tag(Addr(1) << 17), 1u); // 6 offset + 11 index bits
    EXPECT_EQ(g.tag((Addr(1) << 17) - 1), 0u);
    EXPECT_EQ(g.indexBits(), 11u);
}

TEST(Geometry, PageAlignedCombosAre256)
{
    const Geometry g = Geometry::xeonE52660();
    // Sec. III-B: 32 sets per slice x 8 slices = 256 candidates.
    EXPECT_EQ(g.pageAlignedSetsPerSlice(), 32u);
    EXPECT_EQ(g.pageAlignedCombos(), 256u);
}

TEST(Geometry, PageAlignedAddressesHitPageAlignedSets)
{
    const Geometry g = Geometry::xeonE52660();
    for (Addr page = 0; page < 100; ++page) {
        const unsigned set = g.setIndex(page * pageBytes);
        EXPECT_TRUE(g.isPageAlignedSet(set));
        EXPECT_EQ(set % blocksPerPage, 0u);
    }
}

TEST(Geometry, NonPageAlignedSetsExist)
{
    const Geometry g = Geometry::xeonE52660();
    EXPECT_FALSE(g.isPageAlignedSet(1));
    EXPECT_FALSE(g.isPageAlignedSet(63));
    EXPECT_TRUE(g.isPageAlignedSet(64));
}

TEST(Geometry, InPageBlocksCoverConsecutiveSets)
{
    const Geometry g = Geometry::xeonE52660();
    const Addr page = 7 * pageBytes;
    const unsigned base = g.setIndex(page);
    for (unsigned b = 0; b < blocksPerPage; ++b)
        EXPECT_EQ(g.setIndex(page + b * blockBytes), base + b);
}
