/**
 * @file
 * Helpers shared by the LLC unit tests, which all build a single-slice
 * 64-set geometry: set = (addr >> 6) & 63.
 */

#ifndef PKTCHASE_TESTS_LLC_TEST_UTIL_HH
#define PKTCHASE_TESTS_LLC_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <vector>

#include "cache/llc.hh"

namespace pktchase::cache::llctest
{

/** The single-slice, 64-set configuration with @p ways ways. */
inline LlcConfig
singleSliceConfig(unsigned ways)
{
    return LlcConfig{Geometry{1, 64, ways}};
}

/** Address of block @p i in set @p set (single-slice geometry). */
inline Addr
addrOf(unsigned set, unsigned i)
{
    return (Addr(i) * 64 + set) * blockBytes;
}

/**
 * ioCount of every set equals a rescan through the public API: the
 * number of I/O lines among blocks 0..tags-1 of sets 0..63.
 */
inline ::testing::AssertionResult
ioCountsMatchRescan(const Llc &llc, unsigned tags)
{
    std::vector<unsigned> ref(llc.geometry().totalSets(), 0);
    for (unsigned set = 0; set < 64; ++set)
        for (unsigned i = 0; i < tags; ++i)
            if (llc.containsIoLine(addrOf(set, i)))
                ++ref[llc.globalSet(addrOf(set, i))];
    for (std::size_t g = 0; g < ref.size(); ++g)
        if (llc.ioCount(g) != ref[g])
            return ::testing::AssertionFailure()
                << "set " << g << ": ioCount " << llc.ioCount(g)
                << " != rescan " << ref[g];
    return ::testing::AssertionSuccess();
}

} // namespace pktchase::cache::llctest

#endif // PKTCHASE_TESTS_LLC_TEST_UTIL_HH
