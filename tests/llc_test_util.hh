/**
 * @file
 * Helpers shared by the LLC unit tests, which all build a single-slice
 * 64-set geometry: set = (addr >> 6) & 63, and a telemetry probe that
 * hashes every LLC event with its cycle.
 */

#ifndef PKTCHASE_TESTS_LLC_TEST_UTIL_HH
#define PKTCHASE_TESTS_LLC_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <vector>

#include "cache/llc.hh"
#include "cache/telemetry.hh"

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

/** Telemetry that folds every event, in order, into one hash. */
class HashingTelemetry : public LlcTelemetry
{
  public:
    void
    cpuAccess(unsigned group, bool hit, Cycles now) override
    {
        mix(1, group, hit, now);
    }

    void
    ioInjection(unsigned group, bool displaced_cpu_line,
                Cycles now) override
    {
        mix(2, group, displaced_cpu_line, now);
    }

    void
    ioLineConflict(unsigned group, Cycles now) override
    {
        mix(3, group, false, now);
    }

    std::uint64_t hash = 0;
    std::uint64_t events = 0;

  private:
    void
    mix(std::uint64_t kind, unsigned group, bool flag, Cycles now)
    {
        for (const std::uint64_t v :
             {kind, std::uint64_t{group}, std::uint64_t{flag}, now})
            hash = (hash ^ v) * 0x100000001B3ull;
        ++events;
    }
};

} // namespace pktchase::cache::llctest

#endif // PKTCHASE_TESTS_LLC_TEST_UTIL_HH
