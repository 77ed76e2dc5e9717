/**
 * @file
 * Last-level cache geometry description and address decomposition.
 *
 * Models the Xeon E5-2660 LLC the paper attacks: 20 MB, inclusive,
 * 8 slices x 2048 sets x 20 ways x 64 B blocks (16384 sets total, as
 * Sec. III states). Physical addresses decompose per Fig. 2:
 *
 *   | tag | 11-bit per-slice set index | 6-bit block offset |
 *
 * with the slice chosen by an undocumented hash of the address bits.
 * Page-aligned addresses zero the low six set-index bits, leaving
 * 32 candidate sets per slice -- 256 page-aligned (set, slice) combos,
 * which is the attacker's entire search space in Sec. III-B.
 */

#ifndef PKTCHASE_CACHE_GEOMETRY_HH
#define PKTCHASE_CACHE_GEOMETRY_HH

#include <cstdint>

#include "sim/types.hh"

namespace pktchase::cache
{

/**
 * Static geometry of a sliced, set-associative cache.
 */
struct Geometry
{
    unsigned slices = 8;
    unsigned setsPerSlice = 2048;
    unsigned ways = 20;

    /** Total number of sets across all slices. */
    unsigned totalSets() const { return slices * setsPerSlice; }

    /** Capacity in bytes. */
    Addr
    capacityBytes() const
    {
        return static_cast<Addr>(totalSets()) * ways * blockBytes;
    }

    /** Per-slice set index of a physical address. */
    unsigned
    setIndex(Addr paddr) const
    {
        return static_cast<unsigned>(
            (paddr >> blockShift) & (setsPerSlice - 1));
    }

    /** Width of the per-slice set index (setsPerSlice is 2^this). */
    unsigned
    indexBits() const
    {
        unsigned bits = 0;
        for (unsigned s = setsPerSlice; s > 1; s >>= 1)
            ++bits;
        return bits;
    }

    /** Tag bits of a physical address (above index + offset). */
    Addr
    tag(Addr paddr) const
    {
        return paddr >> (blockShift + indexBits());
    }

    /**
     * Number of distinct per-slice set indices a page-aligned address
     * can map to (32 for 4 KB pages and 2048 sets: the low six index
     * bits are forced to zero).
     */
    unsigned
    pageAlignedSetsPerSlice() const
    {
        return setsPerSlice / static_cast<unsigned>(blocksPerPage);
    }

    /** Total page-aligned (set, slice) combos: 256 in the paper. */
    unsigned
    pageAlignedCombos() const
    {
        return pageAlignedSetsPerSlice() * slices;
    }

    /** Whether a per-slice set index is reachable from a page start. */
    bool
    isPageAlignedSet(unsigned set_index) const
    {
        return (set_index % blocksPerPage) == 0;
    }

    /** The E5-2660 LLC used in the paper's attack testbed (20 MB). */
    static Geometry xeonE52660() { return Geometry{8, 2048, 20}; }

    /** Reduced 11 MB LLC used in the Fig. 14 sensitivity study. */
    static Geometry llc11MB() { return Geometry{8, 1024, 22}; }

    /** Reduced 8 MB LLC used in the Fig. 14 sensitivity study. */
    static Geometry llc8MB() { return Geometry{8, 1024, 16}; }
};

} // namespace pktchase::cache

#endif // PKTCHASE_CACHE_GEOMETRY_HH
