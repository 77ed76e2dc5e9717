/**
 * @file
 * The LLC's LRU replacement with masked victim selection.
 *
 * Victim selection takes a candidate-way mask because both DDIO's
 * two-way write-allocation cap and the adaptive partitioning defense
 * (Sec. VII) restrict which ways a fill is allowed to displace. LRU is
 * the replacement the paper's experiments assume throughout.
 */

#ifndef PKTCHASE_CACHE_REPLACEMENT_HH
#define PKTCHASE_CACHE_REPLACEMENT_HH

#include <cstdint>
#include <vector>

namespace pktchase::cache
{

/** Bitmask over ways; way w is a candidate iff bit w is set. */
using WayMask = std::uint32_t;

/**
 * True least-recently-used via per-line timestamps, covering all sets
 * of one cache.
 *
 * touch/victim/reset are defined inline: they are the hottest calls in
 * the simulator after the event loop.
 *
 * Stamps are 32 bits. Before the clock would reach the all-ones
 * stamp, every set's stamps are renumbered to their ranks within the
 * set. Victims only compare stamps within one set, so they stay
 * exactly those of unbounded stamps.
 */
class LruPolicy
{
  public:
    /**
     * @param clock First stamp handed out (>= 1). Tests start it near
     *              the 2^32 wrap.
     */
    LruPolicy(std::size_t sets, unsigned ways, std::uint32_t clock = 1)
        : ways_(ways), clock_(clock), stamps_(sets * ways, 0)
    {
    }

    /** Record a reference to @p way of @p set. */
    void
    touch(std::size_t set, unsigned way)
    {
        stamps_[set * ways_ + way] = clock_;
        if (++clock_ == kLastStamp)
            renumber();
    }

    /**
     * The least recently used of the candidate ways of @p set.
     * @param set  Global set index.
     * @param mask Candidate ways (must be nonzero).
     */
    unsigned
    victim(std::size_t set, WayMask mask) const
    {
        if (mask == 0)
            panicEmptyMask();
        unsigned best_way = 0;
        std::uint32_t best_stamp = kLastStamp;
        const std::uint32_t *stamps = &stamps_[set * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            if (!(mask & (WayMask(1) << w)))
                continue;
            const std::uint32_t s = stamps[w];
            if (s < best_stamp) {
                best_stamp = s;
                best_way = w;
            }
        }
        return best_way;
    }

    /**
     * The stamps of @p set's ways, for a caller that picks a victim
     * in a pass of its own: the least recently used way has the
     * smallest stamp (0 == never used), and victim() takes the first
     * of equal ones.
     */
    const std::uint32_t *
    stampsOf(std::size_t set) const
    {
        return &stamps_[set * ways_];
    }

    /** Make @p way of @p set the oldest (after an eviction). */
    void
    reset(std::size_t set, unsigned way)
    {
        stamps_[set * ways_ + way] = 0;
    }

  private:
    /** Never handed out, so it exceeds every stored stamp. */
    static constexpr std::uint32_t kLastStamp = ~std::uint32_t(0);

    [[noreturn]] static void panicEmptyMask();

    /** Replace each set's nonzero stamps by their ranks 1..ways. */
    void renumber();

    unsigned ways_;
    std::uint32_t clock_;
    std::vector<std::uint32_t> stamps_; ///< sets x ways, 0 == never used.
};

} // namespace pktchase::cache

#endif // PKTCHASE_CACHE_REPLACEMENT_HH
