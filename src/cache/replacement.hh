/**
 * @file
 * Per-set replacement policies with masked victim selection.
 *
 * Victim selection takes a candidate-way mask because both DDIO's
 * two-way write-allocation cap and the adaptive partitioning defense
 * (Sec. VII) restrict which ways a fill is allowed to displace. All
 * policies honour the mask; LRU is the default throughout the paper's
 * experiments.
 */

#ifndef PKTCHASE_CACHE_REPLACEMENT_HH
#define PKTCHASE_CACHE_REPLACEMENT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/rng.hh"

namespace pktchase::cache
{

/** Bitmask over ways; way w is a candidate iff bit w is set. */
using WayMask = std::uint32_t;

/**
 * Abstract replacement policy covering all sets of one cache.
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** Record a reference to @p way of @p set. */
    virtual void touch(std::size_t set, unsigned way) = 0;

    /**
     * Choose a victim among the candidate ways of @p set.
     * @param set  Global set index.
     * @param mask Candidate ways (must be nonzero).
     * @return The chosen way.
     */
    virtual unsigned victim(std::size_t set, WayMask mask) = 0;

    /** Invalidate bookkeeping for a way (e.g., after an invalidation). */
    virtual void reset(std::size_t set, unsigned way) = 0;

    /** Human-readable policy name. */
    virtual const char *name() const = 0;
};

/**
 * True least-recently-used via per-line timestamps.
 *
 * The class is final and its methods are defined inline: the Llc
 * keeps a concrete LruPolicy pointer next to the abstract one so the
 * per-access touch/victim calls on the default policy devirtualize
 * and inline (they are the hottest calls in the simulator after the
 * event loop).
 *
 * Stamps are 32 bits. Before the clock would reach the all-ones
 * stamp, every set's stamps are renumbered to their ranks within the
 * set. Victims only compare stamps within one set, so they stay
 * exactly those of unbounded stamps.
 */
class LruPolicy final : public ReplacementPolicy
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

    void
    touch(std::size_t set, unsigned way) override
    {
        stamps_[set * ways_ + way] = clock_;
        if (++clock_ == kLastStamp)
            renumber();
    }

    unsigned
    victim(std::size_t set, WayMask mask) override
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

    void
    reset(std::size_t set, unsigned way) override
    {
        stamps_[set * ways_ + way] = 0;
    }

    const char *name() const override { return "lru"; }

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

/** Tree pseudo-LRU (binary decision tree per set). */
class TreePlruPolicy : public ReplacementPolicy
{
  public:
    TreePlruPolicy(std::size_t sets, unsigned ways);

    void touch(std::size_t set, unsigned way) override;
    unsigned victim(std::size_t set, WayMask mask) override;
    void reset(std::size_t set, unsigned way) override;
    const char *name() const override { return "tree-plru"; }

  private:
    unsigned ways_;
    unsigned treeWays_;   ///< ways_ rounded up to a power of two.
    std::vector<std::uint8_t> bits_; ///< sets x (treeWays_ - 1) tree bits.

    /** Whether any candidate way lies in [lo, hi) intersected with mask. */
    bool anyCandidate(WayMask mask, unsigned lo, unsigned hi) const;
};

/** Uniform random victim among candidates. */
class RandomPolicy : public ReplacementPolicy
{
  public:
    RandomPolicy(std::size_t sets, unsigned ways, Rng rng);

    void touch(std::size_t set, unsigned way) override;
    unsigned victim(std::size_t set, WayMask mask) override;
    void reset(std::size_t set, unsigned way) override;
    const char *name() const override { return "random"; }

  private:
    Rng rng_;
};

/** Supported policy kinds for configuration. */
enum class ReplacementKind
{
    Lru,
    TreePlru,
    Random,
};

/** Factory for a policy covering @p sets sets of @p ways ways. */
std::unique_ptr<ReplacementPolicy>
makeReplacement(ReplacementKind kind, std::size_t sets, unsigned ways,
                Rng rng);

} // namespace pktchase::cache

#endif // PKTCHASE_CACHE_REPLACEMENT_HH
