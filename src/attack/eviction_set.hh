/**
 * @file
 * Eviction-set construction for the page-aligned LLC sets.
 *
 * The spy maps a large pool of anonymous pages. Every page base lands
 * in one of the 256 page-aligned (set, slice) combos (Sec. III-B), and
 * because the slice hash is linear over the address bits, two pages
 * whose bases share a combo also share the combo of every in-page
 * block offset: hash(p | k<<6) = hash(p) XOR hash(k<<6). Partitioning
 * the pool by base combo therefore yields eviction sets for *all*
 * blocks of the target buffers -- the property Sec. III-B exploits to
 * detect packet sizes ("using the same way that we construct the
 * eviction sets for the page-aligned cache sets, we construct eviction
 * sets for the second cache blocks in the page").
 *
 * Two construction paths are provided:
 *  - conflict testing (the real attack): group-test reduction over the
 *    pool using only load timing, as Mastik does;
 *  - an oracle shortcut that reads the simulated slice hash directly,
 *    equivalent to the driver instrumentation the authors use for
 *    ground truth, for experiments where construction time is not the
 *    subject.
 */

#ifndef PKTCHASE_ATTACK_EVICTION_SET_HH
#define PKTCHASE_ATTACK_EVICTION_SET_HH

#include <cstdint>
#include <vector>

#include "cache/hierarchy.hh"
#include "mem/address_space.hh"
#include "sim/types.hh"

namespace pktchase::attack
{

/**
 * The spy's calibrated hit/miss latency cut (Sec. III-B: 130 cycles on
 * the E5-2660). Every timed load of every attacker component -- the
 * builder's conflict tests and every PRIME+PROBE walk -- is judged
 * against it. Eviction sets are as wide as the LLC is associative;
 * each component reads that from the hierarchy it probes.
 */
inline constexpr Cycles kMissThreshold = 130;

/**
 * An eviction set: physical addresses that together cover every way of
 * one (set, slice) combo. Addresses are stored post-translation because
 * the spy translates once (by walking its own buffer) and then reuses
 * the pointers, exactly as a linked-list probe buffer would.
 */
struct EvictionSet
{
    std::vector<Addr> addrs;

    /** Derive the eviction set for in-page block @p k of this combo. */
    EvictionSet
    atBlock(unsigned k) const
    {
        EvictionSet out;
        out.addrs.reserve(addrs.size());
        for (Addr a : addrs)
            out.addrs.push_back(a + static_cast<Addr>(k) * blockBytes);
        return out;
    }
};

/** A pool of attacker pages partitioned into same-combo groups. */
struct ComboGroups
{
    /**
     * groups[c] holds the physical page bases of combo c. With the
     * oracle builder, c is the global page-aligned set index order;
     * with conflict testing, c is discovery order (opaque but stable).
     */
    std::vector<std::vector<Addr>> groups;

    /** Build the eviction set for combo @p c, block offset 0. */
    EvictionSet evictionSetFor(std::size_t c, unsigned ways) const;
};

/** Configuration for the builder. */
struct BuilderConfig
{
    std::size_t poolPages = 16384;   ///< Pages the spy maps (64 MB).
};

/**
 * Constructs eviction sets for the page-aligned combos.
 */
class EvictionSetBuilder
{
  public:
    /** Majority votes per timing test. */
    static constexpr unsigned kConflictVotes = 3;

    /**
     * @param hier  The hierarchy timing oracle (the spy's loads).
     * @param space The spy's address space (pool allocation).
     * @param cfg   Pool size.
     */
    EvictionSetBuilder(cache::Hierarchy &hier, mem::AddressSpace &space,
                       const BuilderConfig &cfg);

    /**
     * Oracle-assisted partition: groups indexed by page-aligned combo
     * rank (0..combos-1). Equivalent to instrumenting the driver; used
     * by the large experiments.
     */
    ComboGroups buildWithOracle();

    /**
     * Timing-only partition via group-test reduction, the real attack.
     * Cost scales with pool size x combos, so use it with reduced
     * geometries or modest pools.
     *
     * @param max_groups Stop after discovering this many combos
     *                   (0 = all).
     */
    ComboGroups buildByConflictTesting(std::size_t max_groups = 0);

    /**
     * Timing test: does reading @p candidate evict the line at
     * @p target? (prime target, sweep candidate, timed reload).
     * Majority vote over kConflictVotes trials.
     */
    bool evicts(const std::vector<Addr> &candidate, Addr target);

    /** Number of timed loads issued so far (attack cost metric). */
    std::uint64_t timedLoads() const { return timedLoads_; }

  private:
    cache::Hierarchy &hier_;
    mem::AddressSpace &space_;
    BuilderConfig cfg_;
    std::vector<Addr> poolPhys_;  ///< Translated pool page bases.
    std::uint64_t timedLoads_ = 0;
    Cycles vnow_ = 0;  ///< Virtual time cursor for offline construction.
    Rng rng_{0xE51C7u}; ///< Drives reduction-reshuffle retries.

    void allocatePool();

    /** One eviction trial (no voting). */
    bool evictsOnce(const std::vector<Addr> &candidate, Addr target);

    /**
     * Reduce @p candidates to a minimal eviction set for @p target
     * (group-test reduction, Vila et al. style).
     */
    std::vector<Addr> reduce(std::vector<Addr> candidates, Addr target);
};

} // namespace pktchase::attack

#endif // PKTCHASE_ATTACK_EVICTION_SET_HH
