/**
 * @file
 * PRIME+PROBE primitives over eviction sets (the Mastik role).
 *
 * A probe of one eviction set reads all of its addresses and reports
 * whether any read missed (someone displaced the spy's line since the
 * previous probe). Probing doubles as re-priming, so a monitor loop is
 * simply repeated probes. Probe cost is accounted in simulated cycles:
 * the monitor consumes time exactly as the real attacker does, which is
 * what bounds how many sets can be watched at a given resolution
 * (Sec. III-B's "12 million cycles to access the entire cache").
 */

#ifndef PKTCHASE_ATTACK_PRIME_PROBE_HH
#define PKTCHASE_ATTACK_PRIME_PROBE_HH

#include <cstdint>
#include <vector>

#include "attack/eviction_set.hh"
#include "cache/hierarchy.hh"
#include "sim/types.hh"

namespace pktchase::attack
{

/** One probe round over a monitor list. */
struct ProbeSample
{
    Cycles start = 0;               ///< When the round began.
    Cycles end = 0;                 ///< When it finished.
    std::vector<std::uint8_t> active; ///< Per-set: any miss observed.
};

/**
 * Probes a list of eviction sets and reports per-set activity.
 */
class PrimeProbeMonitor
{
  public:
    /**
     * A read slower than kMissThreshold counts as a miss.
     *
     * @param hier Timing oracle.
     * @param sets Eviction sets to monitor (copied).
     */
    PrimeProbeMonitor(cache::Hierarchy &hier,
                      std::vector<EvictionSet> sets);

    /**
     * Prime all sets (initial fill) starting at @p now.
     * @return Cycles consumed.
     */
    Cycles primeAll(Cycles now);

    /**
     * One probe round over every monitored set starting at @p now.
     *
     * @return A reference to the monitor's internal sample, overwritten
     *         by the next probeAll round -- copy it to retain. Borrowed
     *         references handed out synchronously (observer callbacks)
     *         are safe; storing across rounds is not.
     */
    const ProbeSample &probeAll(Cycles now);

    /**
     * Probe a single monitored set.
     * @return Number of missing (evicted) lines observed.
     */
    unsigned probeOne(std::size_t index, Cycles now, Cycles &elapsed);

    /** Replace the eviction set at @p index (always-miss fallback). */
    void replaceSet(std::size_t index, EvictionSet set);

    /** Number of monitored sets. */
    std::size_t size() const { return setStart_.size() - 1; }

    /** Total timed loads issued (attack cost metric). */
    std::uint64_t timedLoads() const { return timedLoads_; }

  private:
    cache::Hierarchy &hier_;
    std::uint64_t timedLoads_ = 0;

    // Every monitored line as its LLC key (global set, tag), the sets
    // concatenated in order, with CSR-style per-set offsets: set i is
    // keys_[setStart_[i], setStart_[i + 1]). The keys are derived
    // once, when a set is added -- that is where a too-wide tag is
    // fatal -- so the walks (primeAll/probeAll/probeOne) hand
    // contiguous key ranges to Hierarchy::timedWalk without hashing
    // an address. The walk order is the per-set order, so timestamps
    // and RNG draws are those of per-address timed reads. replaceSet
    // splices one set's keys and shifts the later offsets.
    std::vector<cache::LineKey> keys_;
    std::vector<std::size_t> setStart_; ///< size() + 1 offsets.
    ProbeSample sample_; ///< Reused by probeAll across rounds.
};

} // namespace pktchase::attack

#endif // PKTCHASE_ATTACK_PRIME_PROBE_HH
