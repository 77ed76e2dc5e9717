/**
 * @file
 * Memory hierarchy facade: latency model over the LLC plus the two DMA
 * injection paths (DDIO and memory-first).
 *
 * The attacker's PRIME+PROBE loads are modelled as reaching the LLC
 * directly (Mastik's probe loops are constructed to defeat L1/L2 with
 * pointer chasing), so the timing signal is "LLC hit latency" vs.
 * "DRAM latency" plus measurement noise. Noise has two components:
 * Gaussian jitter on every measurement and occasional large outliers
 * (interrupts, TLB walks), both configurable so experiments can sweep
 * the noise floor.
 */

#ifndef PKTCHASE_CACHE_HIERARCHY_HH
#define PKTCHASE_CACHE_HIERARCHY_HH

#include <cstdint>
#include <memory>

#include "cache/llc.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace pktchase::cache
{

/** Latency and noise parameters for the hierarchy. */
struct HierarchyConfig
{
    Cycles llcHitLatency = 44;    ///< LLC hit, cross-slice average.
    Cycles dramLatency = 220;     ///< LLC miss serviced by DRAM.
    double timerNoiseSigma = 4.0; ///< Gaussian jitter on measurements.

    /**
     * Per-access probability of a large measurement outlier (timer
     * interrupt, TLB walk). The spy issues tens of millions of loads
     * per second, so this must be calibrated against an event rate,
     * not a fraction: 2e-6 at ~60M loads/s is roughly 120 spikes/s,
     * matching a quiet pinned core.
     */
    double outlierProb = 2e-6;
    Cycles outlierCycles = 3000;  ///< Magnitude of such a spike.
    std::uint64_t seed = 7;
};

/** Aggregate DMA-side traffic counters (non-LLC path). */
struct DmaStats
{
    std::uint64_t ddioBlocks = 0;     ///< Blocks injected via DDIO.
    std::uint64_t memWriteBlocks = 0; ///< Blocks written straight to DRAM.
};

/**
 * Facade combining the LLC, a flat DRAM latency, and the I/O paths.
 */
class Hierarchy
{
  public:
    /**
     * @param llc_cfg  LLC configuration.
     * @param cfg      Latency/noise configuration.
     * @param hash     Slice hash (owned).
     * @param policy   DMA injection policy (owned by the LLC); nullptr
     *                 means the DDIO baseline.
     */
    Hierarchy(const LlcConfig &llc_cfg, const HierarchyConfig &cfg,
              std::unique_ptr<SliceHash> hash,
              std::unique_ptr<InjectionPolicy> policy = nullptr);

    /**
     * Timed CPU read as the attacker measures it.
     *
     * Noise draws: every read draws its noise from the timer-noise
     * generator, in read order, whether it hit or missed. The one
     * exception is a noiseless hierarchy (timerNoiseSigma == 0 and
     * outlierProb == 0): no draw could move a latency there, so reads
     * return max(hit ? llcHitLatency : dramLatency, 1) and draw
     * nothing.
     *
     * @return The measured latency in cycles (includes noise).
     */
    Cycles timedRead(Addr paddr, Cycles now);

    /** Reads per timedWalk chunk: the noise is drawn a chunk ahead. */
    static constexpr std::size_t kWalkChunk = 64;

    /**
     * Back-to-back timed reads of the @p n lines @p keys (see
     * Llc::lineKey), the first at @p t and each next one when the
     * previous measurement ends. Read for read the same as timedRead
     * on the keys' addresses: the same latencies, cache state and
     * noise draws (none on a noiseless hierarchy).
     *
     * @param misses Incremented per read whose latency exceeds
     *               @p threshold.
     * @return When the last read's measurement ends.
     */
    Cycles timedWalk(const LineKey *keys, std::size_t n, Cycles t,
                     Cycles threshold, unsigned &misses);

    /**
     * Timed reads whose noise the fast path could not round with
     * certainty and that took the exact Box-Muller transform instead.
     */
    std::uint64_t noiseFallbacks() const { return noiseFallbacks_; }

    /** The timer-noise generator (its state, for equivalence tests). */
    const Rng &noiseRng() const { return noise_.rng; }

    /** Untimed CPU read (victim/driver activity). @return true on hit. */
    bool cpuRead(Addr paddr, Cycles now);

    /** Untimed CPU write. @return true on hit. */
    bool cpuWrite(Addr paddr, Cycles now);

    /**
     * NIC DMA write of @p bytes starting at @p paddr. With DDIO the
     * blocks are injected into the LLC (dirty); without, they are
     * written to memory and any cached copies invalidated.
     */
    void dmaWrite(Addr paddr, Addr bytes, Cycles now);

    /** Whether DDIO injection is active (the policy injects to LLC). */
    bool ddioEnabled() const
    {
        return llc_->injectionPolicy().injectsToLlc();
    }

    /** Total memory read traffic in blocks (fills). */
    std::uint64_t memReadBlocks() const;

    /** Total memory write traffic in blocks (writebacks + DMA). */
    std::uint64_t memWriteBlocks() const;

    Llc &llc() { return *llc_; }
    const Llc &llc() const { return *llc_; }
    const DmaStats &dmaStats() const { return dma_; }
    const HierarchyConfig &config() const { return cfg_; }

  private:
    /** cfg_'s latency and noise parameters, as the reads use them. */
    struct LatencyModel
    {
        double hit = 0.0;         ///< llcHitLatency.
        double miss = 0.0;        ///< dramLatency.
        double outlier = 0.0;     ///< outlierCycles.
        double outlierProb = 0.0;
        double sigma = 0.0;       ///< timerNoiseSigma.
        double band = 0.0;        ///< Bound on |approx - exact| latency.
        bool exact = false;       ///< Band too wide: always transform.
        bool approx = false;      ///< sigma != 0 and !exact.
        bool noiseless = false;   ///< sigma == 0 and outlierProb == 0.
        Cycles quietHit = 0;      ///< Noiseless hit latency.
        Cycles quietMiss = 0;     ///< Noiseless miss latency.
    };

    // Timer noise. rng draws what rng.nextGaussian() followed by
    // rng.nextBool() would: a fresh (u1, u2) pair on every other
    // read, then the outlier trial. The pair state lives here so the
    // noise can be rounded from an approximation (hierarchy.cc).
    struct NoiseState
    {
        Rng rng;
        bool pairHalf = false;     ///< The next read takes the sin half.
        double u1 = 0.0;           ///< The current pair's uniforms.
        double u2 = 0.0;
        double approxSecond = 0.0; ///< Approximate sin-half variate.
    };

    /** One timed read's noise draws. */
    struct NoiseDraw
    {
        double g;     ///< Approximate variate (used if approx).
        double u1;    ///< The pair's uniforms, for the exact transform.
        double u2;
        bool second;  ///< The read takes the pair's sin half.
        bool outlier; ///< The read takes an outlier spike.
    };

    // Static, so that timedWalk can run them on local copies of
    // lat_, noise_ and noiseFallbacks_.

    /** Draw the next read's noise from @p s. */
    static NoiseDraw drawNoise(NoiseState &s, const LatencyModel &m);

    /** The measured latency of a read that hit or missed. */
    static Cycles measure(const LatencyModel &m, bool hit,
                          const NoiseDraw &noise,
                          std::uint64_t &fallbacks);

    HierarchyConfig cfg_;
    std::unique_ptr<Llc> llc_;
    DmaStats dma_;
    LatencyModel lat_;
    NoiseState noise_;
    std::uint64_t noiseFallbacks_ = 0;
};

} // namespace pktchase::cache

#endif // PKTCHASE_CACHE_HIERARCHY_HH
