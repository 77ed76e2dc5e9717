/**
 * @file
 * The streaming probe engine: one event-queue-driven scheduler behind
 * every attacker front-end (packet chasing, the covert-channel spy,
 * the size detector).
 *
 * The engine owns eviction-set monitors and multiplexes probe rounds
 * over any number of *streams* on one EventQueue:
 *
 *  - a **chase stream** follows a ring-buffer combo sequence with a
 *    cursor: it probes only the next expected buffer, classifies the
 *    packet's size from which block rows fired, advances on every
 *    detection, and parks (one out-of-sync event) when the expected
 *    buffer stays quiet past the resync timeout (Secs. III-C, IV-c).
 *    A multi-queue NIC is chased with one stream per RxQueue, each
 *    resyncing independently on its own ring;
 *  - a **sample stream** probes a fixed monitor list at a configured
 *    rate, reporting raw per-set activity (the covert spy's buffer
 *    watch, Sec. IV-b, and the Fig. 8 size-detector rows).
 *
 * Every probe round is reported as a timestamped ProbeObservation to
 * the attached ProbeObservers. Delivery is arrival-ordered across
 * streams: the shared EventQueue executes rounds in cycle order with a
 * deterministic FIFO tie-break, and each observation carries a global
 * sequence number, so the merged stream is bit-identical from run to
 * run regardless of how many queues are chased. With a single stream
 * the engine's probe schedule is load-for-load identical to the
 * pre-engine monolithic loops (tests/probe_golden_test.cc pins this).
 *
 * Observers are isolated from the engine and from each other: they
 * receive const observations, never touch the hierarchy, and cannot
 * perturb cursor state, so attaching a second observer changes no
 * timing and no delivered data.
 */

#ifndef PKTCHASE_ATTACK_PROBE_ENGINE_HH
#define PKTCHASE_ATTACK_PROBE_ENGINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "attack/eviction_set.hh"
#include "attack/prime_probe.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace pktchase::attack
{

/** What a ProbeObservation reports. */
enum class ProbeKind : std::uint8_t
{
    Packet, ///< Chase stream: a packet detected on the cursor buffer.
    Resync, ///< Chase stream: cursor parked waiting for the ring wrap.
    Sample, ///< Sample stream: one monitor's raw probe-round activity.
};

/**
 * One timestamped engine event, delivered to every attached observer
 * in arrival order.
 */
struct ProbeObservation
{
    ProbeKind kind = ProbeKind::Sample;
    Cycles when = 0;         ///< Detection time / probe-round start.
    std::size_t stream = 0;  ///< Engine stream id (chase: the queue).
    std::size_t buffer = 0;  ///< Ring slot (chase) / monitor index.
    unsigned sizeClass = 0;  ///< Packet only: 1..sizeBlocks.
    bool secondHalf = false; ///< Packet only: upper half-page fired.
    std::uint64_t seq = 0;   ///< Global arrival rank across streams.

    /**
     * Sample only: per-set activity of the round. Borrowed from the
     * engine -- valid only for the duration of the callback.
     */
    const std::uint8_t *active = nullptr;
    std::size_t activeCount = 0;
};

/** Receives every engine observation. Implementations must not block
 *  or touch the hierarchy; they see each observation exactly once. */
class ProbeObserver
{
  public:
    virtual ~ProbeObserver() = default;

    virtual void onObservation(const ProbeObservation &obs) = 0;
};

/** Engine knobs: the chase stream's probe shape and cadence, and the
 *  sample streams' rate. */
struct ProbeEngineConfig
{
    /** Blocks probed per half-page (4 -> size classes 1..4+). */
    unsigned sizeBlocks = 4;

    /**
     * First in-page block row to probe. The web-fingerprint attack
     * probes rows 0..3; the covert channel probes rows 1..3 (Sec.
     * IV-b) -- row 1 fires for every packet thanks to the driver
     * prefetch, acting as the clock, and dropping row 0 cuts probe
     * cost enough to chase line-rate-ish senders.
     */
    unsigned firstBlock = 0;

    /**
     * Probe only the lower half-page. Correct whenever the traffic
     * stays at or below the copy-break threshold (no page flips), and
     * halves the probe cost -- the covert channel uses this.
     */
    bool lowerHalfOnly = false;

    /** Gap between consecutive per-buffer chase probes. */
    Cycles probeInterval = 4000;

    /** Probe rounds per second for sample streams. */
    double sampleRateHz = 14000;

    /** The defaults, sampling at @p rate_hz (sample-only engines). */
    static ProbeEngineConfig
    sampling(double rate_hz)
    {
        ProbeEngineConfig cfg;
        cfg.sampleRateHz = rate_hz;
        return cfg;
    }
};

/**
 * Schedules probe rounds for every stream and fans observations out to
 * the observers. One engine instance runs one experiment: add streams,
 * attach observers, then run() once to the horizon.
 */
class ProbeEngine
{
  public:
    /**
     * Cycles without activity on a chase cursor's expected buffer
     * before declaring out-of-sync and waiting for the ring to wrap.
     */
    static constexpr Cycles kResyncTimeout = 5'000'000;

    /** Eviction sets are as wide as @p hier's LLC is associative. */
    ProbeEngine(cache::Hierarchy &hier, const ProbeEngineConfig &cfg);

    ProbeEngine(const ProbeEngine &) = delete;
    ProbeEngine &operator=(const ProbeEngine &) = delete;

    /**
     * Add a chase stream following @p combo_seq (the ring order of one
     * receive queue, one entry per ring slot). Builds one monitor per
     * slot over 2*sizeBlocks sets (blocks firstBlock.. of both
     * half-pages; lower half only under cfg.lowerHalfOnly).
     *
     * @return The stream id (ProbeObservation::stream).
     */
    std::size_t addChaseStream(const ComboGroups &groups,
                               std::vector<std::size_t> combo_seq);

    /**
     * Add a sample stream: one monitor per entry of @p buffer_sets,
     * probed in order every round at cfg.sampleRateHz.
     *
     * @return The stream id.
     */
    std::size_t
    addSampleStream(std::vector<std::vector<EvictionSet>> buffer_sets);

    /** Attach @p obs (not owned; must outlive run()). */
    void attach(ProbeObserver &obs);

    /** Per-stream accounting. */
    struct StreamStats
    {
        std::uint64_t probes = 0;  ///< Probe rounds executed.
        std::uint64_t packets = 0; ///< Chase: packets observed.
        std::uint64_t outOfSyncEvents = 0;
        std::size_t cursor = 0;    ///< Chase: current ring slot.
    };

    /**
     * Prime every stream's monitors, then run @p eq to @p horizon,
     * delivering observations as they happen (traffic pumps must
     * already be scheduled). Call once per engine.
     */
    void run(EventQueue &eq, Cycles horizon);

    /** Number of streams added. */
    std::size_t streams() const { return streams_.size(); }

    const StreamStats &stats(std::size_t stream) const;

    /** Total observations delivered (the next seq to be assigned). */
    std::uint64_t observationsDelivered() const { return nextSeq_; }

  private:
    struct Stream
    {
        bool chase = false;
        std::vector<PrimeProbeMonitor> monitors;

        // Chase-cursor state.
        std::size_t cursor = 0;
        Cycles lastActivity = 0;
        std::vector<std::uint8_t> accum;

        StreamStats stats;
        std::function<void()> step; ///< Self-rescheduling round.
    };

    cache::Hierarchy &hier_;
    ProbeEngineConfig cfg_;
    std::vector<std::unique_ptr<Stream>> streams_;
    std::vector<ProbeObserver *> observers_;
    std::uint64_t nextSeq_ = 0;
    bool ran_ = false;

    /** Stamp the global seq and fan out to every observer. */
    void deliver(ProbeObservation &obs);

    /**
     * Classify a chase probe round: 0 = no packet; otherwise the size
     * class, with @p second_half set when the upper half fired.
     */
    unsigned classify(const std::vector<std::uint8_t> &active,
                      bool &second_half) const;

    void scheduleChase(EventQueue &eq, Stream &st, std::size_t id,
                       Cycles horizon);
    void scheduleSample(EventQueue &eq, Stream &st, std::size_t id,
                        Cycles horizon);
};

/**
 * One packet observed by a chase stream (the engine's Packet
 * observations, collected by ChasingObserver).
 */
struct PacketObservation
{
    Cycles when = 0;
    unsigned sizeClass = 0;  ///< 1..sizeBlocks ("4" means >= 4 blocks).
    bool secondHalf = false; ///< Landed in the upper half of the page.
    std::size_t slot = 0;    ///< Ring slot the spy attributed it to.
    std::size_t queue = 0;   ///< Chase stream (receive queue) index.
};

/**
 * Collects a chase's packets in arrival order, merged across every
 * chase stream, plus the out-of-sync count.
 */
class ChasingObserver : public ProbeObserver
{
  public:
    void onObservation(const ProbeObservation &obs) override;

    const std::vector<PacketObservation> &packets() const
    {
        return packets_;
    }

    std::uint64_t outOfSyncEvents() const { return outOfSync_; }

  private:
    std::vector<PacketObservation> packets_;
    std::uint64_t outOfSync_ = 0;
};

} // namespace pktchase::attack

#endif // PKTCHASE_ATTACK_PROBE_ENGINE_HH
