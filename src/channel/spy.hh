/**
 * @file
 * The covert-channel spy: an unprivileged local process with no network
 * access that decodes symbols from LLC activity (Sec. IV-b).
 *
 * For each monitored ring buffer the spy watches three eviction sets:
 * the buffer's second block (the clock -- it fires for every packet
 * because of the driver prefetch), third block, and fourth block. A
 * decode window of three samples absorbs wide peaks (one packet's
 * activity spanning two samples) and arrival skew.
 *
 * The sampling loop is an attack::ProbeEngine sample stream; the
 * SpyDecoder observer turns the raw (clock, b2, b3) sample train into
 * the symbol stream. CovertSpy bundles the two behind the original
 * listen() front-end. The monitored combos are plain LLC sets, so the
 * spy works unchanged on a multi-queue NIC -- RSS pins the trojan's
 * flow to one ring, and whichever ring that is, its buffers' sets
 * light up the same way.
 */

#ifndef PKTCHASE_CHANNEL_SPY_HH
#define PKTCHASE_CHANNEL_SPY_HH

#include <cstdint>
#include <vector>

#include "attack/probe_engine.hh"
#include "channel/encoding.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace pktchase::channel
{

/** One decoded symbol with its detection time. */
struct SymbolEvent
{
    Cycles when = 0;
    unsigned symbol = 0;
    std::size_t buffer = 0; ///< Index into the monitored buffer list.
};

/** Result of a listening session. */
struct ListenResult
{
    std::vector<SymbolEvent> events; ///< Time-ordered decoded symbols.
    std::uint64_t rounds = 0;        ///< Probe rounds executed.

    /** Just the symbol values, in time order. */
    std::vector<unsigned> symbols() const;
};

/**
 * ProbeEngine observer that records each monitored buffer's raw
 * (clock, b2, b3) sample train and decodes it into symbol events.
 */
class SpyDecoder : public attack::ProbeObserver
{
  public:
    /** Samples ORed per decode window. */
    static constexpr unsigned kDecodeWindow = 3;

    /**
     * @param scheme  Expected alphabet.
     * @param buffers Number of monitored buffers.
     * @param stream  Engine stream id to listen to.
     */
    SpyDecoder(Scheme scheme, std::size_t buffers,
               std::size_t stream = 0);

    void onObservation(const attack::ProbeObservation &obs) override;

    /** Decode everything recorded so far into a time-ordered result. */
    ListenResult result() const;

  private:
    /** Raw per-buffer samples: (time, clock, b2, b3). */
    struct RawSample
    {
        Cycles when;
        bool clock, b2, b3;
    };

    Scheme scheme_;
    std::size_t stream_;
    std::vector<std::vector<RawSample>> raw_;
    std::uint64_t rounds_ = 0;

    /** Decode one buffer's sample train into symbol events. */
    std::vector<SymbolEvent>
    decodeBuffer(std::size_t buffer,
                 const std::vector<RawSample> &samples) const;
};

/**
 * Samples the monitored buffers and decodes the symbol stream.
 */
class CovertSpy
{
  public:
    /**
     * @param hier          Timing oracle; eviction sets are as wide
     *                      as its LLC is associative.
     * @param groups        Spy pool partition.
     * @param buffer_combos Combos of the monitored ring buffers (each
     *                      should host exactly one buffer).
     * @param scheme        Expected alphabet.
     * @param probe_rate_hz Probe rounds per second (Fig. 11 sweeps
     *                      {7, 14, 28} kHz).
     */
    CovertSpy(cache::Hierarchy &hier, const attack::ComboGroups &groups,
              std::vector<std::size_t> buffer_combos, Scheme scheme,
              double probe_rate_hz = 14000);

    /**
     * Sample until @p horizon (traffic pumps already scheduled on
     * @p eq), then decode. Call once per spy.
     */
    ListenResult listen(EventQueue &eq, Cycles horizon);

  private:
    attack::ProbeEngine engine_;
    SpyDecoder decoder_;
};

} // namespace pktchase::channel

#endif // PKTCHASE_CHANNEL_SPY_HH
