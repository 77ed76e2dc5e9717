/**
 * @file
 * Packet-size detection over block-row eviction sets (Fig. 8).
 *
 * The detector probes "rows": the eviction sets of in-page block k
 * (k = 0..3) across a list of combos. When a stream of packets of a
 * given size flows, rows up to the packet's block count show activity
 * and higher rows stay quiet -- except row 1, which always fires
 * because the driver prefetches the second block regardless of size
 * (the Fig. 8 anomaly).
 *
 * The sampling loop is an attack::ProbeEngine sample stream (one
 * monitor per row); the SizeClassifier observer accumulates per-row,
 * per-combo activity rates.
 */

#ifndef PKTCHASE_ATTACK_SIZE_DETECTOR_HH
#define PKTCHASE_ATTACK_SIZE_DETECTOR_HH

#include <cstdint>
#include <vector>

#include "attack/probe_engine.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace pktchase::attack
{

/**
 * ProbeEngine observer that accumulates per-(row, combo) activity
 * counts from a sample stream whose monitors are block rows.
 */
class SizeClassifier : public ProbeObserver
{
  public:
    /**
     * @param rows   Number of row monitors in the stream.
     * @param combos Sets per row monitor (the monitored combo count).
     * @param stream Engine stream id to listen to.
     */
    SizeClassifier(unsigned rows, std::size_t combos,
                   std::size_t stream = 0);

    void onObservation(const ProbeObservation &obs) override;

    /** Full rounds observed so far. */
    std::uint64_t rounds() const { return rounds_; }

    /** activity[row][combo] as a fraction of observed rounds. */
    std::vector<std::vector<double>> rates() const;

  private:
    std::size_t stream_;
    std::vector<std::vector<std::uint64_t>> hits_;
    std::uint64_t rounds_ = 0;
};

/**
 * Probes block rows of the monitored combos and reports per-row and
 * per-(row, combo) activity rates.
 */
class SizeDetector
{
  public:
    /** Block rows 0..kRows-1 are probed. */
    static constexpr unsigned kRows = 4;

    /** Probe rounds per second. */
    static constexpr double kProbeRateHz = 8000;

    /**
     * @param hier   Timing oracle; eviction sets are as wide as its
     *               LLC is associative.
     * @param groups Combo partition of the spy pool.
     * @param combos Monitored combos.
     */
    SizeDetector(cache::Hierarchy &hier, const ComboGroups &groups,
                 std::vector<std::size_t> combos);

    /**
     * Probe until @p horizon (traffic already scheduled on @p eq).
     * Call once per detector.
     * @return activity[row][combo] as a fraction of probe rounds.
     */
    std::vector<std::vector<double>> measure(EventQueue &eq,
                                             Cycles horizon);

    /** Collapse a measure() result to per-row mean activity. */
    static std::vector<double>
    rowActivity(const std::vector<std::vector<double>> &m);

  private:
    ProbeEngine engine_;
    SizeClassifier classifier_;
};

} // namespace pktchase::attack

#endif // PKTCHASE_ATTACK_SIZE_DETECTOR_HH
