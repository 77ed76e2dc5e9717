#include "injection_policy.hh"

#include <algorithm>

#include "cache/llc.hh"
#include "sim/logging.hh"

namespace pktchase::cache
{

namespace
{

void
checkDdioWays(const Llc &llc, const char *policy)
{
    if (kDdioWays > llc.geometry().ways) {
        fatal(std::string(policy) + ": the " + std::to_string(kDdioWays) +
              " DDIO ways exceed the set's ways");
    }
}

} // namespace

void
NoDdioPolicy::init(Llc &llc)
{
    checkDdioWays(llc, "NoDdioPolicy");
}

void
DdioPolicy::init(Llc &llc)
{
    checkDdioWays(llc, "DdioPolicy");
}

DdioWaysPolicy::DdioWaysPolicy(unsigned ways)
    : ways_(ways)
{
    if (ways_ == 0)
        fatal("DdioWaysPolicy: ddio-ways must be nonzero");
}

std::string
DdioWaysPolicy::name() const
{
    return "cache.ddio-ways:" + std::to_string(ways_);
}

void
DdioWaysPolicy::init(Llc &llc)
{
    if (ways_ > llc.geometry().ways)
        fatal("DdioWaysPolicy: ddio-ways exceeds the set's ways");
}

static_assert(AdaptivePartitionPolicy::kIoLinesMin > 0 &&
              AdaptivePartitionPolicy::kIoLinesMin <=
                  AdaptivePartitionPolicy::kIoLinesInit &&
              AdaptivePartitionPolicy::kIoLinesInit <=
                  AdaptivePartitionPolicy::kIoLinesMax &&
              AdaptivePartitionPolicy::kAdaptPeriod > 0,
              "adaptive partition tunables out of order");

void
AdaptivePartitionPolicy::init(Llc &llc)
{
    const Geometry &geom = llc.geometry();
    // The CPU side keeps at least one way at the largest partition.
    if (kIoLinesMax >= geom.ways)
        fatal("Llc: bad adaptive partition bounds for this associativity");

    ways_ = geom.ways;
    part_.assign(geom.totalSets(), PartState{
        static_cast<std::uint8_t>(kIoLinesInit), 0, 0, 0});
}

unsigned
AdaptivePartitionPolicy::ioCap(std::size_t gset) const
{
    return part_[gset].ioLines;
}

void
AdaptivePartitionPolicy::adapt(Llc &llc, std::size_t gset)
{
    PartState &ps = part_[gset];
    llc.notePartitionAdaptation();
    const unsigned old_lines = ps.ioLines;
    if (ps.presentAcc > kTHigh) {
        ps.ioLines = static_cast<std::uint8_t>(
            std::min<unsigned>(ps.ioLines + 1, kIoLinesMax));
    } else if (ps.presentAcc < kTLow) {
        ps.ioLines = static_cast<std::uint8_t>(
            std::max<unsigned>(ps.ioLines - 1, kIoLinesMin));
    }
    if (ps.ioLines != old_lines)
        enforce(llc, gset);
}

void
AdaptivePartitionPolicy::enforce(Llc &llc, std::size_t gset)
{
    const PartState &ps = part_[gset];
    // Shrink: displace I/O lines beyond the new bound.
    while (llc.ioCount(gset) > ps.ioLines)
        llc.partitionDrop(gset, true);
    // Grow: displace CPU lines past the reduced CPU quota.
    const unsigned cpu_quota = ways_ - ps.ioLines;
    while (llc.validCount(gset) - llc.ioCount(gset) > cpu_quota)
        llc.partitionDrop(gset, false);
}

void
AdaptivePartitionPolicy::onAccess(Llc &llc, std::size_t gset,
                                  Cycles now)
{
    PartState &ps = part_[gset];
    if (now < ps.lastUpdate) {
        // Out-of-order timestamps can occur when distinct agents use
        // loosely synchronized clocks; treat as "no time elapsed".
        return;
    }

    // Between accesses the set's contents are constant, so presence is
    // constant over the catch-up span. The partition size saturates
    // after at most (max - min) same-direction adjustments, after which
    // further idle periods are no-ops and can be skipped in O(1).
    unsigned budget = kIoLinesMax - kIoLinesMin + 1;
    while (ps.periodStart + kAdaptPeriod <= now) {
        const Cycles period_end = ps.periodStart + kAdaptPeriod;
        const bool present = llc.ioCount(gset) > 0;
        if (present)
            ps.presentAcc += period_end - ps.lastUpdate;
        adapt(llc, gset);
        ps.presentAcc = 0;
        ps.periodStart = period_end;
        ps.lastUpdate = period_end;

        if (budget > 0)
            --budget;
        if (budget == 0) {
            // Partition size has saturated for this (constant) presence
            // level; every further idle period repeats the same decision,
            // so whole periods can be skipped in O(1).
            const Cycles whole =
                (now - ps.periodStart) / kAdaptPeriod;
            if (whole > 0) {
                ps.periodStart += whole * kAdaptPeriod;
                ps.lastUpdate = ps.periodStart;
            }
        }
    }
    const bool present = llc.ioCount(gset) > 0;
    if (present)
        ps.presentAcc += now - ps.lastUpdate;
    ps.lastUpdate = now;
}

} // namespace pktchase::cache
