/**
 * @file
 * The mergeable profile report: where the campaign's wall-clock went,
 * per phase and per cell, as a sim::BenchReport artifact.
 *
 *     campaign figD1 --profile=BENCH_profile.json
 *     campaign figD1 --shard=0/2 --profile=p0.json   # + 1/2 ...
 *     campaign --merge BENCH_profile.json p0.json p1.json
 *
 * Shape (bench = "profile"): the campaign identity metas (grid,
 * campaign_seed, grid_size, shard spec) plus a "clock" meta ("wall",
 * or "ticks:N" under the deterministic test clock), an
 * obs::RunManifest with hostname and thread count (profile numbers
 * are host-bound, unlike campaign metrics), top-level scalars, and
 * one row-tagged cell per grid cell.
 *
 * Per-cell metrics, for every phase with spans in that cell:
 * <phase>.count/.total_ns/.self_ns/.min_ns/.max_ns and the nonzero
 * log2 histogram buckets <phase>.h<b> (bucket b covers [2^(b-1), 2^b)
 * ns; b = 0 is exactly 0 ns). All integer-valued doubles, emitted
 * decimal + hexfloat like every report cell.
 *
 * Top-level scalars: the aggregate phase table -- the per-cell fields
 * summed (min/max folded), plus derived <phase>.total_sec/.self_sec,
 * <phase>.self_share (share of the report's total self time) and
 * <phase>.throughput_hz (spans per inclusive second) -- followed by
 * trace.dropped_events and, when a trace session is live in this
 * run, per-thread trace.dropped.t<tid> counts.
 *
 * Merge discipline: the aggregate table is a pure function of the
 * cell rows, recomputed by the same code on both the emit and merge
 * paths -- so a merged report's table is byte-identical to the
 * unsharded run's whenever the cell rows are (which the tick clock
 * makes testable). Phases are ordered by name everywhere: phase *ids*
 * are first-use registration order, which thread interleaving may
 * permute, so nothing serialized may depend on them.
 */

#ifndef PKTCHASE_RUNTIME_FABRIC_PROFILE_REPORT_HH
#define PKTCHASE_RUNTIME_FABRIC_PROFILE_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/manifest.hh"
#include "runtime/fabric/shard.hh"
#include "runtime/scenario.hh"
#include "sim/bench_report.hh"

namespace pktchase::runtime
{

/** One profile-report cell row in serializable form. */
struct ProfileCell
{
    std::size_t index = 0;  ///< Full-grid index.
    std::uint64_t seed = 0; ///< splitSeed(campaign seed, index).
    std::string name;
    sim::BenchReport::Metrics metrics; ///< <phase>.<field> keys.
};

/**
 * Serialize campaign @p results (whose ScenarioResult::profile the
 * campaign drain filled) into cell rows: id-indexed PhaseStats become
 * name-keyed metrics, phases sorted by name, zero-count phases
 * skipped.
 */
std::vector<ProfileCell>
profileCellsFromResults(std::uint64_t campaignSeed,
                        const std::vector<ScenarioResult> &results);

/**
 * Assemble a profile report from serialized @p cells: identity metas,
 * @p manifest, the aggregate phase table recomputed from the rows,
 * @p traceDropped (the trace.dropped_events scalar) and
 * @p extraScalars (per-thread drop counts; emitted after the total,
 * in the order given). The merge path re-enters here with parsed
 * rows, which is what keeps merged == unsharded byte-identical.
 */
sim::BenchReport profileReportFromCells(
    const std::string &gridName, std::uint64_t campaignSeed,
    std::size_t gridSize, const ShardSpec &shard,
    const std::string &clockTag, const obs::RunManifest &manifest,
    double traceDropped, const sim::BenchReport::Metrics &extraScalars,
    const std::vector<ProfileCell> &cells);

/**
 * The whole emit path for one campaign run: cells from @p results,
 * manifest = obs::RunManifest::host(@p threads), trace drop counts
 * read from the live obs::TraceSession (0 / none without one).
 */
sim::BenchReport profileReport(const std::string &gridName,
                               std::uint64_t campaignSeed,
                               std::size_t gridSize,
                               const ShardSpec &shard, unsigned threads,
                               const std::string &clockTag,
                               const std::vector<ScenarioResult> &results);

} // namespace pktchase::runtime

#endif // PKTCHASE_RUNTIME_FABRIC_PROFILE_REPORT_HH
