/**
 * @file
 * Run provenance for emitted reports: which build produced this
 * artifact, on what machine, with how many threads.
 *
 * Every sim::BenchReport the repo writes embeds a RunManifest (a
 * nested "manifest" JSON object), so a BENCH_*.json or profile report
 * found in CI artifacts -- or compared weeks later -- answers "built
 * from which sha, by which compiler, with which flags" by itself. The campaign-side metas
 * (campaign_seed, grid, shard slice) stay where they are; the
 * manifest covers the *build and host*, the metas cover the *run*.
 *
 * Two flavors, because of the shard-merge byte-identity contract:
 *  - build(): git sha + compiler + build flags only. Deterministic
 *    for a given build tree, so campaign metric reports produced by
 *    different CI jobs of the same commit still compare byte-equal
 *    (`cmp merged.json full.json` across runners).
 *  - host(threads): build() plus hostname and thread count. For
 *    bench artifacts and profile reports, whose numbers are
 *    host-dependent anyway -- there the provenance should say where.
 *
 * Values come from compile-time definitions CMake injects into
 * manifest.cc at configure time (PKTCHASE_GIT_SHA and friends); a
 * build without them says "unknown" rather than guessing. The sha is
 * captured at *configure* time, so an incremental build on new
 * commits reports the configure-time sha until the next CMake rerun
 * -- acceptable for CI (always a fresh configure), documented for
 * local use.
 */

#ifndef PKTCHASE_OBS_MANIFEST_HH
#define PKTCHASE_OBS_MANIFEST_HH

#include <string>

namespace pktchase::obs
{

/** Build/host provenance embedded in emitted reports. */
struct RunManifest
{
    std::string gitSha;     ///< Configure-time HEAD sha (or "unknown").
    std::string compiler;   ///< e.g. "GNU 13.2.0".
    std::string buildFlags; ///< Build type + sanitizer switches.
    std::string hostname;   ///< Empty = omitted from the report.
    unsigned threads = 0;   ///< 0 = omitted from the report.

    /** Deterministic-per-build manifest (no hostname/threads). */
    static RunManifest build();

    /** build() plus hostname and @p threads for host-bound artifacts. */
    static RunManifest host(unsigned threads = 0);
};

} // namespace pktchase::obs

#endif // PKTCHASE_OBS_MANIFEST_HH
