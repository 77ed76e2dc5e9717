/**
 * @file
 * The fig20 fingerprint grid as a paper-style table: closed-world
 * accuracy per defense cell and NIC queue count (paper Sec. V: 89.7%
 * with DDIO, 86.5% without), plus the simulated probe rounds that
 * produced it. Of the defense cells, only cache.adaptive drives
 * accuracy to the 20% chance level. The ring defenses
 * (ring.partial:1000, ring.full) read the same as ring.none: each
 * trial's fresh testbed never recycles a ring slot, so they never
 * act (ROADMAP item 1).
 *
 * Emits BENCH_fingerprint.json (via sim::BenchReport) with the same
 * per-cell metrics. Host timing of this grid is perfbench's `attack`
 * workload (perfbench/README.md).
 *
 * Threads default to the machine; set PKTCHASE_THREADS to pin.
 */

#include <cstdio>

#include "bench_util.hh"
#include "runtime/sweep.hh"
#include "workload/attack_eval.hh"

using namespace pktchase;

int
main()
{
    bench::banner("Fig. 20",
                  "Closed-world fingerprint accuracy x defense cell x "
                  "queue count (paper baseline: 89.7% DDIO / 86.5% "
                  "no-DDIO; cache.adaptive falls to 20% chance, the "
                  "ring defenses are inert here: ROADMAP item 1)");

    const auto results = runtime::sweep(workload::fig20FingerprintGrid());

    std::printf("  %-48s %9s %13s\n", "cell", "accuracy", "probe rounds");
    bench::rule(73);
    for (const runtime::ScenarioResult &r : results) {
        std::printf("  %-48s %8.1f%% %13.0f\n", r.name.c_str(),
                    r.value("accuracy") * 100.0, r.value("probe_rounds"));
    }
    bench::rule(73);

    sim::BenchReport report("fingerprint");
    for (const runtime::ScenarioResult &r : results)
        report.cell(r.name, r.metrics);
    if (!report.write())
        return 1;
    std::printf("  wrote BENCH_fingerprint.json\n");
    return 0;
}
