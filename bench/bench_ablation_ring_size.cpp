/**
 * @file
 * Ablation for Sec. VI-c: larger rx rings as a mitigation. The probe
 * set the attacker must watch grows with the ring, stretching the
 * probe round and cutting per-buffer sampling resolution; combined
 * with occasional reshuffling this raises the attack's noise floor.
 *
 * Each ring size is one campaign cell with its own private Testbed,
 * so the four sizes run concurrently on the runtime's worker threads.
 */

#include <cstdio>

#include "attack/footprint.hh"
#include "bench_util.hh"
#include "runtime/sweep.hh"
#include "testbed/testbed.hh"

using namespace pktchase;

int
main()
{
    bench::banner("Ablation: ring size",
                  "Attack-side cost vs. rx ring size (Sec. VI-c: a "
                  "bigger ring forces a bigger probe set)");

    std::vector<runtime::Scenario> grid;
    for (std::size_t ring : {256u, 512u, 1024u, 4096u}) {
        grid.push_back({"ring/" + std::to_string(ring),
            [ring](runtime::ScenarioContext &) {
                testbed::TestbedConfig cfg;
                cfg.igb.ringSize = ring;
                // Bigger rings need more kernel pages.
                cfg.physBytes = Addr(512) << 20;
                testbed::Testbed tb(cfg);

                const auto active = tb.activeCombos();

                // One full probe round over the combos the attacker
                // must watch (without sequence information).
                attack::FootprintScanner scanner(tb.hier(), tb.groups(),
                                                 active);
                const auto samples = scanner.scan(
                    tb.eq(),
                    tb.eq().now() + secondsToCycles(0.002));
                Cycles cost = 0;
                if (!samples.empty())
                    cost = samples[0].end - samples[0].start;

                runtime::ScenarioResult r;
                r.set("ring_size", static_cast<double>(ring));
                r.set("active_combos",
                      static_cast<double>(active.size()));
                r.set("probe_cost_cycles", static_cast<double>(cost));
                r.set("rounds_per_sec",
                      cost ? coreFreqHz / static_cast<double>(cost)
                           : 0.0);
                return r;
            }});
    }

    const auto results = runtime::sweep(grid);

    std::printf("  %-10s %14s %16s %16s\n", "ring", "active combos",
                "probe cost (cyc)", "rounds/s max");
    bench::rule(62);
    for (const auto &r : results) {
        std::printf("  %-10.0f %14.0f %16.0f %16.0f\n",
                    r.value("ring_size"), r.value("active_combos"),
                    r.value("probe_cost_cycles"),
                    r.value("rounds_per_sec"));
    }
    bench::rule(62);
    std::printf("  (with 256 page-aligned combos the active set "
                "saturates; the per-buffer\n   sampling rate still "
                "falls as buffers share sets and the ring wraps "
                "slower)\n");
    return 0;
}
