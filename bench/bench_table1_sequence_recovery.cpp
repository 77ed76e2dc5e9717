/**
 * @file
 * Table I: summary of ring-buffer sequence recovery experiments.
 *
 * Paper values (32 monitored sets, 100k samples, 0.2M pkt/s, 8k
 * probe/s on real hardware): Levenshtein 25.2 [22, 35] on the 256-slot
 * ring, error rate 9.8% [8.5, 13.6], longest mismatch 5.2 [3, 9].
 *
 * The simulated probe has a different cost model than Mastik on the
 * Xeon (see EXPERIMENTS.md), so the probe/packet ratio is retuned:
 * 100k probe rounds/s against 100k packets/s keeps roughly one
 * monitored activation per round, which is the regime the paper's
 * "fine-tuning the probe rate" paragraph describes.
 */

#include <cstdio>

#include "attack/sequencer.hh"
#include "bench_util.hh"
#include "net/traffic.hh"
#include "sim/stats.hh"
#include "testbed/testbed.hh"

using namespace pktchase;

namespace
{

struct Trial
{
    double lev = 0;
    double error_pct = 0;
    double longest = 0;
    double sim_minutes = 0;
};

Trial
runTrial(std::uint64_t seed)
{
    testbed::TestbedConfig tcfg;
    tcfg.seed = seed;
    testbed::Testbed tb(tcfg);

    auto active = tb.activeCombos();
    if (active.size() > 32)
        active.resize(32);

    // The paper's 0.2M pkt/s against the probe round rate leaves ~2
    // packets per round, so within-round ordering is partially lost --
    // the main error source behind Table I's 9.8%.
    net::TrafficPump pump(
        tb.eq(), tb.driver(),
        std::make_unique<net::ConstantStream>(128, 200000.0, 0),
        tb.eq().now() + 1000, 500.0, seed);

    attack::SequencerConfig cfg;
    cfg.nSamples = 100000;
    cfg.probeRateHz = 100000;
    attack::Sequencer seq(tb.hier(), tb.groups(), active, cfg);
    const attack::SequencerResult result = seq.run(tb.eq());

    const auto all_gsets = tb.comboGsets();
    std::vector<std::size_t> monitored;
    for (std::size_t c : active)
        monitored.push_back(all_gsets[c]);
    std::vector<std::size_t> ring;
    for (std::size_t c : tb.ringComboSequence())
        ring.push_back(all_gsets[c]);
    const auto expected =
        attack::expectedMonitorSequence(ring, monitored);

    // The recovered ring has no defined origin: align it to the
    // ground truth at the rotation minimizing edit distance before
    // scoring.
    std::vector<int> best = result.sequence;
    std::size_t best_lev = static_cast<std::size_t>(-1);
    std::vector<int> rotated = result.sequence;
    for (std::size_t r = 0; r < std::max<std::size_t>(
             result.sequence.size(), 1); ++r) {
        const std::size_t d = levenshtein(rotated, expected);
        if (d < best_lev) {
            best_lev = d;
            best = rotated;
        }
        if (!rotated.empty())
            std::rotate(rotated.begin(), rotated.begin() + 1,
                        rotated.end());
    }

    Trial t;
    t.lev = static_cast<double>(best_lev);
    t.error_pct = expected.empty()
        ? 0.0 : 100.0 * t.lev / static_cast<double>(expected.size());
    t.longest = static_cast<double>(longestMismatchRun(best, expected));
    t.sim_minutes = cyclesToSeconds(result.elapsed);
    return t;
}

void
printRow(const char *name, const Summary &s, const char *unit)
{
    std::printf("  %-28s %8.1f   [%5.1f, %5.1f] %s\n", name, s.mean,
                s.min, s.max, unit);
}

} // namespace

int
main()
{
    bench::banner("Table I",
                  "Ring-buffer sequence recovery quality over repeated "
                  "driver instances (paper: Levenshtein 25.2, error "
                  "9.8%, longest mismatch 5.2)");

    std::vector<double> lev, err, lng, minutes;
    const unsigned trials = 8;
    for (std::uint64_t s = 1; s <= trials; ++s) {
        const Trial t = runTrial(s);
        lev.push_back(t.lev);
        err.push_back(t.error_pct);
        lng.push_back(t.longest);
        minutes.push_back(t.sim_minutes);
    }

    std::printf("  %-28s %8s   %14s\n", "Measure", "Value",
                "[min, max]");
    bench::rule();
    printRow("Levenshtein Distance", summarize(lev), "");
    printRow("Error Rate (%)", summarize(err), "");
    printRow("Longest Mismatch", summarize(lng), "");
    printRow("Sim. Sampling Time (s)", summarize(minutes), "");
    bench::rule();
    std::printf("  parameters: 100000 samples, 32 monitored sets, "
                "0.2M pkt/s, 100k probe rounds/s, %u trials\n", trials);
    std::printf("  (the simulated probe is faster than Mastik's, so "
                "the paper's 159 wall-clock\n   minutes compress into "
                "~1 simulated second per instance)\n");
    return 0;
}
