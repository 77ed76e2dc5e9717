/**
 * @file
 * Ring sequence recovery demo: Algorithm 1 recovers the order in which
 * the driver's rx buffers are filled, scored against driver ground
 * truth with Levenshtein distance (Sec. III-C, Table I).
 *
 * Build & run:  ./build/examples/sequence_recovery
 */

#include <cstdio>

#include "attack/sequencer.hh"
#include "net/traffic.hh"
#include "sim/stats.hh"
#include "testbed/testbed.hh"

using namespace pktchase;

int
main()
{
    testbed::Testbed tb(testbed::TestbedConfig{});

    // Monitor the first 32 active combos, as in Table I.
    std::vector<std::size_t> active = tb.activeCombos();
    if (active.size() > 32)
        active.resize(32);
    std::printf("monitoring %zu page-aligned sets while a remote "
                "sender streams packets...\n", active.size());

    // Profiling-phase sender: constant broadcast stream.
    net::TrafficPump pump(
        tb.eq(), tb.driver(),
        std::make_unique<net::ConstantStream>(128, 100000.0, 0),
        tb.eq().now() + 1000);

    attack::SequencerConfig cfg;
    cfg.nSamples = 50000;
    cfg.probeRateHz = 100000;
    attack::Sequencer seq(tb.hier(), tb.groups(), active, cfg);
    const attack::SequencerResult result = seq.run(tb.eq());

    // Ground truth from "driver instrumentation".
    std::vector<std::size_t> monitored_gsets;
    const auto all_gsets = tb.comboGsets();
    for (std::size_t c : active)
        monitored_gsets.push_back(all_gsets[c]);
    std::vector<std::size_t> ring_gsets;
    for (std::size_t c : tb.ringComboSequence())
        ring_gsets.push_back(all_gsets[c]);
    const std::vector<int> expected =
        attack::expectedMonitorSequence(ring_gsets, monitored_gsets);

    std::printf("recovered sequence length: %zu (expected %zu)\n",
                result.sequence.size(), expected.size());
    const std::size_t dist = cyclicLevenshtein(result.sequence, expected);
    std::printf("Levenshtein distance to ground truth: %zu "
                "(%.1f%% error)\n", dist,
                expected.empty() ? 0.0
                    : 100.0 * static_cast<double>(dist) /
                        static_cast<double>(expected.size()));
    std::printf("samples used: %zu, sets replaced by block-1 twin: %u\n",
                result.samplesUsed, result.replacedSets);
    std::printf("simulated sampling time: %.1f ms\n",
                cyclesToSeconds(result.elapsed) * 1e3);
    return 0;
}
