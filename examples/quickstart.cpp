/**
 * @file
 * Quickstart: assemble the simulated host, stream broadcast frames at
 * it, and watch the rx ring's cache footprint appear from an
 * unprivileged spy's point of view (the Fig. 7 experiment in miniature).
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "attack/footprint.hh"
#include "net/traffic.hh"
#include "testbed/testbed.hh"

using namespace pktchase;

int
main()
{
    // A PowerEdge T620-class host: 20 MB E5-2660 LLC, DDIO on, IGB
    // driver with a 256-entry rx ring.
    testbed::TestbedConfig cfg;
    testbed::Testbed tb(cfg);

    std::printf("LLC: %u slices x %u sets x %u ways = %.0f MB\n",
                cfg.llc.geom.slices, cfg.llc.geom.setsPerSlice,
                cfg.llc.geom.ways,
                static_cast<double>(cfg.llc.geom.capacityBytes()) /
                    (1024.0 * 1024.0));
    std::printf("rx ring: %zu buffers, page-aligned combos: %u\n",
                tb.driver().ring().size(),
                cfg.llc.geom.pageAlignedCombos());

    // The spy partitions its page pool into the 256 page-aligned
    // (set, slice) combos and monitors all of them.
    const attack::ComboGroups &groups = tb.groups();
    std::vector<std::size_t> all;
    for (std::size_t c = 0; c < groups.groups.size(); ++c)
        all.push_back(c);
    attack::FootprintScanner scanner(tb.hier(), groups, all);

    // Idle window: no traffic.
    auto idle = scanner.scan(tb.eq(),
                             tb.eq().now() + secondsToCycles(0.05));

    // Receiving window: a remote sender broadcasts 192-byte frames
    // (copy-break sized, so every fill stays in the page's lower half
    // and hits the page-aligned sets; larger frames make the driver
    // alternate page halves).
    net::TrafficPump pump(
        tb.eq(), tb.driver(),
        std::make_unique<net::ConstantStream>(192, 200000.0, 0),
        tb.eq().now() + 1000);
    auto busy = scanner.scan(tb.eq(),
                             tb.eq().now() + secondsToCycles(0.05));

    const auto idle_rates = attack::FootprintScanner::activityRates(idle);
    const auto busy_rates = attack::FootprintScanner::activityRates(busy);

    unsigned hot = 0;
    double idle_mean = 0.0, busy_mean = 0.0;
    for (std::size_t c = 0; c < all.size(); ++c) {
        idle_mean += idle_rates[c];
        busy_mean += busy_rates[c];
        if (busy_rates[c] > idle_rates[c] + 0.05)
            ++hot;
    }
    idle_mean /= static_cast<double>(all.size());
    busy_mean /= static_cast<double>(all.size());

    std::printf("\nmean activity, idle:      %.4f\n", idle_mean);
    std::printf("mean activity, receiving: %.4f\n", busy_mean);
    std::printf("combos lit up by traffic: %u / %zu\n", hot, all.size());
    std::printf("(the paper's Fig. 7: rx buffers occupy a subset of the"
                " 256 page-aligned sets)\n");

    const auto candidates = attack::FootprintScanner::candidateBufferSets(
        busy, idle_mean + 0.05, 0.95);
    std::printf("candidate rx-buffer combos found by the spy: %zu "
                "(ground truth: %zu)\n",
                candidates.size(), tb.activeCombos().size());
    return 0;
}
