/**
 * @file
 * Fig. 8: cache footprint of packet streams of 1..4 blocks while
 * probing block rows 0..3 of the buffer pages. Activity appears on
 * the diagonal and above -- except block 1, which the driver's
 * unconditional next-block prefetch lights up even for 1-block
 * packets.
 */

#include <cstdio>

#include "attack/size_detector.hh"
#include "bench_util.hh"
#include "net/traffic.hh"
#include "testbed/testbed.hh"

using namespace pktchase;

int
main()
{
    bench::banner("Fig. 8",
                  "Block-row activity vs. packet size (paper: diagonal "
                  "pattern; 1-block packets still fire block 1 via the "
                  "driver prefetch)");

    std::printf("  %-18s %8s %8s %8s %8s\n", "stream",
                "block 0", "block 1", "block 2", "block 3");
    bench::rule(60);

    for (unsigned pkt_blocks = 1; pkt_blocks <= 4; ++pkt_blocks) {
        testbed::Testbed tb(testbed::TestbedConfig{});
        auto combos = tb.activeCombos();
        if (combos.size() > 24)
            combos.resize(24);
        attack::SizeDetector det(tb.hier(), tb.groups(), combos);
        net::TrafficPump pump(
            tb.eq(), tb.driver(),
            std::make_unique<net::ConstantStream>(
                pkt_blocks * blockBytes, 200000.0, 0),
            tb.eq().now() + 1000);
        const auto rates = det.measure(
            tb.eq(), tb.eq().now() + secondsToCycles(0.04));
        const auto row = attack::SizeDetector::rowActivity(rates);

        std::printf("  %u-block packets  ", pkt_blocks);
        for (double r : row)
            std::printf(" %7.4f", r);
        std::printf("\n");
    }
    bench::rule(60);
    std::printf("  (entries are the fraction of probe rounds with "
                "activity on that block row)\n");
    return 0;
}
