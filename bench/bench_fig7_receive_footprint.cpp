/**
 * @file
 * Fig. 7: probing all 256 page-aligned sets across an idle window, a
 * receiving window, and a second idle window. During reception the rx
 * buffer sets light up; sets hosting no buffer stay dark throughout.
 */

#include <cstdio>

#include "attack/footprint.hh"
#include "bench_util.hh"
#include "net/traffic.hh"
#include "testbed/testbed.hh"

using namespace pktchase;

int
main()
{
    bench::banner("Fig. 7",
                  "Page-aligned set activity: idle vs. receiving "
                  "windows (paper: buffer sets show activity only "
                  "while packets arrive)");

    testbed::Testbed tb(testbed::TestbedConfig{});
    std::vector<std::size_t> all;
    for (std::size_t c = 0; c < tb.groups().groups.size(); ++c)
        all.push_back(c);
    attack::FootprintScanner scanner(tb.hier(), tb.groups(), all);

    const Cycles window = secondsToCycles(0.05);

    const auto idle1 = scanner.scan(tb.eq(), tb.eq().now() + window);

    net::TrafficPump pump(
        tb.eq(), tb.driver(),
        std::make_unique<net::ConstantStream>(
            192, 200000.0,
            static_cast<std::uint64_t>(200000 * 0.05)),
        tb.eq().now() + 1000);
    const auto busy = scanner.scan(tb.eq(), tb.eq().now() + window);

    const auto idle2 = scanner.scan(tb.eq(), tb.eq().now() + window);

    const auto r1 = attack::FootprintScanner::activityRates(idle1);
    const auto rb = attack::FootprintScanner::activityRates(busy);
    const auto r2 = attack::FootprintScanner::activityRates(idle2);

    auto mean = [](const std::vector<double> &v) {
        double s = 0;
        for (double x : v)
            s += x;
        return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };

    std::printf("  %-20s %12s %12s %12s\n", "window", "mean act.",
                "hot sets", "rounds");
    bench::rule(62);
    auto hot = [](const std::vector<double> &v) {
        unsigned n = 0;
        for (double x : v)
            n += x > 0.05;
        return n;
    };
    std::printf("  %-20s %12.4f %12u %12zu\n", "idle (before)",
                mean(r1), hot(r1), idle1.size());
    std::printf("  %-20s %12.4f %12u %12zu\n", "receiving", mean(rb),
                hot(rb), busy.size());
    std::printf("  %-20s %12.4f %12u %12zu\n", "idle (after)",
                mean(r2), hot(r2), idle2.size());
    bench::rule(62);
    std::printf("  ground truth: %zu of 256 page-aligned sets host rx "
                "buffers\n", tb.activeCombos().size());

    // Compact raster: 256 sets x 3 windows.
    std::printf("\n  per-set activity (receiving window), 4 sets per "
                "char, '#' = rate > 5%%:\n  ");
    for (std::size_t c = 0; c < rb.size(); c += 4) {
        double peak = 0;
        for (std::size_t k = c; k < c + 4 && k < rb.size(); ++k)
            peak = std::max(peak, rb[k]);
        std::putchar(peak > 0.05 ? '#' : '.');
    }
    std::printf("\n");
    return 0;
}
