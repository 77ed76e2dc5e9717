/**
 * @file
 * Fig. 10: the spy's view of the repeating ternary sequence
 * "2012012012...", decoded from the activity of three monitored sets
 * (block 1 = clock, blocks 2 and 3 = data).
 */

#include <cstdio>

#include "bench_util.hh"
#include "channel/spy.hh"
#include "channel/trojan.hh"
#include "channel/capacity.hh"
#include "net/traffic.hh"
#include "sim/stats.hh"
#include "testbed/testbed.hh"

using namespace pktchase;
using namespace pktchase::channel;

int
main()
{
    bench::banner("Fig. 10",
                  "Decoding the transmitted sequence 2012012012... "
                  "from three probed sets (paper: set 1 clocks, sets "
                  "2-3 carry the value)");

    testbed::Testbed tb(testbed::TestbedConfig{});

    std::vector<unsigned> sent;
    for (int i = 0; i < 30; ++i)
        sent.push_back(static_cast<unsigned>((2 + i * 2) % 3));
    // 2, 0 (wraps 4->1?) -- construct literally: 2,0,1,2,0,1,...
    sent.clear();
    const unsigned pattern[3] = {2, 0, 1};
    for (int i = 0; i < 30; ++i)
        sent.push_back(pattern[i % 3]);

    const auto buffers = pickMonitoredBuffers(tb, 1);
    // 16.5 kHz: one sample per 200k cycles (paper).
    CovertSpy spy(tb.hier(), tb.groups(), buffers, Scheme::Ternary,
                  16500);

    auto trojan = std::make_unique<TrojanSource>(
        sent, Scheme::Ternary, tb.driver().ring().size(), 0.0);
    net::TrafficPump pump(tb.eq(), tb.driver(), std::move(trojan),
                          tb.eq().now() + 1000, 2000.0);

    const double secs = 30.0 * 256.0 / net::maxFrameRate(256) * 1.4;
    const ListenResult result =
        spy.listen(tb.eq(), tb.eq().now() + secondsToCycles(secs));

    std::printf("  transmitted: ");
    for (unsigned s : sent)
        std::printf("%u", s);
    std::printf("\n  decoded:     ");
    for (const SymbolEvent &e : result.events)
        std::printf("%u", e.symbol);
    std::printf("\n\n");

    const auto received = result.symbols();
    const std::size_t dist = levenshtein(sent, received);
    std::printf("  symbols sent %zu, decoded %zu, Levenshtein %zu "
                "(%.1f%% error)\n", sent.size(), received.size(), dist,
                100.0 * static_cast<double>(dist) /
                    static_cast<double>(sent.size()));
    std::printf("  sampling: one probe of the 3 sets every ~200k "
                "cycles, decode window 3\n");
    return 0;
}
