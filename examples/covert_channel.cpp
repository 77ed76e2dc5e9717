/**
 * @file
 * Covert channel demo: a remote trojan with network access only and a
 * local spy with no network access exchange a text message through
 * packet sizes observed in the LLC (Sec. IV).
 *
 * Build & run:  ./build/examples/covert_channel
 */

#include <cstdio>
#include <string>
#include <vector>

#include "channel/capacity.hh"
#include "channel/spy.hh"
#include "channel/trojan.hh"
#include "net/traffic.hh"
#include "sim/stats.hh"
#include "testbed/testbed.hh"

using namespace pktchase;
using channel::Scheme;

namespace
{

std::vector<unsigned>
textToBits(const std::string &text)
{
    std::vector<unsigned> bits;
    for (char ch : text)
        for (int b = 7; b >= 0; --b)
            bits.push_back((static_cast<unsigned>(ch) >> b) & 1u);
    return bits;
}

std::string
bitsToText(const std::vector<unsigned> &bits)
{
    std::string text;
    for (std::size_t i = 0; i + 7 < bits.size(); i += 8) {
        unsigned ch = 0;
        for (int b = 0; b < 8; ++b)
            ch = (ch << 1) | bits[i + static_cast<std::size_t>(b)];
        text.push_back(static_cast<char>(ch));
    }
    return text;
}

} // namespace

int
main()
{
    testbed::Testbed tb(testbed::TestbedConfig{});

    const std::string message = "PACKET CHASING";
    const std::vector<unsigned> bits = textToBits(message);
    std::printf("trojan sends: \"%s\" (%zu bits, binary encoding, "
                "256 broadcast packets per bit)\n",
                message.c_str(), bits.size());

    // The spy picks a single-mapped buffer and watches blocks 1-3.
    const auto buffers = channel::pickMonitoredBuffers(tb, 1);
    channel::CovertSpy spy(tb.hier(), tb.groups(), buffers,
                           Scheme::Binary, 28000);

    const std::size_t ring = tb.driver().ring().size();
    auto trojan = std::make_unique<channel::TrojanSource>(
        bits, Scheme::Binary, ring, 0.0);
    net::TrafficPump pump(tb.eq(), tb.driver(), std::move(trojan),
                          tb.eq().now() + 1000, 2000.0);

    // Listen long enough for the whole message at line rate.
    const double secs =
        static_cast<double>(bits.size() * ring) /
        net::maxFrameRate(256) * 1.4 + 0.01;
    const auto result =
        spy.listen(tb.eq(), tb.eq().now() + secondsToCycles(secs));

    const std::vector<unsigned> received = result.symbols();
    std::printf("spy decoded %zu symbols\n", received.size());
    std::printf("spy reads:   \"%s\"\n", bitsToText(received).c_str());

    const double err = bits.empty() ? 0.0
        : static_cast<double>(levenshtein(bits, received)) /
            static_cast<double>(bits.size());
    std::printf("bit error rate (Levenshtein): %.2f%%\n", err * 100.0);
    return 0;
}
