/**
 * @file
 * Golden for the server's noisy read path: ServerWorkload::serveOne on
 * the reduced testbed with timer noise on (sigma 4, outlier
 * probability 0.01). Every server grid runs noiseless, so their
 * goldens cannot see the order in which a request's reads draw the
 * timer noise; this test pins it. A request's service time is a sum
 * of per-read latencies and cannot tell a reordering of draws inside
 * it, so a telemetry probe also hashes every LLC access with the
 * cycle at which it was made.
 *
 * The values below were captured at commit 22a782d, where serveOne
 * still issued one Hierarchy::timedRead per object-store read, by
 * running serveRequests() and printing every service time, the LLC
 * counters, the access hash and the next four outputs of the noise
 * generator.
 */

#include <gtest/gtest.h>

#include <array>
#include <ostream>
#include <string>
#include <vector>

#include "llc_test_util.hh"
#include "testbed/testbed.hh"
#include "workload/server.hh"

using namespace pktchase;
using namespace pktchase::workload;

namespace
{

constexpr std::size_t kRequests = 24;

struct ServerRun
{
    std::vector<Cycles> service;         ///< serveOne's return values.
    std::array<std::uint64_t, 16> stats; ///< LlcStats, in field order.
    std::uint64_t accessHash;            ///< HashingTelemetry::hash.
    std::uint64_t accessEvents;          ///< HashingTelemetry::events.
    std::array<std::uint64_t, 4> noise;  ///< Next noiseRng() outputs.
    std::uint64_t fallbacks;             ///< noiseFallbacks().
};

/** kRequests back-to-back requests on a noisy reduced testbed. */
ServerRun
serveRequests(const std::string &cache_spec)
{
    testbed::TestbedConfig cfg = testbed::TestbedConfig::reduced();
    cfg.cacheDefense = cache_spec;
    cfg.hier.timerNoiseSigma = 4.0;
    cfg.hier.outlierProb = 0.01;
    testbed::Testbed tb(cfg);
    ServerConfig scfg;
    scfg.hotPages = 256;
    ServerWorkload server(tb, scfg);
    cache::llctest::HashingTelemetry accesses;
    tb.hier().llc().attachTelemetry(&accesses);

    ServerRun run;
    Cycles t = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
        const Cycles service = server.serveOne(t);
        run.service.push_back(service);
        t += service;
    }
    tb.hier().llc().attachTelemetry(nullptr);
    run.accessHash = accesses.hash;
    run.accessEvents = accesses.events;
    const cache::LlcStats &s = tb.hier().llc().stats();
    run.stats = {s.cpuReads, s.cpuReadMisses, s.cpuWrites,
                 s.cpuWriteMisses, s.ioWrites, s.ioWriteHits,
                 s.ioAllocations, s.cpuEvictedByCpu, s.cpuEvictedByIo,
                 s.ioEvictedByCpu, s.ioEvictedByIo, s.writebacks,
                 s.memReads, s.invalidations, s.partitionAdaptations,
                 s.partitionInvalidations};
    Rng noise = tb.hier().noiseRng();
    for (std::uint64_t &v : run.noise)
        v = noise.next();
    run.fallbacks = tb.hier().noiseFallbacks();
    return run;
}

struct Golden
{
    const char *cacheSpec;
    Cycles service[kRequests];
    std::uint64_t stats[16];
    std::uint64_t accessHash;
    std::uint64_t accessEvents;
    std::uint64_t noise[4];
    std::uint64_t fallbacks;
};

/** Name a failing case by its cell, not by a dump of its bytes. */
void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.cacheSpec;
}

// Captured at 22a782d (see file comment).
const Golden kGolden[] = {
    {"cache.ddio",
     {73157, 74642, 74513, 63525, 66046, 66188, 70955, 64995, 69126,
      65555, 68675, 62687, 60147, 72948, 71277, 64077, 66738, 61286,
      67723, 67582, 65561, 67044, 64327, 55524},
     {5424, 4052, 1056, 1056, 96, 0, 96, 164, 11, 7, 19, 99, 5108, 0, 0,
      0},
     0x2b97a58dfe5c0cbfull, 6583,
     {0x914df0341103f356ull, 0x7f5eec55d48b1db5ull, 0x702f5a68206987e6ull,
      0x17841bf10ca3c28bull},
     0},
    {"cache.adaptive",
     {73157, 74642, 74513, 63525, 66046, 66188, 70955, 64995, 69126,
      65555, 68675, 62863, 60147, 72948, 71277, 64253, 66914, 61462,
      67723, 68110, 65737, 67748, 64679, 55524},
     {5424, 4066, 1056, 1056, 96, 0, 96, 361, 0, 0, 4, 133, 5122, 0,
      17744, 7},
     0x0a4a2227c24ed191ull, 6576,
     {0x914df0341103f356ull, 0x7f5eec55d48b1db5ull, 0x702f5a68206987e6ull,
      0x17841bf10ca3c28bull},
     0},
};

} // namespace

class ServerGolden : public ::testing::TestWithParam<Golden>
{
};

TEST_P(ServerGolden, NoisyServeOneMatchesPerReadPath)
{
    const Golden &g = GetParam();
    const ServerRun run = serveRequests(g.cacheSpec);
    ASSERT_EQ(run.service.size(), kRequests);
    for (std::size_t i = 0; i < kRequests; ++i)
        EXPECT_EQ(run.service[i], g.service[i]) << "request " << i;
    for (std::size_t i = 0; i < run.stats.size(); ++i)
        EXPECT_EQ(run.stats[i], g.stats[i]) << "LlcStats field " << i;
    EXPECT_EQ(run.accessHash, g.accessHash);
    EXPECT_EQ(run.accessEvents, g.accessEvents);
    for (std::size_t i = 0; i < run.noise.size(); ++i)
        EXPECT_EQ(run.noise[i], g.noise[i]) << "noise output " << i;
    EXPECT_EQ(run.fallbacks, g.fallbacks);
}

INSTANTIATE_TEST_SUITE_P(CacheDefenses, ServerGolden,
                         ::testing::ValuesIn(kGolden));
