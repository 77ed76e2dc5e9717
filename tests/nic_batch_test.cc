/**
 * @file
 * Equivalence and contract tests for the batched NIC receive path
 * (IgbDriver::receiveBatch + TrafficPump delivery batching +
 * BufferPolicy::onPacketBatch).
 *
 * The batching work is a pure optimization: every observable --
 * descriptor layout, per-queue statistics, delivery-tap streams, and
 * obs::Stat counter totals -- must be load-for-load identical to the
 * legacy one-event-per-frame path. These tests pin that equivalence
 * for every registered ring policy (with a registry cross-check so a
 * newly registered policy cannot dodge coverage), plus the two
 * delegation contracts the batch hook introduces: per-queue arrival
 * order is preserved across batch boundaries, and the frame ordinals
 * onPacket sees through the default onPacketBatch delegation match
 * the pre-batch per-frame values.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "attack/footprint.hh"
#include "cache/hierarchy.hh"
#include "defense/registry.hh"
#include "mem/phys_mem.hh"
#include "net/traffic.hh"
#include "nic/buffer_policy.hh"
#include "nic/igb_driver.hh"
#include "obs/stats.hh"
#include "testbed/testbed.hh"

using namespace pktchase;

namespace
{

/** Horizon that drains every bounded source below. */
constexpr Cycles kDrainHorizon = Cycles(1) << 40;

/**
 * A bounded multi-flow mix covering every receive-path behaviour:
 * copy-break frames, large page-flipping frames, unknown-protocol
 * drops, and a many-flow Poisson background that spreads across all
 * RSS queues.
 */
std::unique_ptr<net::FlowMix>
boundedMix()
{
    auto mix = std::make_unique<net::FlowMix>();
    mix->add(std::make_unique<net::ConstantStream>(
        128, 40000.0, 400, nic::Protocol::Tcp, 7));
    mix->add(std::make_unique<net::ConstantStream>(
        1024, 30000.0, 300, nic::Protocol::Udp, 19));
    mix->add(std::make_unique<net::ConstantStream>(
        700, 25000.0, 300, nic::Protocol::Unknown, 31));
    mix->add(std::make_unique<net::PoissonBackground>(
        50000.0, Rng(99), 500, 64));
    return mix;
}

std::uint64_t
fnv1a(std::uint64_t hash, std::uint64_t value)
{
    for (unsigned byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xff;
        hash *= 1099511628211ull;
    }
    return hash;
}

/** Digest of every queue's descriptor layout (pages and offsets). */
std::uint64_t
ringLayoutHash(const nic::IgbDriver &drv)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (std::size_t q = 0; q < drv.numQueues(); ++q) {
        for (std::size_t i = 0; i < drv.config().ringSize; ++i) {
            hash = fnv1a(hash, drv.pageBase(i, q));
            hash = fnv1a(hash, drv.bufferAddr(i, q));
        }
    }
    return hash;
}

/** Everything a run of the receive path can externally observe. */
struct RunResult
{
    nic::IgbStats stats;
    std::uint64_t ringHash = 0;
    obs::StatSnapshot delta;
};

/**
 * Drive boundedMix() through a reduced testbed and collect the
 * observables. @p max_batch 1 forces the legacy one-event-per-frame
 * delivery; 0 keeps the default batched path.
 */
RunResult
runWorkload(const std::string &ring, std::size_t queues,
            std::size_t max_batch)
{
    testbed::TestbedConfig cfg = testbed::TestbedConfig::reduced();
    cfg.ringDefense = ring;
    cfg.nicSpec = defense::nicSpecOf(queues);
    cfg.hier.timerNoiseSigma = 0.0;
    cfg.hier.outlierProb = 0.0;
    testbed::Testbed tb(cfg);

    net::TrafficPump pump(tb.eq(), tb.driver(), boundedMix(), 1000);
    if (max_batch != 0)
        pump.setMaxBatch(max_batch);

    const obs::StatSnapshot before = obs::snapshot();
    tb.eq().runUntil(kDrainHorizon);
    EXPECT_TRUE(pump.exhausted());

    RunResult r;
    r.stats = tb.driver().stats();
    r.ringHash = ringLayoutHash(tb.driver());
    r.delta = obs::snapshot() - before;
    return r;
}

void
expectIdentical(const RunResult &batched, const RunResult &legacy,
                const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(batched.stats.framesReceived, legacy.stats.framesReceived);
    EXPECT_EQ(batched.stats.framesDropped, legacy.stats.framesDropped);
    EXPECT_EQ(batched.stats.copyBreakFrames,
              legacy.stats.copyBreakFrames);
    EXPECT_EQ(batched.stats.pageFlips, legacy.stats.pageFlips);
    EXPECT_EQ(batched.stats.buffersReallocated,
              legacy.stats.buffersReallocated);
    EXPECT_EQ(batched.stats.pageSwaps, legacy.stats.pageSwaps);
    EXPECT_EQ(batched.stats.ringRandomizations,
              legacy.stats.ringRandomizations);
    EXPECT_EQ(batched.ringHash, legacy.ringHash);
    EXPECT_EQ(batched.delta.counts, legacy.delta.counts);
}

/** Base ring name of a spec ("ring.partial:100" -> "ring.partial"). */
std::string
baseOf(const std::string &spec)
{
    return spec.substr(0, spec.find(':'));
}

} // namespace

/**
 * The batched delivery path (runs through onPacketBatch, trait-based
 * hook skipping, tryAdvanceWithin event folding) must be
 * load-for-load identical to the legacy per-frame path for every
 * registered ring policy: same statistics, same final descriptor
 * layout (so every random draw happened in the same order), and same
 * obs counter totals. The registry cross-check makes this fail when
 * a new ring policy is registered without being added here.
 */
TEST(NicBatch, DelegationIsLoadForLoadIdenticalPerPolicy)
{
    const std::vector<std::string> specs = {
        "ring.none",
        "ring.full",
        "ring.partial:100",
        "ring.offset",
        "ring.quarantine:8",
        "ring.gated:cadence:partial.100",
    };

    std::set<std::string> covered;
    for (const std::string &spec : specs)
        covered.insert(baseOf(spec));
    for (const std::string &name :
         defense::Registry::instance().names("ring")) {
        EXPECT_TRUE(covered.count(name))
            << "registered ring policy '" << name
            << "' has no batching equivalence coverage; add a spec "
               "for it to this test";
    }

    for (const std::string &spec : specs) {
        const RunResult batched = runWorkload(spec, 4, 0);
        const RunResult legacy = runWorkload(spec, 4, 1);
        expectIdentical(batched, legacy, spec);
    }
}

/**
 * Batch boundaries must never reorder same-queue frames: each queue's
 * delivery-tap stream is in nondecreasing arrival order and identical
 * to the stream the legacy per-frame path produces.
 */
TEST(NicBatch, TapOrderMatchesArrivalOrder)
{
    using TapRecord =
        std::tuple<std::size_t, std::uint32_t, Addr, Cycles>;

    const auto tapRun = [](std::size_t max_batch) {
        testbed::TestbedConfig cfg = testbed::TestbedConfig::reduced();
        cfg.nicSpec = defense::nicSpecOf(4);
        cfg.hier.timerNoiseSigma = 0.0;
        cfg.hier.outlierProb = 0.0;
        testbed::Testbed tb(cfg);

        std::vector<std::vector<TapRecord>> taps(
            tb.driver().numQueues());
        for (std::size_t q = 0; q < tb.driver().numQueues(); ++q) {
            tb.driver().queue(q).setDeliveryTap(
                [&taps, q](std::size_t slot, const nic::Frame &frame,
                           Cycles when) {
                    taps[q].emplace_back(slot, frame.flow, frame.bytes,
                                         when);
                });
        }

        net::TrafficPump pump(tb.eq(), tb.driver(), boundedMix(), 1000);
        if (max_batch != 0)
            pump.setMaxBatch(max_batch);
        tb.eq().runUntil(kDrainHorizon);
        EXPECT_TRUE(pump.exhausted());
        return taps;
    };

    const auto batched = tapRun(0);
    const auto legacy = tapRun(1);

    ASSERT_EQ(batched.size(), legacy.size());
    std::size_t total = 0;
    for (std::size_t q = 0; q < batched.size(); ++q) {
        SCOPED_TRACE("queue " + std::to_string(q));
        for (std::size_t i = 1; i < batched[q].size(); ++i) {
            EXPECT_GE(std::get<3>(batched[q][i]),
                      std::get<3>(batched[q][i - 1]))
                << "tap " << i << " arrived before its predecessor";
        }
        EXPECT_EQ(batched[q], legacy[q]);
        total += batched[q].size();
    }
    EXPECT_EQ(total, 1500u); // Every bounded-source frame was tapped.
}

namespace
{

/**
 * Batchable policy that records the frame ordinal of every onPacket
 * call, so the test can compare the sequence the default
 * onPacketBatch delegation produces against the per-frame path's.
 */
class RecordingPolicy : public nic::BufferPolicy
{
  public:
    explicit RecordingPolicy(std::vector<std::uint64_t> &log)
        : log_(log)
    {
    }

    std::string name() const override { return "ring.none"; }

    HookTraits
    hookTraits() const override
    {
        return {false, true, true};
    }

    void
    onPacket(nic::RxQueue &, std::uint64_t n) override
    {
        log_.push_back(n);
    }

  private:
    std::vector<std::uint64_t> &log_;
};

} // namespace

/**
 * The frame ordinal the default onPacketBatch delegation hands to
 * onPacket (first_n + k) must equal the stats_.framesReceived value
 * the per-frame path would have passed -- i.e. receiveBatch over N
 * frames produces the exact onPacket(n) sequence of N receive()
 * calls. (IgbDriver::receiveBatch additionally panics if a queue's
 * framesReceived drifts from the ordinal its batched hook was given;
 * this run exercises that assertion on multi-queue interleaved runs.)
 */
TEST(NicBatch, OnPacketSeesPreBatchFramesReceived)
{
    const auto buildFrames = []() {
        std::vector<nic::Frame> frames;
        std::vector<Cycles> when;
        // Interleave flows so same-queue runs split and resume across
        // the batch: flows 0..5 spread over both queues.
        for (std::uint32_t i = 0; i < 96; ++i) {
            nic::Frame f;
            f.bytes = 64 + 16 * (i % 8);
            f.protocol = nic::Protocol::Udp;
            f.flow = i % 6;
            f.id = i;
            frames.push_back(f);
            when.push_back(Cycles(1000 + 500 * i));
        }
        return std::make_pair(frames, when);
    };
    const auto [frames, when] = buildFrames();

    const auto run = [&](bool use_batch) {
        mem::PhysMem phys(Addr(64) << 20, Rng(1));
        cache::LlcConfig llc;
        llc.geom = cache::Geometry{2, 512, 8};
        cache::HierarchyConfig hcfg;
        hcfg.timerNoiseSigma = 0.0;
        hcfg.outlierProb = 0.0;
        cache::Hierarchy hier(llc, hcfg,
                              cache::XorFoldSliceHash::twoSlice());

        nic::IgbConfig cfg;
        cfg.queues = 2;
        cfg.ringSize = 16;

        std::vector<std::uint64_t> log;
        std::vector<std::unique_ptr<nic::BufferPolicy>> policies;
        for (std::size_t q = 0; q < cfg.queues; ++q)
            policies.push_back(std::make_unique<RecordingPolicy>(log));
        nic::IgbDriver drv(cfg, phys, hier, std::move(policies));

        if (use_batch) {
            drv.receiveBatch(frames.data(), when.data(), frames.size());
        } else {
            for (std::size_t i = 0; i < frames.size(); ++i)
                drv.receive(frames[i], when[i]);
        }
        return log;
    };

    const std::vector<std::uint64_t> batched = run(true);
    const std::vector<std::uint64_t> legacy = run(false);
    ASSERT_EQ(batched.size(), frames.size());
    EXPECT_EQ(batched, legacy);
}

/**
 * Defense x queue-count x attacker microbench grid: obs::Stat counter
 * totals are identical batched vs unbatched, and identical across two
 * batched runs of one cell (the simulated work is deterministic).
 * SimEvents equality is the interesting one -- events a handler folds
 * via EventQueue::tryAdvanceWithin must be counted exactly like the
 * separately scheduled events they replace, or events-per-second
 * figures would measure batching as a workload change instead of a
 * speedup.
 */
TEST(NicBatch, CounterTotalsBatchedEqualsUnbatched)
{
    struct GridCell
    {
        std::string ring;
        std::size_t queues;
        bool attacker;
    };
    const std::vector<GridCell> grid = {
        {"ring.none", 1, false},
        {"ring.none", 1, true},
        {"ring.none", 4, false},
        {"ring.none", 4, true},
        {"ring.partial:1000", 1, false},
        {"ring.partial:1000", 1, true},
        {"ring.gated:cadence:partial.1000", 1, false},
        {"ring.gated:cadence:partial.1000", 1, true},
    };
    const Cycles horizon = secondsToCycles(0.005);

    const auto runCell = [&](const GridCell &cell,
                             std::size_t max_batch) {
        testbed::TestbedConfig cfg =
            testbed::TestbedConfig::reduced();
        cfg.ringDefense = cell.ring;
        cfg.nicSpec = defense::nicSpecOf(cell.queues);
        testbed::Testbed tb(cfg);

        auto mix = std::make_unique<net::FlowMix>();
        for (std::uint32_t f = 0; f < 4; ++f) {
            mix->add(std::make_unique<net::ConstantStream>(
                768, 20000.0, 0, nic::Protocol::Udp, 101 + 17 * f));
        }
        mix->add(std::make_unique<net::PoissonBackground>(
            40000.0, Rng(0x5eed), 0, 64));
        net::TrafficPump pump(tb.eq(), tb.driver(), std::move(mix),
                              1000);
        if (max_batch != 0)
            pump.setMaxBatch(max_batch);

        const obs::StatSnapshot before = obs::snapshot();
        if (cell.attacker) {
            std::vector<std::size_t> all;
            for (std::size_t c = 0; c < tb.groups().groups.size(); ++c)
                all.push_back(c);
            attack::FootprintConfig fcfg;
            fcfg.probeRateHz = 8000.0;
            fcfg.probe.ways = tb.config().llc.geom.ways;
            attack::FootprintScanner scanner(tb.hier(), tb.groups(),
                                             all, fcfg);
            scanner.scan(tb.eq(), horizon);
        } else {
            tb.eq().runUntil(horizon);
        }
        return obs::snapshot() - before;
    };

    for (const GridCell &cell : grid) {
        SCOPED_TRACE(cell.ring + "+queues:" +
                     std::to_string(cell.queues) +
                     (cell.attacker ? "/attack" : "/benign"));
        const obs::StatSnapshot batched = runCell(cell, 0);
        const obs::StatSnapshot rerun = runCell(cell, 0);
        const obs::StatSnapshot legacy = runCell(cell, 1);
        for (unsigned s = 0; s < obs::kStatCount; ++s) {
            const char *name = obs::statName(static_cast<obs::Stat>(s));
            EXPECT_EQ(batched.counts[s], rerun.counts[s])
                << "counter " << name << " changed between runs";
            EXPECT_EQ(batched.counts[s], legacy.counts[s])
                << "counter " << name;
        }
    }
}
