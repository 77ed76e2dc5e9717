/**
 * @file
 * Tests for the campaign runtime: scenario seeding, the registry,
 * PKTCHASE_THREADS parsing, and the core determinism contract -- a
 * Campaign run on 4 or 8 worker threads merges to byte-identical stats
 * as the same campaign on 1 thread. The skewed-grid and subset-run
 * cases live in fabric_steal_stress_test.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "runtime/campaign.hh"
#include "runtime/registry.hh"
#include "runtime/scenario.hh"
#include "runtime/sweep.hh"
#include "testbed/testbed.hh"
#include "workload/defense_eval.hh"

using namespace pktchase;
using namespace pktchase::runtime;

namespace
{

/**
 * A grid of stochastic cells: each draws from its private Rng stream
 * and reports enough digits that any seeding or merge difference
 * between thread counts shows up in the hexfloat report.
 */
std::vector<Scenario>
stochasticGrid(std::size_t cells)
{
    std::vector<Scenario> grid;
    for (std::size_t i = 0; i < cells; ++i) {
        grid.push_back({"cell/" + std::to_string(i),
            [](ScenarioContext &ctx) {
                double acc = 0.0;
                for (int k = 0; k < 1000; ++k)
                    acc += ctx.rng.nextDouble();
                ScenarioResult r;
                r.set("acc", acc);
                r.set("seed_lo",
                      static_cast<double>(ctx.scenarioSeed & 0xffff));
                return r;
            }});
    }
    return grid;
}

/**
 * A skewed stochastic grid: cells whose index is a multiple of 5 draw
 * 100x the randomness (so they run much longer), concentrating work
 * the way the adaptive-partition cells do in the real grids.
 */
std::vector<Scenario>
skewedGrid(std::size_t cells)
{
    std::vector<Scenario> grid;
    for (std::size_t i = 0; i < cells; ++i) {
        grid.push_back({"skew/" + std::to_string(i),
            [i](ScenarioContext &ctx) {
                const int draws = (i % 5 == 0) ? 100'000 : 1'000;
                double acc = 0.0;
                for (int k = 0; k < draws; ++k)
                    acc += ctx.rng.nextDouble();
                ScenarioResult r;
                r.set("acc", acc);
                return r;
            }});
    }
    return grid;
}

/** Sets (or, for nullptr, unsets) PKTCHASE_THREADS for one scope,
 *  restoring the old value. */
class ScopedThreadsEnv
{
  public:
    explicit ScopedThreadsEnv(const char *value)
    {
        if (const char *old = std::getenv("PKTCHASE_THREADS"))
            old_ = old;
        if (value)
            setenv("PKTCHASE_THREADS", value, 1);
        else
            unsetenv("PKTCHASE_THREADS");
    }

    ~ScopedThreadsEnv()
    {
        if (old_)
            setenv("PKTCHASE_THREADS", old_->c_str(), 1);
        else
            unsetenv("PKTCHASE_THREADS");
    }

  private:
    std::optional<std::string> old_;
};

} // namespace

TEST(SplitSeed, IndependentPerSalt)
{
    // Distinct salts give distinct seeds; same (seed, salt) is stable.
    EXPECT_EQ(splitSeed(1, 0), splitSeed(1, 0));
    EXPECT_NE(splitSeed(1, 0), splitSeed(1, 1));
    EXPECT_NE(splitSeed(1, 0), splitSeed(2, 0));
    // Matches the splitmix64 stream Rng seed expansion uses.
    EXPECT_NE(splitSeed(0, 0), 0u);
}

TEST(ScenarioResult, MetricLookup)
{
    ScenarioResult r;
    r.name = "x";
    r.set("a", 1.5);
    r.set("b", -2.0);
    EXPECT_TRUE(r.has("a"));
    EXPECT_FALSE(r.has("c"));
    EXPECT_DOUBLE_EQ(r.value("a"), 1.5);
    EXPECT_DOUBLE_EQ(r.value("b"), -2.0);
}

TEST(ScenarioRegistry, AddMakeListReplace)
{
    auto &reg = ScenarioRegistry::instance();
    reg.add("test/grid", "a grid", [] { return stochasticGrid(3); });
    EXPECT_TRUE(reg.contains("test/grid"));
    EXPECT_EQ(reg.description("test/grid"), "a grid");
    EXPECT_EQ(reg.make("test/grid").size(), 3u);

    // Re-registering replaces.
    reg.add("test/grid", "bigger", [] { return stochasticGrid(5); });
    EXPECT_EQ(reg.make("test/grid").size(), 5u);

    const auto names = reg.names();
    EXPECT_NE(std::find(names.begin(), names.end(), "test/grid"),
              names.end());
}

TEST(Campaign, SerialRunsEveryCellInOrder)
{
    CampaignConfig cfg;
    cfg.threads = 1;
    cfg.seed = 7;
    std::vector<std::size_t> seen;
    cfg.onResult = [&seen](const ScenarioResult &r) {
        seen.push_back(r.index);
    };
    Campaign c(cfg);
    const auto results = c.run(stochasticGrid(9));
    ASSERT_EQ(results.size(), 9u);
    ASSERT_EQ(seen.size(), 9u);
    for (std::size_t i = 0; i < 9; ++i) {
        EXPECT_EQ(seen[i], i);
        EXPECT_EQ(results[i].index, i);
        EXPECT_EQ(results[i].name, "cell/" + std::to_string(i));
    }
    EXPECT_EQ(c.stats().scenariosRun, 9u);
    EXPECT_EQ(c.stats().threadsUsed, 1u);
}

TEST(Campaign, EmptyGrid)
{
    Campaign c;
    EXPECT_TRUE(c.run({}).empty());
}

TEST(Campaign, ThreadsClampToGridSize)
{
    CampaignConfig cfg;
    cfg.threads = 16;
    Campaign c(cfg);
    const auto results = c.run(stochasticGrid(3));
    EXPECT_EQ(results.size(), 3u);
    EXPECT_EQ(c.stats().threadsUsed, 3u);
}

TEST(Campaign, EightThreadsMergeByteIdenticalToOne)
{
    // Many more cells than workers, so every worker runs several and
    // folds land on all of them.
    const std::size_t kCells = 64;
    const std::uint64_t kSeed = 0xC0FFEE;

    CampaignConfig serial;
    serial.threads = 1;
    serial.seed = kSeed;
    const auto ref = Campaign(serial).run(stochasticGrid(kCells));

    CampaignConfig parallel;
    parallel.threads = 8;
    parallel.seed = kSeed;
    std::atomic<std::size_t> callbacks{0};
    parallel.onResult = [&callbacks](const ScenarioResult &) {
        ++callbacks;
    };
    Campaign c(parallel);
    const auto out = c.run(stochasticGrid(kCells));

    EXPECT_EQ(c.stats().threadsUsed, 8u);
    EXPECT_EQ(callbacks.load(), kCells);
    ASSERT_EQ(out.size(), ref.size());
    EXPECT_EQ(formatReport(out), formatReport(ref));
}

/**
 * onTick fires once per unit with the running count and onResult once
 * per cell, all under one mutex: the plain (non-atomic) bookkeeping
 * below is a data race for TSan if they ever overlap.
 */
TEST(Campaign, CallbacksAreSerializedPerUnitAndCell)
{
    const std::size_t kCells = 40;
    std::vector<std::size_t> ticks;
    std::size_t cells = 0;
    bool inCallback = false;

    CampaignConfig cfg;
    cfg.threads = 4;
    cfg.onTick = [&](std::size_t unitsDone) {
        EXPECT_FALSE(inCallback);
        inCallback = true;
        ticks.push_back(unitsDone);
        inCallback = false;
    };
    cfg.onResult = [&](const ScenarioResult &) {
        EXPECT_FALSE(inCallback);
        inCallback = true;
        ++cells;
        // A cell is reported after the tick of its last unit.
        EXPECT_LE(cells, ticks.size());
        inCallback = false;
    };
    Campaign(cfg).run(skewedGrid(kCells));

    EXPECT_EQ(cells, kCells);
    ASSERT_EQ(ticks.size(), kCells);
    for (std::size_t k = 0; k < ticks.size(); ++k)
        EXPECT_EQ(ticks[k], k + 1);
}

TEST(Campaign, DifferentSeedsDiffer)
{
    CampaignConfig a, b;
    a.threads = 2;
    b.threads = 2;
    a.seed = 1;
    b.seed = 2;
    const auto ra = Campaign(a).run(stochasticGrid(4));
    const auto rb = Campaign(b).run(stochasticGrid(4));
    EXPECT_NE(formatReport(ra), formatReport(rb));
}

/**
 * The acceptance-criteria check on real workload cells: the Fig. 14
 * defense sweep merged from >= 4 worker threads is bit-identical to
 * the single-threaded run for the same campaign seed. Uses a reduced
 * request count so the test stays fast; the cells still assemble
 * full-size testbeds and run the real server workload.
 */
TEST(Campaign, Fig14SweepFourThreadsDeterministic)
{
    const auto grid = workload::fig14ThroughputGrid(300);
    ASSERT_EQ(grid.size(), 6u);

    SweepOptions serial;
    serial.threads = 1;
    serial.seed = 11;
    serial.verbose = false;
    const auto ref = sweep(grid, serial);

    SweepOptions parallel = serial;
    parallel.threads = 4;
    const auto out = sweep(grid, parallel);

    EXPECT_EQ(formatReport(out), formatReport(ref));

    // Paired seeding: DDIO and adaptive cells at the same LLC size
    // must have run under the identical workload stream, so their
    // request counts match and throughput is comparable.
    for (const auto &r : out)
        EXPECT_GT(r.value("kreq_per_sec"), 0.0);
}

TEST(DefaultThreads, ParsesPktchaseThreadsStrictly)
{
    unsigned fallback = 0;
    {
        // The fallback when the variable is unset: max(4, hw).
        ScopedThreadsEnv env(nullptr);
        fallback = defaultThreads();
    }
    EXPECT_GE(fallback, 4u);

    for (const char *good : {"1", "3", "1024"}) {
        ScopedThreadsEnv env(good);
        EXPECT_EQ(defaultThreads(), std::stoul(good)) << good;
    }
    // Trailing junk, signs, blanks, zero, and values past 1024 (one
    // that would wrap an unsigned to 1 included) warn and fall back.
    for (const char *bad : {"2abc", "4294967297", "1025", "0", "", "-3",
                            "+2", " 2", "2 "}) {
        ScopedThreadsEnv env(bad);
        testing::internal::CaptureStderr();
        const unsigned n = defaultThreads();
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_EQ(n, fallback) << '"' << bad << '"';
        EXPECT_NE(err.find("PKTCHASE_THREADS"), std::string::npos)
            << '"' << bad << '"';
    }
}
