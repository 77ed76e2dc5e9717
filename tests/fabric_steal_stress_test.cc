/**
 * @file
 * ThreadSanitizer stress for the campaign determinism contract on a
 * skewed grid, where a few cells run ~100x longer than the rest and
 * workers finish in a nondeterministic order:
 *
 *  1. a skewed stochastic grid merged from 4 workers is byte-identical
 *     to the serial run, per-cell counters included;
 *  2. subset (shard-slice) runs on 4 workers are bit-identical to the
 *     same cells of a full serial run.
 *
 * CI runs this binary in the TSan job alongside the other campaign
 * stress tests.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/campaign.hh"
#include "runtime/scenario.hh"

using namespace pktchase;
using namespace pktchase::runtime;

namespace
{

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

TEST(SkewedCampaignStress, MergesByteIdenticalToSerial)
{
    const std::size_t kCells = 40;
    const std::uint64_t kSeed = 0xFAB41C;

    CampaignConfig serial;
    serial.threads = 1;
    serial.seed = kSeed;
    const auto ref = Campaign(serial).run(skewedGrid(kCells));

    CampaignConfig parallel;
    parallel.threads = 4;
    parallel.seed = kSeed;
    Campaign c(parallel);
    const auto out = c.run(skewedGrid(kCells));

    EXPECT_EQ(c.stats().threadsUsed, 4u);
    ASSERT_EQ(out.size(), ref.size());
    EXPECT_EQ(formatReport(out), formatReport(ref));

    // Per-cell counters obey the same contract; the scheduling
    // counter (tasks_executed) is bumped outside the per-unit
    // windows, so it must be 0 in every cell's delta.
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].counters, ref[i].counters) << out[i].name;
        EXPECT_EQ(out[i].counter("tasks_executed"), 0u);
    }
}

/** Subset (shard-slice) runs are bit-identical to the same cells of a
 *  full run, at any thread count. */
TEST(SkewedCampaignStress, SubsetRunMatchesFullRunCells)
{
    const std::size_t kCells = 30;
    const std::uint64_t kSeed = 77;

    CampaignConfig cfg;
    cfg.threads = 1;
    cfg.seed = kSeed;
    const auto full = Campaign(cfg).run(skewedGrid(kCells));

    std::vector<std::size_t> slice;
    for (std::size_t i = 1; i < kCells; i += 3)
        slice.push_back(i);

    CampaignConfig par = cfg;
    par.threads = 4;
    Campaign c(par);
    const auto out = c.run(skewedGrid(kCells), slice);

    ASSERT_EQ(out.size(), slice.size());
    for (std::size_t k = 0; k < slice.size(); ++k) {
        EXPECT_EQ(out[k].index, slice[k]);
        EXPECT_EQ(formatReport({out[k]}),
                  formatReport({full[slice[k]]}));
    }
}

} // namespace
