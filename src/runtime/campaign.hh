/**
 * @file
 * The Campaign executor: run a scenario grid across worker threads
 * and merge the results deterministically.
 *
 * The schedulable unit is one (cell, task) pair: a monolithic cell is
 * one unit, a cell on the sub-cell decomposition contract
 * (Scenario::tasks/runTask/fold, see scenario.hh) is Scenario::tasks
 * units -- so a single heavy trial-loop cell spreads across workers
 * instead of bounding the makespan. Every unit is known before the
 * first worker starts and nothing is added later, so scheduling is one
 * shared atomic cursor over the unit list in (cell, task) order: each
 * worker takes the next unit when it finishes its last. A worker
 * writes its task result straight into the cell's preallocated
 * parts[task] slot; a per-cell countdown tells the worker that
 * finishes a cell's last task to fold the parts and place the folded
 * result at the cell's grid index. Because every task's randomness
 * derives only from (campaign seed, grid index, task index) -- never
 * from the worker that happened to run it -- the fold input is
 * ordered by task index, and the merge is by grid index, a run with N
 * threads is bit-identical to threads=1; the determinism tests assert
 * that byte-for-byte on the formatted report.
 *
 * A campaign can also run a *subset* of a grid (the multi-process
 * shard layer's slice, see runtime/fabric/shard.hh): cells keep their
 * full-grid indices, so a sharded cell is bit-identical to the same
 * cell in an unsharded run.
 */

#ifndef PKTCHASE_RUNTIME_CAMPAIGN_HH
#define PKTCHASE_RUNTIME_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/scenario.hh"

namespace pktchase::runtime
{

/** Campaign execution knobs. */
struct CampaignConfig
{
    /** Worker threads; 0 picks defaultThreads(). */
    unsigned threads = 0;

    /** Campaign seed every scenario stream is split from. */
    std::uint64_t seed = 1;

    /**
     * Called once per finished cell, in completion order (NOT grid
     * order -- completion order depends on thread scheduling; only
     * the merged results are deterministic). Runs on the worker that
     * folded the cell (the calling thread on serial runs), under the
     * same mutex as onTick, so the two never run concurrently.
     */
    std::function<void(const ScenarioResult &)> onResult;

    /**
     * Called once per finished (cell, task) unit with the number of
     * units finished so far, under the onResult mutex; for a unit that
     * completes its cell, before that cell's onResult. Purely
     * observational -- it never touches results.
     */
    std::function<void(std::size_t unitsDone)> onTick;
};

/** Execution counters of one run. */
struct CampaignStats
{
    std::size_t scenariosRun = 0;
    /** Schedulable (cell, task) units run; == scenariosRun when no
     *  cell decomposes. */
    std::size_t tasksRun = 0;
    unsigned threadsUsed = 0;
    /** @{ Always 0: the unit cursor neither steals nor queues
     *  results. Kept only for the repo benchmark's output schema
     *  (perfbench/pass.cpp prints them). */
    std::uint64_t ringFullRetries = 0;
    std::uint64_t tasksStolen = 0;
    std::uint64_t stealAttempts = 0;
    /** @} */
    /** Wall-clock seconds for the whole grid (not deterministic). */
    double wallSeconds = 0.0;
};

/**
 * Runs scenario grids. Reusable: each run() is independent.
 */
class Campaign
{
  public:
    explicit Campaign(const CampaignConfig &cfg = CampaignConfig{});

    /**
     * Run every cell of @p grid and return the merged results, index
     * for index with @p grid (results[i] came from grid[i]).
     */
    std::vector<ScenarioResult> run(const std::vector<Scenario> &grid);

    /**
     * Run only the cells of @p grid named by @p subset (strictly
     * increasing full-grid indices). Each cell is seeded with its
     * full-grid index, so results are bit-identical to the same cells
     * of an unsharded run. Returns results in @p subset order with
     * ScenarioResult::index holding the full-grid index.
     */
    std::vector<ScenarioResult> run(const std::vector<Scenario> &grid,
                                    const std::vector<std::size_t> &subset);

    /** Counters of the most recent run(). */
    const CampaignStats &stats() const { return stats_; }

    const CampaignConfig &config() const { return cfg_; }

  private:
    CampaignConfig cfg_;
    CampaignStats stats_;
};

/**
 * Worker-thread count used when CampaignConfig::threads == 0: the
 * PKTCHASE_THREADS environment variable when set, otherwise
 * max(4, hardware concurrency) -- the Fig. 14 sweep is specified to
 * run across at least four workers. PKTCHASE_THREADS must be a plain
 * decimal in [1, 1024]; anything else warns and falls back.
 */
unsigned defaultThreads();

} // namespace pktchase::runtime

#endif // PKTCHASE_RUNTIME_CAMPAIGN_HH
