#include "campaign.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/stats.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace pktchase::runtime
{

unsigned
defaultThreads()
{
    if (const char *env = std::getenv("PKTCHASE_THREADS")) {
        // Digits only: strtol would accept "2abc" as 2, and a value
        // past unsigned range would wrap.
        constexpr unsigned long kMaxThreads = 1024;
        const std::string s = env;
        if (!s.empty() && s.size() <= 4 &&
            s.find_first_not_of("0123456789") == std::string::npos) {
            const unsigned long n = std::stoul(s);
            if (n >= 1 && n <= kMaxThreads)
                return static_cast<unsigned>(n);
        }
        warn("ignoring invalid PKTCHASE_THREADS value \"" + s +
             "\" (want 1.." + std::to_string(kMaxThreads) + ")");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 4 ? hw : 4;
}

Campaign::Campaign(const CampaignConfig &cfg)
    : cfg_(cfg)
{
}

std::vector<ScenarioResult>
Campaign::run(const std::vector<Scenario> &grid)
{
    std::vector<std::size_t> all(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        all[i] = i;
    return run(grid, all);
}

std::vector<ScenarioResult>
Campaign::run(const std::vector<Scenario> &grid,
              const std::vector<std::size_t> &subset)
{
    const auto t0 = std::chrono::steady_clock::now();

    for (std::size_t k = 0; k < subset.size(); ++k) {
        if (subset[k] >= grid.size())
            fatal("Campaign: subset index out of range");
        if (k > 0 && subset[k] <= subset[k - 1])
            fatal("Campaign: subset must be strictly increasing");
    }

    // The schedulable unit is one (cell, task) pair: monolithic cells
    // contribute one unit, decomposed cells Scenario::tasks units.
    // Every unit exists before the first worker starts and none is
    // added later, so one shared cursor over the list in (cell, task)
    // order is the whole scheduler: there is nothing to steal, and a
    // worker idles only once the cursor has passed the last unit.
    // Each cell gets a preallocated parts slot per task and a
    // countdown of its unfinished tasks.
    struct TaskUnit
    {
        std::size_t slot; ///< Position in subset / results.
        std::size_t task; ///< Task index within the cell.
    };
    std::vector<TaskUnit> units;
    std::vector<std::vector<ScenarioResult>> parts(subset.size());
    const auto remaining =
        std::make_unique<std::atomic<std::size_t>[]>(subset.size());
    for (std::size_t k = 0; k < subset.size(); ++k) {
        const Scenario &sc = grid[subset[k]];
        validateScenario(sc);
        parts[k].resize(sc.taskCount());
        remaining[k] = sc.taskCount();
        for (std::size_t t = 0; t < sc.taskCount(); ++t)
            units.push_back({k, t});
    }

    unsigned threads = cfg_.threads ? cfg_.threads : defaultThreads();
    if (threads > units.size() && !units.empty())
        threads = static_cast<unsigned>(units.size());

    stats_ = CampaignStats{};
    stats_.threadsUsed = threads ? threads : 1;

    std::vector<ScenarioResult> results(subset.size());

    // Seeding uses the *full-grid* index, so a subset (shard) run
    // produces bit-identical cells to the same positions of an
    // unsharded run. Units run start-to-finish on one thread, so the
    // thread-local counter delta around the run is exactly this
    // task's work -- independent of which worker ran it or what ran
    // before; foldScenarioParts sums the per-task deltas into the
    // cell's counters.
    auto runUnit = [&](std::size_t slot, std::size_t task) {
        const std::size_t index = subset[slot];
        const Scenario &sc = grid[index];
        // Profile windows bracket the unit exactly like the counter
        // snapshot: discard whatever accumulated since the thread's
        // last unit (the previous cell's fold, callbacks), run, then
        // drain this unit's stats into the result. Units run
        // start-to-finish on one thread, so the drained window is
        // exactly this task's spans regardless of which worker ran it.
        const bool prof = obs::profiling();
        if (prof)
            obs::drainProfile();
        const obs::StatSnapshot before = obs::snapshot();
        ScenarioResult r;
        if (sc.decomposed()) {
            // The phase keeps its historical name: CI's tail-unit
            // check and the repo benchmark key on it.
            static const obs::ProfilePhase kTaskPhase{"fabric.task",
                                                      "fabric.task"};
            const obs::ScopedSpan span(
                sc.name + "#" + std::to_string(task), kTaskPhase);
            r = runScenarioTask(sc, index, cfg_.seed, task);
        } else {
            static const obs::ProfilePhase kCellPhase{"cell", "cell"};
            const obs::ScopedSpan span(sc.name, kCellPhase);
            r = runScenarioTask(sc, index, cfg_.seed, task);
        }
        r.counters = (obs::snapshot() - before).toCounters();
        if (prof)
            r.profile = obs::drainProfile();
        return r;
    };

    std::atomic<std::size_t> cursor{0};
    std::mutex callbackMutex;
    std::size_t unitsDone = 0; // Guarded by callbackMutex.

    // The worker loop, shared by every thread (and run inline on the
    // calling thread when threads == 1). The countdown's atomic
    // decrement orders every sibling task's parts write before the
    // fold; fold is pure, so which worker runs it cannot change the
    // result. TasksExecuted lands between snapshot windows, so
    // per-task counter deltas never see it.
    auto work = [&] {
        for (std::size_t u = cursor++; u < units.size(); u = cursor++) {
            const std::size_t slot = units[u].slot;
            parts[slot][units[u].task] = runUnit(slot, units[u].task);
            obs::bump(obs::Stat::TasksExecuted);
            const bool cellDone = --remaining[slot] == 0;
            if (cellDone)
                results[slot] = foldScenarioParts(
                    grid[subset[slot]], subset[slot],
                    std::move(parts[slot]));
            const std::lock_guard<std::mutex> lock(callbackMutex);
            ++unitsDone;
            if (cfg_.onTick)
                cfg_.onTick(unitsDone);
            if (cellDone && cfg_.onResult)
                cfg_.onResult(results[slot]);
        }
    };

    if (threads <= 1) {
        work();
    } else {
        std::vector<std::thread> workers;
        workers.reserve(threads);
        for (unsigned w = 0; w < threads; ++w) {
            workers.emplace_back([&work, w] {
                obs::attachWorkerThread(w);
                work();
                obs::detachWorkerThread();
            });
        }
        for (std::thread &t : workers)
            t.join();
    }

    stats_.scenariosRun = subset.size();
    stats_.tasksRun = units.size();
    stats_.wallSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    return results;
}

} // namespace pktchase::runtime
