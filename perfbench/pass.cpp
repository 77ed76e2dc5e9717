/**
 * @file
 * One benchmark pass: build a workload's grid through the scenario
 * registry, run it as one closed batch on a pinned number of
 * campaign workers, and print one JSON line on stdout.
 *
 *     perfbench_pass --workload server|attack|detect --seed S
 *                    --threads N [--trace out.json]
 *
 * The line carries the host-time figures of the batch (set-up
 * samples, wall and CPU seconds of the Campaign::run interval, peak
 * resident memory), the per-cell hexfloat report for the output
 * check, the run manifest, and -- with --trace -- the per-layer raw
 * data: the merged obs::ProfileSession phases, the summed obs::Stat
 * counter deltas, CampaignStats and the trace session's drop count.
 *
 * Without --trace no trace or profile session exists, so every span
 * in the program is the one-branch no-op the goldens run with. The
 * pass adds spans only around its own calls into public functions
 * (bench.setup, bench.campaign); it adds none inside the library.
 *
 * perfbench/run.py runs this binary once per pass, each in a fresh
 * process: ru_maxrss is a process high-water mark and the trace and
 * profile sessions are process-global.
 */

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/manifest.hh"
#include "obs/profile.hh"
#include "obs/trace.hh"
#include "runtime/campaign.hh"
#include "runtime/registry.hh"
#include "workload/attack_eval.hh"
#include "workload/defense_eval.hh"
#include "workload/detect_eval.hh"

using namespace pktchase;

namespace
{

/** Trace events kept per thread: enough for a readable timeline of
 *  every workload's first rounds while bounding the pass's memory;
 *  the rest are counted as dropped. */
constexpr std::size_t kTraceEventCap = std::size_t(1) << 14;

/** Set-ups timed per pass: the set-up is microseconds long, so its
 *  figure is the median of several. */
constexpr unsigned kSetups = 15;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    unsigned threads = 0;
    std::string tracePath;
};

bool
parseUnsigned(const char *s, std::uint64_t &out)
{
    const std::string digits = s;
    if (digits.empty() || digits.size() > 19 ||
        digits.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::stoull(digits);
    return true;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    std::uint64_t v = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *val = argv[i + 1];
        if (flag == "--workload") {
            opt.workload = val;
        } else if (flag == "--seed") {
            if (!parseUnsigned(val, opt.seed))
                return false;
        } else if (flag == "--threads") {
            if (!parseUnsigned(val, v) || v == 0 || v > 1024)
                return false;
            opt.threads = static_cast<unsigned>(v);
        } else if (flag == "--trace") {
            opt.tracePath = val;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && opt.threads != 0 &&
           (opt.workload == "server" || opt.workload == "attack" ||
            opt.workload == "detect");
}

/** The workload's grid and the cells of it the batch runs. */
struct Batch
{
    std::vector<runtime::Scenario> grid;
    std::vector<std::size_t> cells;
};

/**
 * Register the workload's grid family and build its batch:
 * `server` is fig16, `attack` is fig20, `detect` is the figD1 ROC
 * twins without the three server-fpr cells (which run server's code
 * path). The subset keeps full-grid indices, so every cell is seeded
 * exactly as in a whole-grid run.
 */
Batch
setUp(const std::string &workload)
{
    Batch b;
    std::string name;
    if (workload == "server") {
        workload::registerDefenseScenarios();
        name = "fig16";
    } else if (workload == "attack") {
        workload::registerAttackScenarios();
        name = "fig20";
    } else {
        workload::registerDetectionScenarios();
        name = "figD1";
    }
    b.grid = runtime::ScenarioRegistry::instance().make(name);
    const std::string skip = "/server-fpr";
    for (std::size_t i = 0; i < b.grid.size(); ++i) {
        const std::string &cell = b.grid[i].name;
        const bool fpr = cell.size() >= skip.size() &&
                         cell.compare(cell.size() - skip.size(),
                                      skip.size(), skip) == 0;
        if (workload != "detect" || !fpr)
            b.cells.push_back(i);
    }
    return b;
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** JSON string literal for @p s (names and hexfloat lines only, but
 *  escaped in full anyway). */
std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: %s --workload server|attack|detect "
                     "--seed S --threads N [--trace out.json]\n",
                     argv[0]);
        return 2;
    }
    const bool traced = !opt.tracePath.empty();

    std::optional<obs::TraceSession> trace;
    std::optional<obs::ProfileSession> profile;
    if (traced) {
        trace.emplace(opt.tracePath, kTraceEventCap);
        profile.emplace();
    }
    static const obs::ProfilePhase kSetupPhase{"bench.setup", "bench"};
    static const obs::ProfilePhase kCampaignPhase{"bench.campaign",
                                                  "bench"};

    // Set-up is timed several times; the last batch is the one run.
    std::vector<double> setupSeconds;
    Batch batch;
    for (unsigned k = 0; k < kSetups; ++k) {
        const auto t0 = std::chrono::steady_clock::now();
        {
            const obs::ScopedSpan span(kSetupPhase);
            batch = setUp(opt.workload);
        }
        setupSeconds.push_back(secondsSince(t0));
    }
    std::size_t units = 0;
    for (const std::size_t i : batch.cells)
        units += batch.grid[i].taskCount();

    runtime::CampaignConfig cfg;
    cfg.threads = opt.threads;
    cfg.seed = opt.seed;
    runtime::Campaign campaign(cfg);

    const double cpu0 = processCpuSeconds();
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<runtime::ScenarioResult> results;
    {
        const obs::ScopedSpan span(kCampaignPhase);
        results = campaign.run(batch.grid, batch.cells);
    }
    const double wall = secondsSince(t0);
    const double cpu = processCpuSeconds() - cpu0;

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peakRssMb = double(ru.ru_maxrss) / 1024.0;

    const obs::RunManifest m = obs::RunManifest::host(opt.threads);
    std::string out = "{\"manifest\":{\"git_sha\":" + quote(m.gitSha) +
                      ",\"compiler\":" + quote(m.compiler) +
                      ",\"build_flags\":" + quote(m.buildFlags) +
                      ",\"hostname\":" + quote(m.hostname) +
                      ",\"threads\":" + std::to_string(m.threads) + "}";
    out += ",\"workload\":" + quote(opt.workload);
    out += ",\"seed\":" + std::to_string(opt.seed);
    out += ",\"threads\":" + std::to_string(opt.threads);
    out += ",\"cells\":" + std::to_string(batch.cells.size());
    out += ",\"units\":" + std::to_string(units);
    out += ",\"traced\":" + std::string(traced ? "true" : "false");
    out += ",\"setup_s\":[";
    for (std::size_t k = 0; k < setupSeconds.size(); ++k)
        out += (k ? "," : "") + num(setupSeconds[k]);
    out += "],\"wall_s\":" + num(wall) + ",\"cpu_s\":" + num(cpu) +
           ",\"peak_rss_mb\":" + num(peakRssMb);

    out += ",\"report\":[";
    for (std::size_t k = 0; k < results.size(); ++k) {
        std::string line = runtime::formatReport({results[k]});
        if (!line.empty() && line.back() == '\n')
            line.pop_back();
        out += (k ? "," : "") + quote(line);
    }
    out += "]";

    if (traced) {
        // Per-layer raw data: every unit's profile window (cells and
        // tasks, drained by the campaign on the worker that ran it)
        // plus the main thread's own bench.* spans.
        obs::ProfileDelta phases = obs::drainProfile();
        std::map<std::string, std::uint64_t> counters;
        for (const runtime::ScenarioResult &r : results) {
            obs::mergeProfileInto(phases, r.profile);
            for (const auto &kv : r.counters)
                counters[kv.first] += kv.second;
        }
        out += ",\"phases\":{";
        bool first = true;
        for (std::size_t id = 0; id < phases.size(); ++id) {
            const obs::PhaseStats &p = phases[id];
            if (p.empty())
                continue;
            out += (first ? "" : ",") + quote(obs::phaseName(id)) +
                   ":{\"count\":" + std::to_string(p.count) +
                   ",\"total_s\":" + num(double(p.totalNs) * 1e-9) +
                   ",\"self_s\":" + num(double(p.selfNs) * 1e-9) +
                   ",\"max_s\":" + num(double(p.maxNs) * 1e-9) + "}";
            first = false;
        }
        out += "},\"counters\":{";
        first = true;
        for (const auto &kv : counters) {
            out += (first ? "" : ",") + quote(kv.first) + ":" +
                   std::to_string(kv.second);
            first = false;
        }
        const runtime::CampaignStats &st = campaign.stats();
        out += "},\"campaign\":{\"tasks_run\":" +
               std::to_string(st.tasksRun) +
               ",\"threads_used\":" + std::to_string(st.threadsUsed) +
               ",\"tasks_stolen\":" + std::to_string(st.tasksStolen) +
               ",\"steal_attempts\":" +
               std::to_string(st.stealAttempts) +
               ",\"ring_full_retries\":" +
               std::to_string(st.ringFullRetries) + "}";
        out += ",\"dropped_events\":" +
               std::to_string(trace->droppedEvents());
    }
    out += "}\n";
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);

    if (traced && !trace->write())
        return 1;
    return 0;
}
