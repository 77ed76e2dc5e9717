#include "shard.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "obs/manifest.hh"
#include "runtime/fabric/profile_report.hh"
#include "sim/json.hh"

namespace pktchase::runtime
{

namespace
{

/** Decimal uint64 parse with full-string validation. */
bool
parseU64(const std::string &digits, std::uint64_t &out)
{
    if (digits.empty() || digits.size() > 20 ||
        digits.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtoull(digits.c_str(), &end, 10);
    return errno == 0 && end && *end == '\0';
}

/** "0x..." hex uint64 parse (the shard-report seed spelling). */
bool
parseHexU64(const std::string &text, std::uint64_t &out)
{
    if (text.size() < 3 || text.compare(0, 2, "0x") != 0)
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtoull(text.c_str() + 2, &end, 16);
    return errno == 0 && end && *end == '\0';
}

/**
 * Read a JSON number that stands for an integer. Only a finite,
 * non-negative, integral value below @p limit (at most 2^53, past
 * which doubles skip integers) is accepted, so the cast is exact.
 */
bool
readJsonInteger(const sim::JsonValue &v, const std::string &what,
                std::uint64_t &out, std::string &err,
                std::uint64_t limit = 1ull << 53)
{
    const double limitD = static_cast<double>(limit);
    if (!(v.num >= 0 && v.num < limitD) || v.num != std::floor(v.num)) {
        char num[32];
        std::snprintf(num, sizeof(num), "%.17g", v.num);
        err = what + " " + num + " is not an integer in [0, " +
              std::to_string(limit) + ")";
        return false;
    }
    out = static_cast<std::uint64_t>(v.num);
    return true;
}

/** Everything parsed out of one shard file. */
struct ParsedShard
{
    std::string path;
    bool isProfile = false; ///< bench == "profile" vs "campaign".
    std::string grid;
    std::uint64_t campaignSeed = 0;
    std::uint64_t gridSize = 0;
    std::uint64_t shardIndex = 0;
    std::uint64_t shardCount = 0;
    obs::RunManifest manifest;  ///< "unknown" fields when absent.
    std::string clock;          ///< Profile reports only.
    double traceDropped = 0;    ///< Profile reports only.
    std::vector<ScenarioResult> rows;
    std::vector<std::uint64_t> rowSeeds; ///< Parallel to rows.
};

/** Read one required string meta into @p out via @p convert. */
bool
readMetaU64(const sim::JsonValue &root, const std::string &key,
            const std::string &what, std::uint64_t &out,
            std::string &err)
{
    const sim::JsonValue *v =
        root.require(key, sim::JsonValue::String, what, err);
    if (!v)
        return false;
    if (!parseU64(v->str, out)) {
        err = what + ": \"" + key + "\" is not an unsigned integer";
        return false;
    }
    return true;
}

/** Parse and structurally validate one shard file. */
bool
parseShardFile(const std::string &path, ParsedShard &out,
               std::string &err)
{
    sim::JsonValue root;
    if (!sim::parseJsonFile(path, root, err))
        return false;
    if (root.kind != sim::JsonValue::Object) {
        err = path + ": not a JSON object";
        return false;
    }
    out.path = path;

    const sim::JsonValue *bench =
        root.require("bench", sim::JsonValue::String, path, err);
    if (!bench)
        return false;
    if (bench->str != "campaign" && bench->str != "profile") {
        err = path + ": not a mergeable shard report (bench=\"" +
              bench->str + "\")";
        return false;
    }
    out.isProfile = bench->str == "profile";

    // Provenance: reports written before the manifest era parse as
    // all-"unknown" (two unknowns still compare equal below).
    out.manifest.gitSha = "unknown";
    out.manifest.compiler = "unknown";
    out.manifest.buildFlags = "unknown";
    if (const sim::JsonValue *man = root.find("manifest")) {
        if (man->kind != sim::JsonValue::Object) {
            err = path + ": \"manifest\" is not an object";
            return false;
        }
        auto field = [&](const char *key, std::string &into) {
            if (const sim::JsonValue *v = man->find(key)) {
                if (v->kind == sim::JsonValue::String)
                    into = v->str;
            }
        };
        field("git_sha", out.manifest.gitSha);
        field("compiler", out.manifest.compiler);
        field("build_flags", out.manifest.buildFlags);
        field("hostname", out.manifest.hostname);
        if (const sim::JsonValue *v = man->find("threads")) {
            if (v->kind == sim::JsonValue::Number) {
                constexpr std::uint64_t kMaxThreads =
                    std::numeric_limits<unsigned>::max();
                std::uint64_t threads = 0;
                if (!readJsonInteger(*v, path + ": manifest \"threads\"",
                                     threads, err, kMaxThreads + 1))
                    return false;
                out.manifest.threads = static_cast<unsigned>(threads);
            }
        }
    }

    const sim::JsonValue *grid =
        root.require("grid", sim::JsonValue::String, path, err);
    if (!grid)
        return false;
    out.grid = grid->str;

    if (out.isProfile) {
        const sim::JsonValue *clock =
            root.require("clock", sim::JsonValue::String, path, err);
        if (!clock)
            return false;
        out.clock = clock->str;
        if (const sim::JsonValue *d = root.find("trace.dropped_events")) {
            if (d->kind == sim::JsonValue::Number)
                out.traceDropped = d->num;
        }
    }

    if (!readMetaU64(root, "campaign_seed", path, out.campaignSeed,
                     err) ||
        !readMetaU64(root, "grid_size", path, out.gridSize, err) ||
        !readMetaU64(root, "shard_index", path, out.shardIndex, err) ||
        !readMetaU64(root, "shard_count", path, out.shardCount, err))
        return false;
    if (out.shardCount == 0 || out.shardIndex >= out.shardCount) {
        err = path + ": invalid shard spec " +
              std::to_string(out.shardIndex) + "/" +
              std::to_string(out.shardCount);
        return false;
    }

    const sim::JsonValue *cells =
        root.require("cells", sim::JsonValue::Array, path, err);
    if (!cells)
        return false;
    for (const sim::JsonValue &cell : cells->arr) {
        if (cell.kind != sim::JsonValue::Object) {
            err = path + ": cell is not an object";
            return false;
        }
        const sim::JsonValue *index =
            cell.require("index", sim::JsonValue::Number, path, err);
        const sim::JsonValue *seed =
            index ? cell.require("seed", sim::JsonValue::String, path,
                                 err)
                  : nullptr;
        const sim::JsonValue *name =
            seed ? cell.require("name", sim::JsonValue::String, path,
                                err)
                 : nullptr;
        const sim::JsonValue *hex =
            name ? cell.require("hex", sim::JsonValue::Object, path,
                                err)
                 : nullptr;
        if (!hex)
            return false;

        std::uint64_t indexValue = 0;
        if (!readJsonInteger(*index, path + ": cell \"index\"",
                             indexValue, err))
            return false;
        ScenarioResult r;
        r.index = static_cast<std::size_t>(indexValue);
        r.name = name->str;
        std::uint64_t seedBits = 0;
        if (!parseHexU64(seed->str, seedBits)) {
            err = path + ": cell " + std::to_string(r.index) +
                  " has a malformed seed \"" + seed->str + "\"";
            return false;
        }
        // The hex map round-trips every metric bit-exactly; the
        // decimal map is only for human readers and tooling.
        for (const auto &kv : hex->obj) {
            if (kv.second.kind != sim::JsonValue::String) {
                err = path + ": hex metric \"" + kv.first +
                      "\" is not a string";
                return false;
            }
            r.metrics.emplace_back(
                kv.first, std::strtod(kv.second.str.c_str(), nullptr));
        }
        out.rows.push_back(std::move(r));
        out.rowSeeds.push_back(seedBits);
    }
    return true;
}

} // namespace

bool
parseShardSpec(const std::string &text, ShardSpec &out)
{
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos)
        return false;
    std::uint64_t index = 0;
    std::uint64_t count = 0;
    if (!parseU64(text.substr(0, slash), index) ||
        !parseU64(text.substr(slash + 1), count))
        return false;
    if (count == 0 || index >= count || count > 0xFFFFFFFFull)
        return false;
    out.index = static_cast<unsigned>(index);
    out.count = static_cast<unsigned>(count);
    return true;
}

std::vector<std::size_t>
shardIndices(std::size_t gridSize, const ShardSpec &spec)
{
    std::vector<std::size_t> indices;
    for (std::size_t i = spec.index; i < gridSize; i += spec.count)
        indices.push_back(i);
    return indices;
}

sim::BenchReport
campaignReport(const std::string &gridName, std::uint64_t campaignSeed,
               std::size_t gridSize, const ShardSpec &shard,
               const std::vector<ScenarioResult> &results)
{
    sim::BenchReport report("campaign");
    // The hostname-free build manifest: campaign metrics are
    // deterministic per build, so shards produced on different
    // machines from the same commit must still merge byte-identically.
    report.manifest(obs::RunManifest::build());
    report.meta("grid", gridName);
    report.meta("campaign_seed", std::to_string(campaignSeed));
    report.meta("grid_size", std::to_string(gridSize));
    report.meta("shard_index", std::to_string(shard.index));
    report.meta("shard_count", std::to_string(shard.count));
    for (const ScenarioResult &r : results) {
        report.cell(r.index, splitSeed(campaignSeed, r.index), r.name,
                    r.metrics);
    }
    return report;
}

std::string
mergeShardReports(const std::vector<std::string> &inputs,
                  const std::string &outPath)
{
    if (inputs.empty())
        return "no shard files given";

    std::vector<ParsedShard> shards(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        std::string err;
        if (!parseShardFile(inputs[i], shards[i], err))
            return err;
    }

    // Every shard must describe the same campaign.
    const ParsedShard &first = shards[0];
    for (const ParsedShard &s : shards) {
        if (s.grid != first.grid)
            return s.path + ": grid \"" + s.grid +
                   "\" does not match \"" + first.grid + "\" of " +
                   first.path;
        if (s.campaignSeed != first.campaignSeed)
            return s.path + ": campaign seed " +
                   std::to_string(s.campaignSeed) +
                   " does not match seed " +
                   std::to_string(first.campaignSeed) + " of " +
                   first.path;
        if (s.gridSize != first.gridSize)
            return s.path + ": grid size " +
                   std::to_string(s.gridSize) + " does not match " +
                   std::to_string(first.gridSize) + " of " + first.path;
        if (s.shardCount != first.shardCount)
            return s.path + ": shard count " +
                   std::to_string(s.shardCount) + " does not match " +
                   std::to_string(first.shardCount) + " of " +
                   first.path;
        if (s.isProfile != first.isProfile)
            return s.path + ": mixes bench types (\"" +
                   std::string(s.isProfile ? "profile" : "campaign") +
                   "\" vs \"" +
                   std::string(first.isProfile ? "profile"
                                               : "campaign") +
                   "\" of " + first.path + ")";
        // Provenance check: shards of one merge must come from the
        // same build -- a sha mismatch means someone is merging
        // artifacts of different commits.
        if (s.manifest.gitSha != first.manifest.gitSha)
            return s.path + ": git sha " + s.manifest.gitSha +
                   " does not match " + first.manifest.gitSha + " of " +
                   first.path;
        if (s.isProfile) {
            if (s.clock != first.clock)
                return s.path + ": clock \"" + s.clock +
                       "\" does not match \"" + first.clock +
                       "\" of " + first.path;
            // Profile numbers are host-bound, so a merged profile is
            // only meaningful for shards of one build on one host.
            if (s.manifest.compiler != first.manifest.compiler ||
                s.manifest.buildFlags != first.manifest.buildFlags ||
                s.manifest.hostname != first.manifest.hostname ||
                s.manifest.threads != first.manifest.threads)
                return s.path + ": manifest does not match " +
                       first.path +
                       " (profile shards must share one build, host, "
                       "and thread count)";
        }
    }

    // The shard set must be exactly {0, ..., count-1}, once each.
    if (shards.size() != first.shardCount)
        return "incomplete shard set: " +
               std::to_string(shards.size()) + " file(s) for " +
               std::to_string(first.shardCount) + " shards";
    std::vector<const ParsedShard *> byIndex(first.shardCount, nullptr);
    for (const ParsedShard &s : shards) {
        const ParsedShard *&slot = byIndex[s.shardIndex];
        if (slot)
            return "overlapping shards: " + slot->path + " and " +
                   s.path + " both claim shard " +
                   std::to_string(s.shardIndex) + "/" +
                   std::to_string(s.shardCount);
        slot = &s;
    }

    // A complete merge has exactly grid_size rows; checking that
    // first keeps a forged grid_size from sizing the allocation below.
    std::uint64_t rowCount = 0;
    for (const ParsedShard &s : shards)
        rowCount += s.rows.size();
    if (rowCount != first.gridSize)
        return "shard set holds " + std::to_string(rowCount) +
               " cell row(s) for a " + std::to_string(first.gridSize) +
               "-cell grid";

    // Rows: in-slice, complete, unique, and seed-consistent.
    const std::size_t gridSize =
        static_cast<std::size_t>(first.gridSize);
    std::vector<ScenarioResult> merged(gridSize);
    std::vector<bool> seen(gridSize, false);
    for (const ParsedShard &s : shards) {
        for (std::size_t k = 0; k < s.rows.size(); ++k) {
            const ScenarioResult &r = s.rows[k];
            if (r.index >= gridSize)
                return s.path + ": cell index " +
                       std::to_string(r.index) +
                       " is outside the " + std::to_string(gridSize) +
                       "-cell grid";
            if (r.index % s.shardCount != s.shardIndex)
                return s.path + ": cell " + std::to_string(r.index) +
                       " does not belong to shard " +
                       std::to_string(s.shardIndex) + "/" +
                       std::to_string(s.shardCount);
            if (seen[r.index])
                return s.path + ": duplicate cell " +
                       std::to_string(r.index);
            const std::uint64_t expected =
                splitSeed(first.campaignSeed, r.index);
            if (s.rowSeeds[k] != expected) {
                char want[32];
                char got[32];
                std::snprintf(want, sizeof(want), "0x%016" PRIx64,
                              expected);
                std::snprintf(got, sizeof(got), "0x%016" PRIx64,
                              s.rowSeeds[k]);
                return s.path + ": cell " + std::to_string(r.index) +
                       " seed " + got + " does not match " + want +
                       " = splitSeed(campaign seed, index) -- shard "
                       "was run with different seeding";
            }
            seen[r.index] = true;
            merged[r.index] = r;
        }
    }
    for (std::size_t i = 0; i < gridSize; ++i) {
        if (!seen[i])
            return "missing cell " + std::to_string(i) + " (shard " +
                   std::to_string(i % first.shardCount) + "/" +
                   std::to_string(first.shardCount) +
                   " ran an incomplete slice)";
    }

    // Re-emit as the unsharded (0/1) form -- byte-identical to what a
    // single-process --report / --profile run writes.
    if (first.isProfile) {
        std::vector<ProfileCell> cells;
        cells.reserve(merged.size());
        for (const ScenarioResult &r : merged) {
            ProfileCell c;
            c.index = r.index;
            c.seed = splitSeed(first.campaignSeed, r.index);
            c.name = r.name;
            c.metrics = r.metrics;
            cells.push_back(std::move(c));
        }
        double dropped = 0;
        for (const ParsedShard &s : shards)
            dropped += s.traceDropped;
        const sim::BenchReport report = profileReportFromCells(
            first.grid, first.campaignSeed, gridSize, ShardSpec{0, 1},
            first.clock, first.manifest, dropped, {}, cells);
        if (!report.write(outPath))
            return "cannot write " + outPath;
        return "";
    }
    sim::BenchReport report = campaignReport(
        first.grid, first.campaignSeed, gridSize, ShardSpec{0, 1},
        merged);
    // Campaign metric shards are deterministic across hosts, so their
    // merge keeps the hostname-free manifest of the inputs (which the
    // sha check above proved consistent) rather than stamping the
    // merging host's.
    report.manifest(first.manifest);
    if (!report.write(outPath))
        return "cannot write " + outPath;
    return "";
}

} // namespace pktchase::runtime
