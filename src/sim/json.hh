/**
 * @file
 * A deliberately minimal JSON reader: just enough of the grammar to
 * consume the artifacts this codebase writes itself (sim::BenchReport
 * files and the campaign shard reports) -- objects, arrays, strings
 * with the backslash escapes the writers emit, and numbers via strtod.
 *
 * This is a *round-trip* parser for our own output, not a general
 * JSON library: no unicode escapes, no booleans/null keywords beyond
 * what the writers produce. The shard-merge tool is the main
 * consumer; tests/bench_report_test.cc uses it to validate BenchReport
 * emission. Errors are reported as a position-stamped message, never
 * by aborting, so callers (the merge CLI) can reject a malformed
 * shard file with a clear diagnostic instead of dying. Hostile input
 * gets the same treatment: nesting deeper than 256 levels and
 * non-finite numbers (inf, nan, 1e999999) are parse errors, never a
 * stack overflow or a silent infinity.
 */

#ifndef PKTCHASE_SIM_JSON_HH
#define PKTCHASE_SIM_JSON_HH

#include <string>
#include <utility>
#include <vector>

namespace pktchase::sim
{

/** One parsed JSON value; a tagged tree. */
struct JsonValue
{
    enum Kind { Null, Number, String, Array, Object } kind = Null;
    double num = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    /** Object members in document order (duplicates preserved). */
    std::vector<std::pair<std::string, JsonValue>> obj;

    /** First member named @p key, or nullptr. Object kind only. */
    const JsonValue *find(const std::string &key) const;

    /** find() that errors into @p err (and returns nullptr) when the
     *  member is missing or not of @p kind; @p what names the file or
     *  context for the message. */
    const JsonValue *require(const std::string &key, Kind kind,
                             const std::string &what,
                             std::string &err) const;
};

/**
 * Parse @p text into @p out. Returns true on success; on failure
 * returns false and describes the first error in @p err (byte offset
 * included). Trailing non-whitespace after the value is an error.
 */
bool parseJson(const std::string &text, JsonValue &out, std::string &err);

/** Slurp @p path and parse it; false + @p err on I/O or parse error. */
bool parseJsonFile(const std::string &path, JsonValue &out,
                   std::string &err);

} // namespace pktchase::sim

#endif // PKTCHASE_SIM_JSON_HH
