/**
 * @file
 * Shared plumbing for the figure/table reproduction benches.
 *
 * Every bench binary regenerates one table or figure of the paper
 * and prints it through TableReporter so the output can be diffed
 * against EXPERIMENTS.md. Trace lengths scale with the
 * WHISPER_BENCH_SCALE environment variable (default 1.0) so a quick
 * smoke run (e.g. 0.2) and a high-fidelity run (e.g. 4.0) use the
 * same binaries.
 */

#ifndef WHISPER_BENCH_COMMON_HH
#define WHISPER_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "bp/simple_predictors.hh"
#include "sim/experiment.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "workloads/app_workload.hh"

namespace whisper::bench
{

/** Trace-length scale factor from the environment. */
inline double
scaleFactor()
{
    const char *env = std::getenv("WHISPER_BENCH_SCALE");
    if (!env)
        return 1.0;
    double v = std::strtod(env, nullptr);
    return v > 0.0 ? v : 1.0;
}

/** Experiment defaults shared by the benches. */
inline ExperimentConfig
defaultConfig(double extraScale = 1.0)
{
    ExperimentConfig cfg;
    double s = scaleFactor() * extraScale;
    cfg.trainRecords =
        static_cast<uint64_t>(cfg.trainRecords * s);
    cfg.testRecords = static_cast<uint64_t>(cfg.testRecords * s);
    return cfg;
}

/** Announce a bench with its paper reference. */
inline void
banner(const std::string &what, const std::string &paperRef)
{
    std::printf("### %s\n### reproduces: %s\n", what.c_str(),
                paperRef.c_str());
    std::printf("### trace scale: %.2fx\n\n", scaleFactor());
}

/** Append an arithmetic-mean row across the numeric columns. */
inline void
addAverageRow(TableReporter &table,
              const std::vector<std::vector<double>> &rows,
              int precision = 2)
{
    if (rows.empty())
        return;
    std::vector<double> avg(rows[0].size(), 0.0);
    for (const auto &r : rows)
        for (size_t c = 0; c < r.size(); ++c)
            avg[c] += r[c];
    for (auto &v : avg)
        v /= rows.size();
    table.addRow("Avg", avg, precision);
}

/** @p v printed with @p precision decimals, for run-record JSON. */
inline std::string
fixed(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

/**
 * Append one run record to the bench history at @p path, a JSON file
 * laid out as
 *
 *   {
 *     "bench": "<bench>",
 *     "runs": [
 *       {...},
 *       {...}
 *     ]
 *   }
 *
 * @p fields is the body of the new record ("key": value pairs, one
 * per line, indented 6 spaces); the git revision (`-dirty` when the
 * tree has uncommitted changes), UTC date and core count go first. A
 * missing file starts a new history; a file in any other layout is
 * left untouched and false is returned.
 */
inline bool
appendRunRecord(const std::string &path, const std::string &bench,
                const std::string &fields)
{
    static const std::string kTail = "\n  ]\n}\n";
    std::string text;
    if (FILE *in = std::fopen(path.c_str(), "r")) {
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0)
            text.append(buf, n);
        std::fclose(in);
    }
    bool fresh = text.empty();
    if (!fresh && (text.size() < kTail.size() ||
                   text.compare(text.size() - kTail.size(),
                                kTail.size(), kTail) != 0)) {
        return false;
    }

    std::string rev = "unknown";
    if (FILE *git = popen("git describe --always --dirty 2>/dev/null",
                          "r")) {
        char buf[64] = {};
        if (std::fgets(buf, sizeof(buf), git)) {
            rev = buf;
            rev.erase(rev.find_last_not_of("\n") + 1);
        }
        pclose(git);
    }
    char date[32];
    std::time_t now = std::time(nullptr);
    std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ",
                  std::gmtime(&now));
    std::string record =
        "    {\n      \"git_rev\": \"" + rev + "\",\n" +
        "      \"date\": \"" + date + "\",\n" +
        "      \"cores\": " +
        std::to_string(std::thread::hardware_concurrency()) + ",\n" +
        fields + "\n    }";

    if (fresh)
        text = "{\n  \"bench\": \"" + bench + "\",\n  \"runs\": [\n" +
               record + kTail;
    else
        text.insert(text.size() - kTail.size(), ",\n" + record);
    FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    bool ok = std::fwrite(text.data(), 1, text.size(), out) ==
              text.size();
    return std::fclose(out) == 0 && ok;
}

} // namespace whisper::bench

#endif // WHISPER_BENCH_COMMON_HH
