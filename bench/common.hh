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
#include <string>
#include <vector>

#include "bp/simple_predictors.hh"
#include "sim/experiment.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "workloads/app_workload.hh"

#include "run_record.hh"

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

} // namespace whisper::bench

#endif // WHISPER_BENCH_COMMON_HH
