/**
 * @file
 * whisper_trace_gen — materialize a synthetic application trace to
 * a .whrt file (the library's branch-trace format). The file then
 * feeds whisper_trace_stats / whisper_train / whisper_eval, mirroring
 * the paper's collect-once-analyze-offline flow.
 *
 * Usage:
 *   whisper_trace_gen --app mysql --input 0 --records 2000000 \
 *                     --out mysql_i0.whrt
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "trace/branch_trace.hh"
#include "util/stdio_guard.hh"
#include "workloads/app_workload.hh"

#include "cli_parse.hh"

using namespace whisper;

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: whisper_trace_gen --app NAME [--input N] "
        "[--records N] [--drift SPEC] --out FILE\n"
        "  --app      application model (see whisper_trace_stats "
        "--list)\n"
        "  --input    workload input id (default 0)\n"
        "  --records  branch records to emit (default 2000000)\n"
        "  --drift    mid-stream drift schedule, "
        "KIND[:key=value,...]\n"
        "             kinds: none|phase|gradual|adversarial; keys: "
        "period,\n"
        "             phases, intensity, frac, seed (e.g. "
        "phase:period=50000,phases=4)\n"
        "  --out      output trace file\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    guardStdio();
    std::string appName, outPath, driftArg;
    uint32_t input = 0;
    uint64_t records = 2'000'000;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--app")
            appName = next();
        else if (arg == "--input")
            input = static_cast<uint32_t>(
                parseInteger("--input", next(), 0, UINT32_MAX));
        else if (arg == "--records")
            records = parseInteger("--records", next(), 0, UINT64_MAX);
        else if (arg == "--drift")
            driftArg = next();
        else if (arg == "--out")
            outPath = next();
        else
            usage();
    }
    if (appName.empty() || outPath.empty())
        usage();

    DriftSpec drift;
    if (!driftArg.empty()) {
        std::string error;
        if (!parseDriftSpec(driftArg, &drift, &error)) {
            std::fprintf(stderr, "error: --drift %s: %s\n",
                         driftArg.c_str(), error.c_str());
            return 2;
        }
    }

    const AppConfig *appPtr = findAppByName(appName);
    if (!appPtr) {
        std::fprintf(stderr,
                     "error: unknown application '%s'\n"
                     "valid --app names:\n",
                     appName.c_str());
        for (const std::string &name : allAppNames())
            std::fprintf(stderr, "  %s\n", name.c_str());
        return 2;
    }
    const AppConfig &app = *appPtr;
    AppWorkload workload(app, input, records, drift);
    BranchTrace trace(app.name, input);
    trace.fill(workload, records);

    if (!trace.save(outPath)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     outPath.c_str());
        return 1;
    }
    if (drift.active())
        std::printf("drift: %s\n",
                    describeDriftSpec(drift).c_str());
    std::printf("%s: %zu records, %llu instructions, %llu "
                "conditionals -> %s\n",
                app.name.c_str(), trace.size(),
                static_cast<unsigned long long>(trace.instructions()),
                static_cast<unsigned long long>(trace.conditionals()),
                outPath.c_str());
    return 0;
}
