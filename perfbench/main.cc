/**
 * @file
 * whisper_bench: run one benchmark workload in this process and print
 * its figures as one JSON line. run.py builds this binary and turns
 * that line into the benchmark's result, with names and units taken
 * from BENCHMARK.json.
 *
 * Usage:
 *   whisper_bench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Workloads: offline-mysql, offline-finagle, whisperd-saturate.
 * Scratch files live under .bench_out/work-<pid> and are removed at
 * exit; a traced run (--trace 1) also writes
 * .bench_out/spans-<workload>-<seed>.json.
 *
 * Besides the metrics, the line carries the seed's input window and
 * the run's simulated outcome (counts and bundle digests), which
 * run.py compares with the values committed in expected.json.
 */

#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: whisper_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n"
                 "  workloads: offline-mysql, offline-finagle, "
                 "whisperd-saturate\n");
    std::exit(2);
}

void
printValues(const char *key, const std::map<std::string, double> &values)
{
    std::printf("\"%s\": {", key);
    bool first = true;
    for (const auto &[name, value] : values) {
        std::printf("%s\"%s\": ", first ? "" : ", ", name.c_str());
        // NaN and infinities are not JSON; run.py rejects the null.
        if (std::isfinite(value))
            std::printf("%.17g", value);
        else
            std::printf("null");
        first = false;
    }
    std::printf("}");
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    Options opt;
    const std::string outDir = ".bench_out";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage();
        const char *value = argv[++i];
        if (arg == "--workload")
            opt.workload = value;
        else if (arg == "--seed")
            opt.seed = std::strtoull(value, nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::atof(value);
        else if (arg == "--trace")
            opt.trace = std::atoi(value) != 0;
        else
            usage();
    }
    if (opt.seconds <= 0)
        usage();

    Result (*run)(const Options &) = nullptr;
    if (opt.workload == "offline-mysql")
        run = [](const Options &o) { return runOffline(o, "mysql"); };
    else if (opt.workload == "offline-finagle")
        run = [](const Options &o) {
            return runOffline(o, "finagle-http");
        };
    else if (opt.workload == "whisperd-saturate")
        run = runWhisperd;
    else
        usage();

    if (opt.trace)
        spans().enable();
    opt.workDir = outDir + "/work-" + std::to_string(getpid());
    std::error_code ec;
    std::filesystem::create_directories(opt.workDir, ec);
    if (ec) {
        std::fprintf(stderr, "error: cannot create %s: %s\n",
                     opt.workDir.c_str(), ec.message().c_str());
        return 1;
    }

    Result r = run(opt);
    std::filesystem::remove_all(opt.workDir, ec);

    if (opt.trace) {
        std::string path = outDir + "/spans-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".json";
        r.check(spans().write(path, r.endToEnd), "write " + path);
    }
    for (const std::string &f : r.failures)
        std::fprintf(stderr, "FAILED: %s\n", f.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"window\": %llu, ",
                r.correct() ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(opt.seed % kSeedWindows));
    printValues("end_to_end", r.endToEnd);
    std::printf(", ");
    printValues("per_layer", r.perLayer);
    std::printf(", ");
    printValues("outcome", r.outcome);
    std::printf("}\n");
    return 0;
}
