/**
 * @file
 * whisper_trace_stats — inspect a .whrt trace file: record mix,
 * instruction counts, taken rates, hottest branches; or list the
 * built-in application models.
 *
 * Usage:
 *   whisper_trace_stats TRACE.{whrt,cbp} [--top N]
 *   whisper_trace_stats --convert-cbp IN.cbp OUT.whrt
 *   whisper_trace_stats --export-cbp IN.whrt OUT.cbp
 *   whisper_trace_stats --list
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "trace/branch_trace.hh"
#include "trace/cbp_reader.hh"
#include "util/stdio_guard.hh"
#include "util/table.hh"
#include "workloads/app_workload.hh"

#include "cli_parse.hh"

using namespace whisper;

namespace
{

bool
hasSuffix(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

/** Load either native .whrt or CBP-style text (by extension). */
IoStatus
loadAnyTrace(const std::string &path, BranchTrace *out)
{
    if (hasSuffix(path, ".cbp"))
        return loadCbpTrace(path, out);
    return out->load(path);
}

/** @p n as a percentage of @p total; 0 for an empty total. */
double
percent(uint64_t n, uint64_t total)
{
    return total ? 100.0 * n / total : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    guardStdio(); // `| head` must end the report, not the process
    if (argc >= 2 && (std::string(argv[1]) == "--convert-cbp" ||
                      std::string(argv[1]) == "--export-cbp")) {
        bool toWhrt = std::string(argv[1]) == "--convert-cbp";
        if (argc != 4) {
            std::fprintf(stderr,
                         "usage: whisper_trace_stats %s IN OUT\n",
                         argv[1]);
            return 2;
        }
        BranchTrace trace;
        IoStatus st = toWhrt ? loadCbpTrace(argv[2], &trace)
                             : trace.load(argv[2]);
        if (!st) {
            std::fprintf(stderr, "error: %s\n", st.message.c_str());
            return 1;
        }
        bool saved = toWhrt ? trace.save(argv[3])
                            : saveCbpTrace(trace, argv[3]);
        if (!saved) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         argv[3]);
            return 1;
        }
        std::printf("%s: %zu records (app=%s input=%u) -> %s\n",
                    argv[2], trace.size(), trace.app().c_str(),
                    trace.inputId(), argv[3]);
        return 0;
    }
    if (argc >= 2 && std::string(argv[1]) == "--list") {
        TableReporter t("application models");
        t.setHeader({"name", "family", "regions", "request-types"});
        for (const auto &a : dataCenterApps())
            t.addRow({a.name, "datacenter",
                      std::to_string(a.numRegions),
                      std::to_string(a.numRequestTypes)});
        for (const auto &a : specApps())
            t.addRow({a.name, "spec-like",
                      std::to_string(a.numRegions),
                      std::to_string(a.numRequestTypes)});
        t.print();
        return 0;
    }
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: whisper_trace_stats TRACE.{whrt,cbp} "
                     "[--top N] | --convert-cbp IN OUT | "
                     "--export-cbp IN OUT | --list\n");
        return 2;
    }

    size_t topN = 10;
    if (argc >= 4 && std::string(argv[2]) == "--top")
        topN = static_cast<size_t>(
            parseInteger("--top", argv[3], 0, SIZE_MAX));

    BranchTrace trace;
    if (IoStatus st = loadAnyTrace(argv[1], &trace); !st) {
        std::fprintf(stderr, "error: %s\n", st.message.c_str());
        return 1;
    }

    uint64_t kinds[5] = {};
    uint64_t takenConds = 0;
    std::map<uint64_t, uint64_t> perPc;
    for (const auto &rec : trace) {
        ++kinds[static_cast<size_t>(rec.kind)];
        if (rec.isConditional()) {
            ++perPc[rec.pc];
            if (rec.taken)
                ++takenConds;
        }
    }

    std::printf("trace: app=%s input=%u records=%zu "
                "instructions=%llu\n",
                trace.app().c_str(), trace.inputId(), trace.size(),
                static_cast<unsigned long long>(
                    trace.instructions()));
    TableReporter mix("record mix");
    mix.setHeader({"kind", "count", "share-%"});
    const char *names[] = {"conditional", "unconditional", "call",
                           "return", "indirect"};
    for (int k = 0; k < 5; ++k) {
        mix.addRow({names[k], std::to_string(kinds[k]),
                    TableReporter::formatDouble(
                        percent(kinds[k], trace.size()))});
    }
    mix.print();

    std::printf("static conditional branches: %zu; taken rate "
                "%.1f%%\n\n",
                perPc.size(), percent(takenConds, trace.conditionals()));

    std::vector<std::pair<uint64_t, uint64_t>> hot(perPc.begin(),
                                                   perPc.end());
    std::sort(hot.begin(), hot.end(), [](auto &a, auto &b) {
        return a.second > b.second;
    });
    if (hot.size() > topN)
        hot.resize(topN);
    TableReporter top("hottest conditional branches");
    top.setHeader({"pc", "executions", "share-%"});
    for (const auto &[pc, n] : hot) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "0x%llx",
                      static_cast<unsigned long long>(pc));
        top.addRow({buf, std::to_string(n),
                    TableReporter::formatDouble(
                        percent(n, trace.conditionals()))});
    }
    top.print();
    // A truncated pipe (`| head`) is a normal way to consume this
    // report, not a failure of the tool.
    return 0;
}
