/**
 * @file
 * whisper_eval — evaluate predictors on a trace: the deployed
 * TAGE-SC-L baseline, optionally Whisper with a trained hint bundle,
 * and reference predictors. Reports MPKI/accuracy and (with
 * --pipeline) IPC on the frontend model.
 *
 * Usage:
 *   whisper_eval --trace mysql_i1.whrt [--hints mysql.hints]
 *                [--tage-kb 64] [--warmup 0.5] [--pipeline]
 *                [--predictors tage,whisper,mtage,ideal,...]
 *
 * Each predictor runs once over the whole trace, in order, with its
 * state carried from the first record to the last.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bp/simple_predictors.hh"
#include "core/whisper_io.hh"
#include "trace/branch_trace.hh"
#include "util/stdio_guard.hh"
#include "trace/cbp_reader.hh"
#include "sim/experiment.hh"
#include "util/table.hh"

#include "cli_parse.hh"

using namespace whisper;

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: whisper_eval --trace FILE [options]\n"
        "  --trace FILE      evaluation trace (.whrt, or a\n"
        "                    CBP-style text trace ending in .cbp)\n"
        "  --hints FILE      hint bundle (enables 'whisper')\n"
        "  --tage-kb N       baseline budget, a power of two in 8..8192\n"
        "                    (default 64)\n"
        "  --warmup F        stats warm-up fraction (default 0.5)\n"
        "  --pipeline        also run the timing model\n"
        "  --predictors LIST comma list of: tage, whisper, mtage,\n"
        "                    ideal\n"
        "  --per-epoch       dump per-epoch accuracy lines (one\n"
        "                    key=value line per epoch window) from\n"
        "                    an epoch-adaptive run of each predictor\n"
        "  --epoch-records N records per epoch window for\n"
        "                    --per-epoch (default 262144)\n");
    std::exit(2);
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    guardStdio();
    std::string tracePath, hintsPath;
    unsigned tageKb = 64;
    double warmup = 0.5;
    bool pipeline = false;
    bool perEpoch = false;
    uint64_t epochRecords = 262'144;
    std::vector<std::string> predictors = {"tage"};

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--trace")
            tracePath = next();
        else if (arg == "--hints")
            hintsPath = next();
        else if (arg == "--tage-kb")
            tageKb = parseTageKb("--tage-kb", next());
        else if (arg == "--warmup")
            warmup = parseFraction("--warmup", next());
        else if (arg == "--pipeline")
            pipeline = true;
        else if (arg == "--predictors")
            predictors = splitList(next());
        else if (arg == "--per-epoch")
            perEpoch = true;
        else if (arg == "--epoch-records")
            epochRecords = parsePositive("--epoch-records", next());
        else
            usage();
    }
    if (tracePath.empty())
        usage();
    if (!hintsPath.empty() &&
        predictors == std::vector<std::string>{"tage"})
        predictors = {"tage", "whisper"};

    ExperimentConfig cfg;
    cfg.tageBudgetKB = tageKb;
    HintBundle bundle;

    // The --predictors names: each one's factory, and the option it
    // needs (nullptr when none) with whether that option was given.
    struct PredictorKind
    {
        const char *needs;
        bool given;
        std::function<std::unique_ptr<BranchPredictor>()> make;
    };
    const std::map<std::string, PredictorKind> kinds = {
        {"tage", {nullptr, true, [&] { return makeTage(tageKb); }}},
        {"mtage", {nullptr, true, [&] { return makeMtage(cfg); }}},
        {"ideal",
         {nullptr, true, [] { return std::make_unique<IdealPredictor>(); }}},
        {"whisper",
         {"--hints", !hintsPath.empty(),
          [&] {
              WhisperBuild build;
              build.hints = bundle.hints;
              build.placements = bundle.placements;
              return makeWhisperPredictor(cfg, build);
          }}},
    };
    // Every name is checked before the trace loads, so a bad list
    // fails at once instead of after the predictors ahead of it ran.
    for (const auto &name : predictors) {
        auto kind = kinds.find(name);
        if (kind == kinds.end()) {
            std::fprintf(stderr, "error: unknown predictor '%s'\n",
                         name.c_str());
            return 2;
        }
        if (!kind->second.given) {
            std::fprintf(stderr, "error: '%s' needs %s\n", name.c_str(),
                         kind->second.needs);
            return 2;
        }
    }

    BranchTrace trace;
    bool isCbp = tracePath.size() >= 4 &&
                 tracePath.compare(tracePath.size() - 4, 4, ".cbp") ==
                     0;
    if (IoStatus st = isCbp ? loadCbpTrace(tracePath, &trace)
                            : trace.load(tracePath);
        !st) {
        std::fprintf(stderr, "error: %s\n", st.message.c_str());
        return 1;
    }

    if (!hintsPath.empty()) {
        if (IoStatus st = loadHintBundle(bundle, hintsPath); !st) {
            std::fprintf(stderr, "error: %s\n", st.message.c_str());
            return 1;
        }
    }

    TableReporter table("evaluation: " + trace.app() + " input #" +
                        std::to_string(trace.inputId()));
    std::vector<std::string> header = {"predictor", "MPKI",
                                       "accuracy-%", "mispredicts"};
    if (pipeline)
        header.push_back("IPC");
    table.setHeader(header);

    for (const auto &name : predictors) {
        auto pred = kinds.at(name).make();
        TraceSource src(trace);
        PredictorRunStats stats = runPredictor(src, *pred, warmup);
        std::vector<std::string> row = {
            pred->name(), TableReporter::formatDouble(stats.mpki()),
            TableReporter::formatDouble(100.0 * stats.accuracy()),
            std::to_string(stats.mispredicts)};
        if (pipeline) {
            auto fresh = kinds.at(name).make();
            TraceSource src2(trace);
            PipelineModel model(cfg.pipeline);
            auto p = model.run(src2, *fresh);
            row.push_back(TableReporter::formatDouble(p.ipc()));
        }
        table.addRow(row);
    }
    table.print();

    if (perEpoch) {
        // Machine-readable accuracy-over-time: one line per epoch
        // window from an epoch-adaptive run (static predictor — the
        // refresh hook stays empty, so this shows how a fixed bundle
        // ages across a drifting stream).
        for (const auto &name : predictors) {
            auto pred = kinds.at(name).make();
            TraceSource src(trace);
            AdaptiveRunStats stats =
                runPredictorAdaptive(src, *pred, epochRecords, nullptr);
            for (size_t e = 0; e < stats.perEpoch.size(); ++e) {
                const auto &ep = stats.perEpoch[e];
                std::printf(
                    "per-epoch predictor=%s epoch=%zu "
                    "instructions=%llu conditionals=%llu "
                    "mispredicts=%llu accuracy=%.6f mpki=%.4f\n",
                    pred->name().c_str(), e,
                    static_cast<unsigned long long>(
                        ep.instructions),
                    static_cast<unsigned long long>(
                        ep.conditionals),
                    static_cast<unsigned long long>(ep.mispredicts),
                    ep.accuracy(), ep.mpki());
            }
            std::printf("per-epoch-summary predictor=%s epochs=%zu "
                        "epoch-records=%llu accuracy=%.6f "
                        "mpki=%.4f\n",
                        pred->name().c_str(),
                        stats.perEpoch.size(),
                        static_cast<unsigned long long>(
                            epochRecords),
                        stats.total.accuracy(), stats.total.mpki());
        }
    }

    return 0;
}
