/**
 * @file
 * whisper_train — the offline half of the paper's usage model
 * (Fig. 10, steps 1-2): profile a training trace under the deployed
 * predictor, run Whisper's branch analysis, and emit a deployable
 * hint bundle.
 *
 * Usage:
 *   whisper_train --trace mysql_i0.whrt --out mysql.hints \
 *                 [--tage-kb 64] [--fraction 0.01] [--verbose]
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "core/whisper_io.hh"
#include "trace/branch_trace.hh"
#include "util/stdio_guard.hh"
#include "sim/experiment.hh"
#include "util/table.hh"

#include "cli_parse.hh"

using namespace whisper;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: whisper_train --trace FILE --out FILE [options]\n"
        "  --trace FILE        training trace (.whrt)\n"
        "  --out FILE          hint bundle to write\n"
        "  --tage-kb N         profiled predictor budget, a power of "
        "two in 8..8192 (default 64)\n"
        "  --fraction F        randomized-testing fraction "
        "(default 0.01)\n"
        "  --max-hard N        hard-branch cap (default 2048)\n"
        "  --train-prune on|off sparse-correlation screening of the "
        "search space (default off:\n"
        "                      the offline tool reproduces the "
        "paper's exhaustive scan)\n"
        "  --warm-hints FILE   warm-start the search from a "
        "previously trained bundle\n"
        "  --verbose           per-hint report\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    guardStdio();
    std::string tracePath, outPath, warmPath;
    unsigned tageKb = 64;
    double fraction = -1.0;
    unsigned maxHard = 2048;
    bool verbose = false;
    bool trainPrune = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--trace")
            tracePath = next();
        else if (arg == "--out")
            outPath = next();
        else if (arg == "--tage-kb")
            tageKb = parseTageKb("--tage-kb", next());
        else if (arg == "--fraction")
            fraction = parseReal("--fraction", next(),
                                 std::numeric_limits<double>::min(), 1.0,
                                 "a fraction in (0, 1]");
        else if (arg == "--max-hard")
            maxHard = static_cast<unsigned>(
                parsePositive("--max-hard", next(), UINT32_MAX));
        else if (arg == "--train-prune" ||
                 arg.rfind("--train-prune=", 0) == 0) {
            std::string v = arg == "--train-prune"
                ? std::string(next())
                : arg.substr(sizeof("--train-prune=") - 1);
            trainPrune = parseOnOff("--train-prune", v);
        } else if (arg == "--warm-hints")
            warmPath = next();
        else if (arg == "--verbose")
            verbose = true;
        else
            usage();
    }
    if (tracePath.empty() || outPath.empty())
        usage();

    BranchTrace trace;
    if (IoStatus st = trace.load(tracePath); !st) {
        std::fprintf(stderr, "error: %s\n", st.message.c_str());
        return 1;
    }
    std::printf("profiling %zu records under a %uKB TAGE-SC-L...\n",
                trace.size(), tageKb);

    ExperimentConfig cfg;
    cfg.tageBudgetKB = tageKb;
    cfg.profile.maxHardBranches = maxHard;
    if (fraction > 0)
        cfg.whisper.formulaFraction = fraction;

    TraceSource source(trace);
    auto baseline = makeTage(tageKb);
    auto profileStart = std::chrono::steady_clock::now();
    BranchProfile profile = collectProfile(source, *baseline,
                                           cfg.whisper, cfg.profile);
    double profileSeconds = secondsSince(profileStart);
    std::printf("  %zu static branches, %zu hard, baseline "
                "MPKI %.2f (profiled in %.2fs)\n",
                profile.numBranches(), profile.numHardBranches(),
                1000.0 * profile.totalMispredicts /
                    std::max<uint64_t>(1, profile.totalInstructions),
                profileSeconds);

    HintBundle warmBundle;
    bool haveWarm = false;
    if (!warmPath.empty()) {
        if (IoStatus st = loadHintBundle(warmBundle, warmPath); !st) {
            std::fprintf(stderr, "error: %s\n", st.message.c_str());
            return 1;
        }
        haveWarm = true;
    }

    std::printf("training (randomized formula testing, %.2f%% of "
                "formulas%s%s)...\n",
                100.0 * cfg.whisper.formulaFraction,
                trainPrune ? ", sparse-correlation pruned" : "",
                haveWarm ? ", warm-started" : "");
    WhisperTrainer trainer(cfg.whisper, globalTruthTables());
    if (trainPrune)
        trainer.setScreen(ScreenConfig{});
    TrainingStats stats;
    HintBundle bundle;
    unsigned workers = WhisperTrainer::defaultWorkers();
    bundle.hints = trainer.train(
        profile, haveWarm ? &warmBundle.hints : nullptr, &stats, workers);

    HintInjector injector(cfg.injector);
    auto placeStart = std::chrono::steady_clock::now();
    bundle.placements = injector.place(source, bundle.hints);
    double placeSeconds = secondsSince(placeStart);
    InjectionOverhead overhead = HintInjector::overhead(
        bundle.placements, trace.size(), trace.instructions());

    if (!saveHintBundle(bundle, outPath)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     outPath.c_str());
        return 1;
    }
    std::printf("  %zu hints (%.2fs on %u workers, %.2fs CPU summed "
                "over branches, %llu formulas scored, "
                "%llu warm hits / %llu cold searches; placed in "
                "%.2fs) -> %s\n",
                bundle.hints.size(), stats.trainSeconds, workers,
                stats.branchSecondsSum,
                static_cast<unsigned long long>(stats.formulasScored),
                static_cast<unsigned long long>(stats.warmHits),
                static_cast<unsigned long long>(stats.coldSearches),
                placeSeconds, outPath.c_str());
    std::printf("  expected on-profile reduction: %.1f%% of covered "
                "mispredictions; dynamic hint overhead %.2f%%\n",
                stats.coveredMispredicts
                    ? 100.0 *
                          (stats.coveredMispredicts -
                           stats.expectedRemaining) /
                          stats.coveredMispredicts
                    : 0.0,
                overhead.dynamicIncreasePct);

    if (verbose) {
        TableReporter t("hints");
        t.setHeader({"pc", "mode", "hist-len", "profiled-miss",
                     "expected-miss"});
        for (const auto &h : bundle.hints) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "0x%llx",
                          static_cast<unsigned long long>(h.pc));
            const char *mode =
                h.hint.bias == HintBias::Formula
                    ? "formula"
                    : (h.hint.bias == HintBias::AlwaysTaken
                           ? "always"
                           : "never");
            t.addRow({buf, mode, std::to_string(h.historyLength),
                      std::to_string(h.profiledMispredicts),
                      std::to_string(h.expectedMispredicts)});
        }
        t.print();
    }
    return 0;
}
