/**
 * @file
 * Training-cost study for the sparse-correlation screen and
 * warm-started retraining: on the Fig. 16 workloads, train the
 * second epoch's hints three ways — cold (the paper's exhaustive
 * length x formula scan), pruned (correlation-screened candidate
 * sets), and pruned+warm (screened, seeded with epoch 1's hints) —
 * and report train time against the coverage/accuracy each mode
 * achieves. Appends a run record to BENCH_train.json's history;
 * CI's train-smoke job runs `bench_train --quick`, which exits
 * nonzero unless warm-started retraining beats the cold scan on mean
 * train time.
 */

#include "common.hh"

#include <cstring>

using namespace whisper;
using namespace whisper::bench;

namespace
{

struct ModeResult
{
    double seconds = 0.0;
    uint64_t scored = 0;
    size_t hints = 0;
    double coveragePct = 0.0;
    double evalAccuracyPct = 0.0;
    uint64_t warmHits = 0;
};

/**
 * Train the epoch-2 profile in one mode and (full runs only)
 * evaluate the resulting bundle on the held-out third input.
 */
ModeResult
runMode(const AppConfig &app, const ExperimentConfig &cfg,
        const BranchProfile &profile,
        const std::vector<TrainedHint> *seeds, bool prune,
        bool doEval)
{
    WhisperTrainer trainer(cfg.whisper, globalTruthTables());
    if (prune)
        trainer.setScreen(ScreenConfig{});
    TrainingStats stats;
    WhisperBuild build;
    // One worker: the recorded seconds compare modes, not core counts.
    build.hints = trainer.train(profile, seeds, &stats, 1);

    ModeResult r;
    r.seconds = stats.trainSeconds;
    r.scored = stats.formulasScored;
    r.hints = build.hints.size();
    r.coveragePct = profile.totalMispredicts
        ? 100.0 * static_cast<double>(stats.coveredMispredicts) /
              static_cast<double>(profile.totalMispredicts)
        : 0.0;
    r.warmHits = stats.warmHits;

    if (doEval) {
        AppWorkload trace(app, 1, cfg.trainRecords);
        HintInjector injector(cfg.injector);
        build.placements = injector.place(trace, build.hints);
        auto predictor = makeWhisperPredictor(cfg, build);
        PredictorRunStats ev =
            evalApp(app, 2, cfg, *predictor, cfg.evalWarmup);
        r.evalAccuracyPct = 100.0 * ev.accuracy();
    }
    return r;
}

struct AppResult
{
    std::string name;
    ModeResult cold, pruned, warm;
};

std::string
jsonMode(const char *key, const ModeResult &m)
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "\"%s\": {\"seconds\": %.4f, \"formulas_scored\": %llu, "
        "\"hints\": %zu, \"coverage_pct\": %.2f, "
        "\"eval_accuracy_pct\": %.3f, \"warm_hits\": %llu}",
        key, m.seconds, static_cast<unsigned long long>(m.scored),
        m.hints, m.coveragePct, m.evalAccuracyPct,
        static_cast<unsigned long long>(m.warmHits));
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    banner("Training cost: cold vs pruned vs pruned+warm",
           "SIV training cost (cf. Fig. 16 scale); screening + "
           "warm-start are this repo's extensions");

    ExperimentConfig cfg = defaultConfig(quick ? 0.25 : 1.0);
    cfg.profile.maxHardBranches = quick ? 128 : 512;
    const std::vector<AppConfig> apps = {
        appByName("mysql"), appByName("cassandra"),
        appByName("finagle-http")};

    std::vector<AppResult> results;
    RunningStat coldS, prunedS, warmS;
    for (const auto &app : apps) {
        // Epoch 1: profile input 0 and train the hints a deployed
        // service would be running — the warm seeds for epoch 2.
        BranchProfile epoch1 = profileApp(app, 0, cfg);
        WhisperTrainer seedTrainer(cfg.whisper, globalTruthTables());
        seedTrainer.setScreen(ScreenConfig{});
        std::vector<TrainedHint> seeds =
            seedTrainer.train(epoch1, nullptr, nullptr, 1);

        // Epoch 2: retrain on input 1 in each mode.
        BranchProfile epoch2 = profileApp(app, 1, cfg);
        AppResult r;
        r.name = app.name;
        r.cold = runMode(app, cfg, epoch2, nullptr, false, !quick);
        r.pruned = runMode(app, cfg, epoch2, nullptr, true, !quick);
        r.warm = runMode(app, cfg, epoch2, &seeds, true, !quick);
        coldS.add(r.cold.seconds);
        prunedS.add(r.pruned.seconds);
        warmS.add(r.warm.seconds);
        results.push_back(std::move(r));
    }

    TableReporter table(
        "train time vs achieved coverage/accuracy (epoch-2 retrain, "
        "top hard branches)");
    table.setHeader({"app", "mode", "seconds", "formulas", "hints",
                     "coverage%", "eval-acc%"});
    for (const auto &r : results) {
        for (auto [mode, m] :
             {std::pair<const char *, const ModeResult *>{
                  "cold", &r.cold},
              {"pruned", &r.pruned},
              {"pruned+warm", &r.warm}}) {
            table.addRow({r.name, mode, fixed(m->seconds, 4),
                          std::to_string(m->scored),
                          std::to_string(m->hints),
                          fixed(m->coveragePct, 2),
                          fixed(m->evalAccuracyPct, 3)});
        }
    }
    table.print();

    double speedupPruned =
        prunedS.mean() > 0 ? coldS.mean() / prunedS.mean() : 0.0;
    double speedupWarm =
        warmS.mean() > 0 ? coldS.mean() / warmS.mean() : 0.0;
    std::printf("\nmean train seconds: cold %.4f, pruned %.4f "
                "(%.1fx), pruned+warm %.4f (%.1fx)\n",
                coldS.mean(), prunedS.mean(), speedupPruned,
                warmS.mean(), speedupWarm);

    // One run record: config, per-app modes, then the summary.
    std::string fields =
        "      \"scale\": " + fixed(scaleFactor(), 3) + ",\n" +
        "      \"quick\": " + (quick ? "true" : "false") + ",\n" +
        "      \"max_hard_branches\": " +
        std::to_string(cfg.profile.maxHardBranches) + ",\n" +
        "      \"apps\": {\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const AppResult &r = results[i];
        fields += "        \"" + r.name + "\": {\n" +
                  "          " + jsonMode("cold", r.cold) + ",\n" +
                  "          " + jsonMode("pruned", r.pruned) + ",\n" +
                  "          " + jsonMode("pruned_warm", r.warm) +
                  "\n        }" + (i + 1 < results.size() ? "," : "") +
                  "\n";
    }
    fields += "      },\n      \"summary\": {\"cold_mean_s\": " +
              fixed(coldS.mean(), 4) + ", \"pruned_mean_s\": " +
              fixed(prunedS.mean(), 4) +
              ", \"pruned_warm_mean_s\": " + fixed(warmS.mean(), 4) +
              ", \"speedup_pruned\": " + fixed(speedupPruned, 2) +
              ", \"speedup_pruned_warm\": " + fixed(speedupWarm, 2) +
              "}";
    const char *jsonPath = "BENCH_train.json";
    if (appendRunRecord(jsonPath, "train", fields))
        std::printf("appended a run to %s\n", jsonPath);
    else
        std::fprintf(stderr, "warning: cannot append to %s\n",
                     jsonPath);

    if (quick && !(warmS.mean() < coldS.mean())) {
        std::fprintf(stderr,
                     "FAIL: warm-started retraining (%.4fs mean) "
                     "not faster than the cold scan (%.4fs mean)\n",
                     warmS.mean(), coldS.mean());
        return 1;
    }
    return 0;
}
