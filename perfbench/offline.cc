/**
 * @file
 * The offline workloads: the paper's Fig. 10 flow with the same calls
 * as whisper_train (load -> collectProfile -> WhisperTrainer::train ->
 * HintInjector::place -> saveHintBundle) followed by whisper_eval's
 * TAGE and whisper+TAGE accuracy and pipeline runs on the held-out
 * input.
 *
 * A run repeats set-up (generate both traces, write the .whrt files,
 * build the formula truth tables) and a train + eval round until the
 * measuring time is used up. Set-up and round timings are medians over
 * the rounds, each taken at a quiet host's speed (see
 * kQuietCalibrationSeconds); peak RSS is the smallest round peak.
 * Simulated results must repeat exactly in every round, and match the
 * ones committed for the seed (run.py checks the outcome).
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "bench.hh"
#include "core/whisper_io.hh"
#include "core/whisper_predictor.hh"
#include "sim/experiment.hh"
#include "sim/profiler.hh"
#include "sim/runner.hh"
#include "uarch/pipeline.hh"

using namespace whisper;

namespace perfbench
{

namespace
{

constexpr unsigned kMinRounds = 3;
constexpr uint64_t kTrainRecords = 400'000;
constexpr uint64_t kTestRecords = 200'000;
constexpr double kEvalWarmup = 0.5; // whisper_eval's default

struct Paths
{
    std::string train, test, bundle;
};

/** whisper_train: trace on disk to hint bundle on disk. */
struct TrainRound
{
    HintBundle bundle;
    TrainingStats stats;
    uint64_t hardBranches = 0;
    double seconds = 0.0;
    double loadSeconds = 0.0;
};

/** whisper_eval --pipeline on the held-out trace. */
struct EvalRound
{
    PredictorRunStats tage, whisper;
    PipelineStats tagePipe, whisperPipe;
    uint64_t bufHits = 0, bufMisses = 0, bufEvictions = 0;
    uint64_t hintPredictions = 0, hintCorrect = 0;
    double seconds = 0.0;
};

/** Everything a round produces that must repeat exactly. */
struct Outcome
{
    uint64_t hardBranches = 0;
    uint64_t hints = 0;
    uint64_t formulasScored = 0;
    uint64_t tageMispredicts = 0;
    uint64_t whisperMispredicts = 0;
    double tageCycles = 0.0;
    double whisperCycles = 0.0;
    double bundleCrc = 0.0;

    bool operator==(const Outcome &) const = default;
};

std::unique_ptr<WhisperPredictor>
makeWhisper(const ExperimentConfig &cfg, const TruthTableCache &cache,
            const HintBundle &bundle)
{
    return std::make_unique<WhisperPredictor>(
        makeTage(cfg.tageBudgetKB), cfg.whisper, cache, bundle.hints,
        bundle.placements);
}

TrainRound
trainRound(const ExperimentConfig &cfg, const TruthTableCache &cache,
           const Paths &paths, Result &r)
{
    TrainRound out;
    Span round("bench.train");
    auto t0 = Clock::now();
    BranchTrace trace;
    IoStatus st;
    {
        Span span("trace.load");
        st = trace.load(paths.train);
        out.loadSeconds = secondsSince(t0);
    }
    r.check(static_cast<bool>(st), "load the training trace");
    TraceSource source(trace);
    BranchProfile profile(cfg.whisper);
    {
        Span span("sim.profile");
        auto baseline = makeTage(cfg.tageBudgetKB);
        profile = collectProfile(source, *baseline, cfg.whisper,
                                 cfg.profile);
    }
    out.hardBranches = profile.numHardBranches();
    {
        Span span("core.search");
        WhisperTrainer trainer(cfg.whisper, cache);
        out.bundle.hints = trainer.train(profile, nullptr, &out.stats);
    }
    {
        Span span("core.place");
        HintInjector injector(cfg.injector);
        out.bundle.placements = injector.place(source, out.bundle.hints);
    }
    {
        Span span("core.save_bundle");
        r.check(saveHintBundle(out.bundle, paths.bundle),
                "save the hint bundle");
    }
    out.seconds = secondsSince(t0);
    return out;
}

EvalRound
evalRound(const ExperimentConfig &cfg, const TruthTableCache &cache,
          const Paths &paths, const HintBundle &saved, Result &r)
{
    EvalRound out;
    Span round("bench.eval");
    auto t0 = Clock::now();
    BranchTrace trace;
    HintBundle bundle;
    IoStatus st;
    {
        Span span("trace.load");
        st = trace.load(paths.test);
    }
    r.check(static_cast<bool>(st), "load the test trace");
    {
        Span span("core.load_bundle");
        st = loadHintBundle(bundle, paths.bundle);
    }
    r.check(st && bundle == saved,
            "the saved bundle reloads equal to what was saved");
    {
        Span span("bp.tage");
        auto tage = makeTage(cfg.tageBudgetKB);
        TraceSource src(trace);
        out.tage = runPredictor(src, *tage, kEvalWarmup);
    }
    {
        Span span("sim.whisper");
        auto whisper = makeWhisper(cfg, cache, bundle);
        TraceSource src(trace);
        out.whisper = runPredictor(src, *whisper, kEvalWarmup);
        const HintBuffer &buf = whisper->hintBuffer();
        out.bufHits = buf.hits();
        out.bufMisses = buf.misses();
        out.bufEvictions = buf.evictions();
        out.hintPredictions = whisper->hintPredictions();
        out.hintCorrect = whisper->hintCorrect();
    }
    {
        Span span("uarch.pipeline");
        auto tage = makeTage(cfg.tageBudgetKB);
        TraceSource src(trace);
        out.tagePipe = PipelineModel(cfg.pipeline).run(src, *tage);
    }
    {
        Span span("uarch.pipeline");
        auto whisper = makeWhisper(cfg, cache, bundle);
        TraceSource src(trace);
        out.whisperPipe = PipelineModel(cfg.pipeline).run(src, *whisper);
    }
    out.seconds = secondsSince(t0);
    return out;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

Result
runOffline(const Options &opt, const std::string &app)
{
    Result r;
    const double cpu0 = cpuSeconds();
    const auto runStart = Clock::now();
    const Paths paths{opt.workDir + "/train.whrt",
                      opt.workDir + "/test.whrt",
                      opt.workDir + "/train.hints"};

    ExperimentConfig cfg;
    std::vector<double> setupTimes, genTimes, calTimes;
    std::vector<double> trainTimes, evalTimes, roundRss;
    std::unique_ptr<TruthTableCache> cache;
    std::optional<Outcome> first;
    TrainRound train;
    EvalRound eval;
    // The kernel's first run also faults its table in.
    calibrationSeconds();
    double cal = calibrationSeconds();
    calTimes.push_back(cal);
    // Every round starts with a fresh set-up, so that set-up samples
    // spread over the whole run as the rounds do. Every stage is
    // bracketed by calibration runs (see kQuietCalibrationSeconds).
    const auto measureStart = Clock::now();
    while (trainTimes.size() < kMinRounds ||
           secondsSince(measureStart) < opt.seconds) {
        double setupSeconds = 0.0;
        {
            Span span("bench.setup");
            auto t0 = Clock::now();
            BranchTrace trainTrace = generateTrace(app, 0, opt.seed,
                                                   kTrainRecords);
            BranchTrace testTrace = generateTrace(app, 1, opt.seed,
                                                  kTestRecords);
            genTimes.push_back(secondsSince(t0));
            {
                Span save("trace.save");
                r.check(trainTrace.save(paths.train) &&
                            testTrace.save(paths.test),
                        "write the .whrt inputs");
            }
            {
                Span tables("core.truth_tables");
                // What globalTruthTables() holds, built afresh.
                cache = std::make_unique<TruthTableCache>(8);
            }
            setupSeconds = secondsSince(t0);
        }
        double calSetup = calibrationSeconds();
        setupTimes.push_back(atQuietSpeed(setupSeconds, cal, calSetup));

        beginRoundMemory();
        train = trainRound(cfg, *cache, paths, r);
        double calTrain = calibrationSeconds();
        eval = evalRound(cfg, *cache, paths, train.bundle, r);
        roundRss.push_back(peakRssMb());
        cal = calibrationSeconds();
        trainTimes.push_back(atQuietSpeed(train.seconds, calSetup, calTrain));
        evalTimes.push_back(atQuietSpeed(eval.seconds, calTrain, cal));
        calTimes.insert(calTimes.end(), {calSetup, calTrain, cal});
        std::fprintf(stderr,
                     "round %zu: train %.4f s wall, %.4f s at quiet speed; "
                     "eval %.4f s wall, %.4f s at quiet speed\n",
                     trainTimes.size() - 1, train.seconds, trainTimes.back(),
                     eval.seconds, evalTimes.back());

        Outcome out{train.hardBranches,
                    train.bundle.hints.size(),
                    train.stats.formulasScored,
                    eval.tage.mispredicts,
                    eval.whisper.mispredicts,
                    eval.tagePipe.cycles(),
                    eval.whisperPipe.cycles(),
                    bundleDigest(VersionedHintBundle{0, 0.0, train.bundle})};
        r.check(out.whisperMispredicts <= out.tageMispredicts,
                "whisper+TAGE mispredicts no more than TAGE");
        if (!first)
            first = out;
        r.check(out == *first,
                "hints, formulas, mispredicts and cycles repeat exactly");
    }

    r.outcome = {
        {"hard_branches", static_cast<double>(first->hardBranches)},
        {"hints", static_cast<double>(first->hints)},
        {"formulas_scored", static_cast<double>(first->formulasScored)},
        {"tage_mispredicts", static_cast<double>(first->tageMispredicts)},
        {"whisper_mispredicts",
         static_cast<double>(first->whisperMispredicts)},
        {"tage_cycles", first->tageCycles},
        {"whisper_cycles", first->whisperCycles},
        {"bundle_crc32", first->bundleCrc},
    };

    // Four passes over the test trace: two accuracy, two pipeline.
    const double evalRecords = 4.0 * kTestRecords;
    auto &E = r.endToEnd;
    E["setup_s"] = median(setupTimes);
    E["turnaround_s"] = median(trainTimes);
    E["mrec_per_s"] = evalRecords / median(evalTimes) / 1e6;
    // The smallest round peak: which freed blocks the allocator keeps
    // varies from round to round, as round times do.
    E["peak_rss_mb"] = *std::min_element(roundRss.begin(), roundRss.end());

    // ---- per-layer figures (span medians; only a traced run has
    //      spans, and only a traced run prints these) ----
    auto &L = r.perLayer;
    const double trainRecs = static_cast<double>(kTrainRecords);
    const double testRecs = static_cast<double>(kTestRecords);
    const double tageS = medianSpan("bp.tage");
    const double whisperS = medianSpan("sim.whisper");
    const double profileS = medianSpan("sim.profile");
    const double searchS = medianSpan("core.search");
    const double formulas = static_cast<double>(first->formulasScored);
    L["workloads.gen_mrec_per_s"] =
        ratio(static_cast<double>(2 * kSeedWindowRecords +
                                  kTrainRecords + kTestRecords),
              median(genTimes)) / 1e6;
    L["trace.load_s"] = train.loadSeconds;
    L["trace.bytes_per_rec"] =
        static_cast<double>(fileBytes(paths.train)) / trainRecs;
    L["bp.tage_mrec_per_s"] = ratio(testRecs, tageS) / 1e6;
    L["sim.profile_s"] = profileS;
    L["sim.profile_mrec_per_s"] = ratio(trainRecs, profileS) / 1e6;
    L["sim.hard_branches"] = static_cast<double>(first->hardBranches);
    L["core.search_s"] = searchS;
    L["core.formulas_scored"] = formulas;
    L["core.search_ns_per_formula"] = 1e9 * ratio(searchS, formulas);
    L["core.hints"] = static_cast<double>(first->hints);
    L["core.hint_yield"] =
        ratio(static_cast<double>(first->hints),
              static_cast<double>(first->hardBranches));
    L["core.place_s"] = medianSpan("core.place");
    L["core.bundle_bytes"] = static_cast<double>(fileBytes(paths.bundle));
    L["sim.whisper_mrec_per_s"] = ratio(testRecs, whisperS) / 1e6;
    L["sim.whisper_over_tage"] = ratio(tageS, whisperS);
    L["core.whisper_ns_per_rec"] = 1e9 * (whisperS - tageS) / testRecs;
    L["core.hintbuf_hit_frac"] =
        ratio(static_cast<double>(eval.bufHits),
              static_cast<double>(eval.bufHits + eval.bufMisses));
    L["core.hintbuf_evictions"] = static_cast<double>(eval.bufEvictions);
    L["core.hint_correct_frac"] =
        ratio(static_cast<double>(eval.hintCorrect),
              static_cast<double>(eval.hintPredictions));
    L["sim.mpki_reduction_pct"] =
        reductionPercent(eval.tage, eval.whisper);
    L["uarch.ipc_gain_pct"] =
        100.0 * (eval.whisperPipe.ipc() / eval.tagePipe.ipc() - 1.0);
    L["uarch.pipeline_s"] = 2.0 * medianSpan("uarch.pipeline");
    L["uarch.squash_share"] = ratio(eval.whisperPipe.squashCycles,
                                    eval.whisperPipe.cycles());
    L["proc.cpu_per_wall"] =
        (cpuSeconds() - cpu0) / secondsSince(runStart);
    L["bench.host_slowdown"] = median(calTimes) / kQuietCalibrationSeconds;

    std::fprintf(stderr,
                 "offline-%s: %zu rounds, %llu hard branches, %llu hints, "
                 "%llu formulas, mispredicts tage=%llu "
                 "whisper+tage=%llu\n",
                 app.c_str(), trainTimes.size(),
                 static_cast<unsigned long long>(first->hardBranches),
                 static_cast<unsigned long long>(first->hints),
                 static_cast<unsigned long long>(first->formulasScored),
                 static_cast<unsigned long long>(first->tageMispredicts),
                 static_cast<unsigned long long>(
                     first->whisperMispredicts));
    return r;
}

} // namespace perfbench
