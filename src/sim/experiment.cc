#include "sim/experiment.hh"

#include "util/logging.hh"

namespace whisper
{

const TruthTableCache &
globalTruthTables()
{
    static const TruthTableCache cache(8);
    return cache;
}

std::unique_ptr<BranchPredictor>
makeTage(unsigned budgetKB)
{
    return std::make_unique<TageScl>(
        TageSclConfig::forBudgetKB(budgetKB));
}

std::unique_ptr<BranchPredictor>
makeBundlePredictor(unsigned tageBudgetKB, const WhisperConfig &cfg,
                    const TruthTableCache &cache,
                    const HintBundle *bundle)
{
    if (!bundle)
        return makeTage(tageBudgetKB);
    return std::make_unique<WhisperPredictor>(
        makeTage(tageBudgetKB), cfg, cache, bundle->hints,
        bundle->placements);
}

std::unique_ptr<BranchPredictor>
makeMtage(const ExperimentConfig &cfg)
{
    return makeTage(cfg.mtageBudgetKB);
}

BranchProfile
profileApp(const AppConfig &app, uint32_t input,
           const ExperimentConfig &cfg, BranchNetSampleStore *store)
{
    AppWorkload trace(app, input, cfg.trainRecords);
    auto baseline = makeTage(cfg.tageBudgetKB);
    ProfileOptions opt = cfg.profile;
    opt.branchNetStore = store;
    return collectProfile(trace, *baseline, cfg.whisper, opt);
}

WhisperBuild
trainWhisperWith(const AppConfig &app, uint32_t trainInput,
                 const BranchProfile &profile,
                 const ExperimentConfig &cfg,
                 const WhisperTrainer &trainer)
{
    WhisperBuild build;
    build.hints = trainer.train(profile, nullptr, &build.stats);

    AppWorkload trace(app, trainInput, cfg.trainRecords);
    HintInjector injector(cfg.injector);
    build.placements = injector.place(trace, build.hints);
    build.overhead = HintInjector::overhead(
        build.placements, trace.staticInstructions(),
        profile.totalInstructions);
    return build;
}

WhisperBuild
trainWhisper(const AppConfig &app, uint32_t trainInput,
             const BranchProfile &profile,
             const ExperimentConfig &cfg, double fractionOverride)
{
    WhisperTrainer trainer(cfg.whisper, globalTruthTables());
    if (fractionOverride >= 0.0)
        trainer.setCandidateFraction(fractionOverride);
    return trainWhisperWith(app, trainInput, profile, cfg, trainer);
}

std::unique_ptr<BranchPredictor>
makeWhisperPredictor(const ExperimentConfig &cfg,
                     const WhisperBuild &build)
{
    return std::make_unique<WhisperPredictor>(
        makeTage(cfg.tageBudgetKB), cfg.whisper, globalTruthTables(),
        build.hints, build.placements);
}

std::unique_ptr<BranchPredictor>
makeRombfPredictor(unsigned bits, const BranchProfile &profile,
                   const ExperimentConfig &cfg,
                   RombfTrainingStats *stats)
{
    // The trainer owns the enumeration the predictor references, so
    // keep one per variant alive for the process.
    static RombfTrainer trainer4(4);
    static RombfTrainer trainer8(8);
    whisper_assert(bits == 4 || bits == 8);
    const RombfTrainer &trainer = bits == 4 ? trainer4 : trainer8;
    auto hints = trainer.train(profile, stats);
    return std::make_unique<RombfPredictor>(
        makeTage(cfg.tageBudgetKB), trainer, hints);
}

std::unique_ptr<BranchPredictor>
makeBranchNetPredictor(uint64_t budgetBytes,
                       const BranchProfile &profile,
                       const BranchNetSampleStore &store,
                       const ExperimentConfig &cfg,
                       BranchNetTrainingStats *stats)
{
    BranchNetTrainer trainer(budgetBytes);
    auto models = trainer.train(profile, store, stats);
    std::string label = budgetBytes == 0
        ? "unlimited-branchnet"
        : std::to_string(budgetBytes / 1024) + "kb-branchnet";
    return std::make_unique<BranchNetPredictor>(
        makeTage(cfg.tageBudgetKB), std::move(models), label);
}

PredictorRunStats
evalApp(const AppConfig &app, uint32_t input,
        const ExperimentConfig &cfg, BranchPredictor &predictor,
        double warmupFraction)
{
    AppWorkload trace(app, input, cfg.testRecords);
    return runPredictor(trace, predictor, warmupFraction);
}

PipelineStats
evalPipeline(const AppConfig &app, uint32_t input,
             const ExperimentConfig &cfg,
             BranchPredictor &predictor)
{
    AppWorkload trace(app, input, cfg.testRecords);
    PipelineModel model(cfg.pipeline);
    return model.run(trace, predictor);
}

double
reductionPercent(const PredictorRunStats &baseline,
                 const PredictorRunStats &treated)
{
    if (baseline.mispredicts == 0)
        return 0.0;
    return 100.0 *
           (1.0 - static_cast<double>(treated.mispredicts) /
                      static_cast<double>(baseline.mispredicts));
}

} // namespace whisper
