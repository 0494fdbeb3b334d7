/**
 * @file
 * Experiment orchestration shared by tests, examples, and every
 * bench binary: profile an application on its training input, train
 * a technique, and evaluate it on a test input — the paper's
 * cross-input methodology (SV-A).
 */

#ifndef WHISPER_SIM_EXPERIMENT_HH
#define WHISPER_SIM_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bp/branch_predictor.hh"
#include "bp/tage_scl.hh"
#include "branchnet/branchnet_predictor.hh"
#include "core/hint_injection.hh"
#include "core/whisper_io.hh"
#include "core/whisper_predictor.hh"
#include "core/whisper_trainer.hh"
#include "rombf/rombf_predictor.hh"
#include "sim/profiler.hh"
#include "sim/runner.hh"
#include "uarch/pipeline.hh"
#include "workloads/app_workload.hh"

namespace whisper
{

/** Shared experiment knobs. */
struct ExperimentConfig
{
    uint64_t trainRecords = 2'000'000; //!< profile-trace length
    uint64_t testRecords = 1'500'000;  //!< evaluation-trace length
    /** Default stats warm-up for evaluation runs (cf. Fig. 22: the
     * paper's headline numbers treat half the trace as warm-up). */
    double evalWarmup = 0.5;
    unsigned tageBudgetKB = 64;       //!< baseline predictor size
    unsigned mtageBudgetKB = 4096;    //!< "unlimited" reference
    WhisperConfig whisper;
    ProfileOptions profile;
    HintInjector::Config injector;
    PipelineConfig pipeline;
};

/** Process-wide cache of all 2^15 formula truth tables. */
const TruthTableCache &globalTruthTables();

/** Fresh TAGE-SC-L at the given budget. */
std::unique_ptr<BranchPredictor> makeTage(unsigned budgetKB);

/**
 * Fresh TAGE-SC-L at @p tageBudgetKB running @p bundle's hints and
 * placements under Whisper, or the plain TAGE-SC-L when @p bundle is
 * null (no bundle deployed yet).
 */
std::unique_ptr<BranchPredictor>
makeBundlePredictor(unsigned tageBudgetKB, const WhisperConfig &cfg,
                    const TruthTableCache &cache,
                    const HintBundle *bundle);

/** Fresh MTAGE-SC stand-in (very large TAGE-SC-L). */
std::unique_ptr<BranchPredictor> makeMtage(const ExperimentConfig &cfg);

/**
 * Profile @p app's training input under a fresh baseline TAGE of
 * the configured size. @p store optionally collects BranchNet
 * samples.
 */
BranchProfile profileApp(const AppConfig &app, uint32_t input,
                         const ExperimentConfig &cfg,
                         BranchNetSampleStore *store = nullptr);

/** Everything Whisper's offline pass produces for one application. */
struct WhisperBuild
{
    std::vector<TrainedHint> hints;
    std::vector<HintPlacement> placements;
    TrainingStats stats;
    InjectionOverhead overhead;
};

/**
 * Run Whisper's offline analysis: train hints on @p profile and
 * place brhints on the training trace.
 *
 * @param fractionOverride when >= 0, overrides the config's
 *        randomized-testing fraction (Fig. 15 sweep)
 */
WhisperBuild trainWhisper(const AppConfig &app, uint32_t trainInput,
                          const BranchProfile &profile,
                          const ExperimentConfig &cfg,
                          double fractionOverride = -1.0);

/** Same, with a caller-configured trainer (ablation studies). */
WhisperBuild trainWhisperWith(const AppConfig &app,
                              uint32_t trainInput,
                              const BranchProfile &profile,
                              const ExperimentConfig &cfg,
                              const WhisperTrainer &trainer);

/** Whisper hybrid over a fresh baseline TAGE. */
std::unique_ptr<BranchPredictor>
makeWhisperPredictor(const ExperimentConfig &cfg,
                     const WhisperBuild &build);

/** ROMBF hybrid (4- or 8-bit variant) over a fresh baseline TAGE. */
std::unique_ptr<BranchPredictor>
makeRombfPredictor(unsigned bits, const BranchProfile &profile,
                   const ExperimentConfig &cfg,
                   RombfTrainingStats *stats = nullptr);

/**
 * BranchNet hybrid over a fresh baseline TAGE.
 * @param budgetBytes metadata budget; 0 = unlimited variant
 */
std::unique_ptr<BranchPredictor>
makeBranchNetPredictor(uint64_t budgetBytes,
                       const BranchProfile &profile,
                       const BranchNetSampleStore &store,
                       const ExperimentConfig &cfg,
                       BranchNetTrainingStats *stats = nullptr);

/** Accuracy run of @p predictor on @p app's test input. */
PredictorRunStats evalApp(const AppConfig &app, uint32_t input,
                          const ExperimentConfig &cfg,
                          BranchPredictor &predictor,
                          double warmupFraction = 0.0);

/** Timing run on the pipeline model. */
PipelineStats evalPipeline(const AppConfig &app, uint32_t input,
                           const ExperimentConfig &cfg,
                           BranchPredictor &predictor);

/** Misprediction reduction (%) of @p treated vs @p baseline. */
double reductionPercent(const PredictorRunStats &baseline,
                        const PredictorRunStats &treated);

} // namespace whisper

#endif // WHISPER_SIM_EXPERIMENT_HH
