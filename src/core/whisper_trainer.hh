/**
 * @file
 * Whisper's offline branch analysis (paper SIV, step 2).
 *
 * For every hard branch in the profile the trainer scans all m
 * candidate history lengths, runs Algorithm 1 with the randomized
 * candidate set at each length, also considers the static bias
 * options, and emits a brhint only when the winner beats the
 * profiled processor's accuracy on that branch.
 */

#ifndef WHISPER_CORE_WHISPER_TRAINER_HH
#define WHISPER_CORE_WHISPER_TRAINER_HH

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/brhint.hh"
#include "core/correlation_screen.hh"
#include "core/formula_trainer.hh"
#include "core/profile.hh"

namespace whisper
{

/** One trained hint plus the bookkeeping the evaluation uses. */
struct TrainedHint
{
    uint64_t pc = 0;           //!< full branch address
    BrHint hint;               //!< encoded instruction payload
    unsigned historyLength = 0; //!< resolved length (series value)
    uint64_t expectedMispredicts = 0; //!< m' on the training profile
    uint64_t profiledMispredicts = 0; //!< baseline on the profile
    uint64_t executions = 0;

    bool operator==(const TrainedHint &o) const = default;
};

/** Aggregate statistics of one training run. */
struct TrainingStats
{
    uint64_t branchesConsidered = 0;
    uint64_t hintsEmitted = 0;
    uint64_t formulasScored = 0;
    /** Wall time of the run; branchSecondsSum over it is how many
     * cores the run kept busy, on average. */
    double trainSeconds = 0.0;
    /** Profiled mispredictions covered by emitted hints. */
    uint64_t coveredMispredicts = 0;
    /** Expected remaining mispredictions on those branches. */
    uint64_t expectedRemaining = 0;

    // -- warm-start accounting --
    /** Branches whose warm seed (previous formula + neighborhood)
     * satisfied the emission gates, skipping the cold search. */
    uint64_t warmHits = 0;
    /** Branches that ran the full (possibly pruned) search. */
    uint64_t coldSearches = 0;
    /** Per-branch train CPU-time accumulators, by the training
     * thread's clock (mean = sum over branchesConsidered). */
    double branchSecondsSum = 0.0;
    double branchSecondsMax = 0.0;
    /** Branches whose training threw: no hint, TAGE-SC-L fallback. */
    uint64_t branchesDegraded = 0;
};

/** Per-branch outcome of one trainBranchSeeded() call. */
struct BranchTrainOutcome
{
    bool warmHit = false;  //!< emitted straight from the warm seed
    uint64_t scored = 0;   //!< formulas scored for this branch
    double seconds = 0.0;  //!< thread CPU time spent on this branch
};

/** Whisper's offline trainer. */
class WhisperTrainer
{
  public:
    /**
     * @param cfg design parameters (Table III defaults)
     * @param cache shared truth-table cache (must outlive trainer)
     */
    WhisperTrainer(const WhisperConfig &cfg,
                   const TruthTableCache &cache);

    /** The default training width: one worker per hardware thread
     * (std::thread::hardware_concurrency(), at least 1). */
    static unsigned defaultWorkers();

    /**
     * Train hints for every hard branch of @p profile (Algorithm 1
     * per branch). Branches train independently: up to @p workers
     * threads each claim the next branch of the work list, and the
     * results are assembled in work-list order, so the output and
     * every TrainingStats count are bit-identical for any worker
     * count (1 = the calling thread alone; the default is one per
     * hardware thread). A branch whose training throws is degraded,
     * not retried: it gets no hint, so the predictor falls back to
     * TAGE-SC-L for it (TrainingStats::branchesDegraded).
     * @param warmSeeds optional seeds for the per-branch search
     *        (typically the previous epoch's deployed hints);
     *        branches without a seed train cold
     * @param stats optional run statistics out-param
     */
    std::vector<TrainedHint>
    train(const BranchProfile &profile,
          const std::vector<TrainedHint> *warmSeeds = nullptr,
          TrainingStats *stats = nullptr,
          unsigned workers = defaultWorkers()) const;

    /**
     * Train one branch, optionally warm-started from @p warm (the
     * branch's previously deployed hint, or nullptr for a cold
     * search). The warm path re-scores the previous formula and its
     * one-bit-flip neighborhood on the fresh profile; if that
     * neighborhood still clears the emission gates AND retains the
     * seed's trained quality ratio (expectedMispredicts /
     * profiledMispredicts, within warmRetentionSlack/-Noise) the
     * hint is emitted without a cold search (outcome->warmHit). A
     * seed that fails either check falls through to the cold
     * search, so decorrelated traffic never inherits a stale or
     * degraded formula. With screening enabled (setScreen) both
     * paths search only the pruned candidate set.
     */
    bool trainBranchSeeded(const BranchProfileEntry &entry,
                           const std::vector<unsigned> &lengths,
                           const TrainedHint *warm, TrainedHint &out,
                           BranchTrainOutcome *outcome
                           = nullptr) const;

    /** Enable/replace the sparse-correlation screening pass. */
    void setScreen(const ScreenConfig &cfg);

    const FormulaCandidates &candidates() const { return candidates_; }
    const WhisperConfig &config() const { return cfg_; }

    /** Rebuild with a different candidate fraction (Fig. 15 sweep). */
    void setCandidateFraction(double fraction);

    /** Replace the candidate set outright (ablation studies). */
    void setCandidateList(std::vector<uint16_t> encodings);

    /**
     * All AND/OR-only, non-inverted encodings — the classic-ROMBF
     * subset of the formula space (used for the Fig. 14 ablation
     * separating hashed-history correlation from the new
     * implication operators).
     */
    static std::vector<uint16_t> monotoneCandidates();

  private:
    /** One branch of a training run's work list. */
    struct TrainingTask
    {
        const BranchProfileEntry *entry = nullptr;
        const TrainedHint *warm = nullptr; //!< warm seed; nullptr = cold
    };

    /** What training one task produced. */
    struct TrainingTaskResult
    {
        std::optional<TrainedHint> hint; //!< empty: no hint emitted
        BranchTrainOutcome outcome;
    };

    /**
     * The work list of train(): every hard branch of @p profile with
     * at least minMispredictions baseline mispredictions, in
     * hardBranches() order, each with its seed from @p warmSeeds.
     */
    std::vector<TrainingTask>
    workList(const BranchProfile &profile,
             const std::vector<TrainedHint> *warmSeeds) const;

    /** Train one work-list task with trainBranchSeeded(). */
    TrainingTaskResult
    trainTask(const TrainingTask &task,
              const std::vector<unsigned> &lengths) const;

    /**
     * Assemble per-task @p results (in work-list order) into the
     * emitted hints, in that order, and their summed TrainingStats;
     * @p start is when the run began (for trainSeconds).
     */
    static std::vector<TrainedHint>
    assemble(const std::vector<TrainingTaskResult> &results,
             std::chrono::steady_clock::time_point start,
             TrainingStats *stats);

    /** selected_ filtered to formulas supported by @p mask (with
     * the unfiltered fallback when too few survive). */
    std::vector<uint16_t> maskedCandidates(uint8_t mask) const;

    WhisperConfig cfg_;
    const TruthTableCache &cache_;
    FormulaCandidates candidates_;
    std::vector<uint16_t> selected_;
    CorrelationScreen screen_;
};

} // namespace whisper

#endif // WHISPER_CORE_WHISPER_TRAINER_HH
