/**
 * @file
 * Predictor-only trace driver (no timing): feeds a branch stream to
 * a predictor and accumulates accuracy statistics, following the
 * CBP-5 methodology of counting only conditional-branch
 * mispredictions.
 */

#ifndef WHISPER_SIM_RUNNER_HH
#define WHISPER_SIM_RUNNER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "bp/branch_predictor.hh"
#include "trace/branch_source.hh"

namespace whisper
{

/** Accuracy statistics of one run. */
struct PredictorRunStats
{
    uint64_t instructions = 0;   //!< counted after warm-up
    uint64_t conditionals = 0;
    uint64_t mispredicts = 0;
    uint64_t warmupInstructions = 0;

    double
    mpki() const
    {
        return instructions
            ? 1000.0 * static_cast<double>(mispredicts) /
                  instructions
            : 0.0;
    }

    double
    accuracy() const
    {
        return conditionals
            ? 1.0 - static_cast<double>(mispredicts) / conditionals
            : 1.0;
    }
};

/**
 * Run @p source to exhaustion through @p predictor.
 *
 * @param warmupFraction fraction of the stream's instructions whose
 *        outcomes train the predictor but are excluded from the
 *        statistics (Fig. 22's warm-up sweep)
 */
PredictorRunStats runPredictor(BranchSource &source,
                               BranchPredictor &predictor,
                               double warmupFraction = 0.0);

/** Statistics of an epoch-adaptive run. */
struct AdaptiveRunStats
{
    PredictorRunStats total;                //!< whole-stream stats
    std::vector<PredictorRunStats> perEpoch; //!< one per epoch window
    uint64_t predictorSwaps = 0;            //!< refresh() switches
};

/**
 * Epoch-adaptive variant of runPredictor: the stream is cut into
 * windows of @p recordsPerEpoch records, and after each window
 * @p refresh is consulted for a replacement predictor — the hook a
 * continuously retraining service (whisperd's hint store) plugs into
 * so benches can measure online adaptation under input drift.
 *
 * @param refresh called with the index of the epoch about to start;
 *        returns a predictor to switch to, or nullptr to keep the
 *        current one. Returned predictors are NOT owned by the
 *        runner and must outlive the run.
 */
AdaptiveRunStats runPredictorAdaptive(
    BranchSource &source, BranchPredictor &initial,
    uint64_t recordsPerEpoch,
    const std::function<BranchPredictor *(uint64_t nextEpoch)>
        &refresh);

} // namespace whisper

#endif // WHISPER_SIM_RUNNER_HH
