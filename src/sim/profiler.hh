/**
 * @file
 * In-production profile collection (paper SIV, step 1).
 *
 * Two passes over the training trace stand in for Intel LBR + PT:
 * pass 1 runs the baseline predictor through BranchProfile's count
 * step (LBR's prediction-accuracy bit); the hard branches are then
 * selected, and pass 2 runs the sample step on them (decoded PT
 * trace), optionally also gathering BranchNet training samples.
 */

#ifndef WHISPER_SIM_PROFILER_HH
#define WHISPER_SIM_PROFILER_HH

#include <cstdint>

#include "bp/branch_predictor.hh"
#include "branchnet/branchnet_trainer.hh"
#include "core/profile.hh"
#include "trace/branch_source.hh"

namespace whisper
{

/** Hard-branch selection knobs. */
struct ProfileOptions
{
    /** Cap on branches with detailed tables (memory bound). */
    unsigned maxHardBranches = 2048;
    /** A hard branch mispredicts at least
     * WhisperConfig::minMispredictions times and is below this
     * baseline accuracy. */
    double maxAccuracy = 0.9975;
    /**
     * Leading fraction of the trace excluded from all profile
     * statistics (the predictor still trains through it). Without
     * this, cold-start mispredictions make the baseline look worse
     * than its steady state and the trainer emits overconfident
     * hints.
     */
    double statsWarmupFraction = 0.3;
    /** Optional BranchNet sample collection during pass 2. */
    BranchNetSampleStore *branchNetStore = nullptr;
};

/**
 * Collect a full profile of @p trace under @p baseline.
 * The predictor is NOT reset first (pass a fresh instance).
 */
BranchProfile collectProfile(BranchSource &trace,
                             BranchPredictor &baseline,
                             const WhisperConfig &cfg,
                             const ProfileOptions &opt
                             = ProfileOptions{});

} // namespace whisper

#endif // WHISPER_SIM_PROFILER_HH
