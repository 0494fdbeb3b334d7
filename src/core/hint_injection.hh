/**
 * @file
 * Link-time brhint placement (paper SIV, "Hint injection").
 *
 * For each hinted branch Whisper picks a predecessor basic block
 * using the conditional-probability correlation algorithm of the
 * I-SPY/Ripple/Twig line of work: among blocks that execute shortly
 * before the branch, pick the one whose execution best predicts an
 * imminent execution of the branch (high coverage of the branch's
 * executions, high precision so the hint is not executed uselessly).
 *
 * The trace's branch PCs stand in for basic blocks: the block led by
 * the instruction after a branch is identified by that branch's PC.
 */

#ifndef WHISPER_CORE_HINT_INJECTION_HH
#define WHISPER_CORE_HINT_INJECTION_HH

#include <cstdint>
#include <vector>

#include "core/whisper_trainer.hh"
#include "trace/branch_source.hh"

namespace whisper
{

/** Placement of one brhint into a predecessor block. */
struct HintPlacement
{
    uint64_t branchPc = 0;      //!< the hinted branch
    uint64_t predecessorPc = 0; //!< block that executes the brhint
    double coverage = 0.0;  //!< P(pred executed within window | branch)
    double precision = 0.0; //!< P(branch within window | pred executed)
    /** Dynamic executions of the predecessor on the training trace
     * (= brhint instructions executed there). */
    uint64_t predecessorExecutions = 0;

    bool operator==(const HintPlacement &o) const = default;
};

/** Static/dynamic instruction overhead of an injection (Fig. 19). */
struct InjectionOverhead
{
    uint64_t staticHints = 0;       //!< brhint instructions added
    uint64_t dynamicHints = 0;      //!< brhint executions on the trace
    double staticIncreasePct = 0.0; //!< vs static instruction footprint
    double dynamicIncreasePct = 0.0; //!< vs dynamic instructions
};

/** Offline placement pass. */
class HintInjector
{
  public:
    struct Config
    {
        /** Look-behind window, in branch records, within which a
         * block counts as a predecessor. Bounds hint timeliness. */
        unsigned window = 16;
        /** Placements below this coverage fall back to the hinted
         * branch's own block (self-placement). */
        double minCoverage = 0.30;
    };

    explicit HintInjector(const Config &cfg);

    /**
     * One pass over @p trace selecting a predecessor for every hint.
     * @p trace is rewound first.
     */
    std::vector<HintPlacement>
    place(BranchSource &trace,
          const std::vector<TrainedHint> &hints) const;

    /**
     * Overhead accounting: @p staticInstructions is the footprint of
     * the unmodified binary; @p dynamicInstructions the trace's
     * retired count.
     */
    static InjectionOverhead
    overhead(const std::vector<HintPlacement> &placements,
             uint64_t staticInstructions, uint64_t dynamicInstructions);

  private:
    Config cfg_;
};

} // namespace whisper

#endif // WHISPER_CORE_HINT_INJECTION_HH
