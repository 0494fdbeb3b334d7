#include "sim/runner.hh"

#include "trace/branch_trace.hh"
#include "util/logging.hh"

namespace whisper
{

PredictorRunStats
runPredictor(BranchSource &source, BranchPredictor &predictor,
             double warmupFraction)
{
    whisper_assert(warmupFraction >= 0.0 && warmupFraction < 1.0);

    uint64_t total = 0;
    if (warmupFraction > 0.0) {
        // Pre-pass to learn the stream's instruction count.
        source.rewind();
        BranchRecord rec;
        while (source.next(rec))
            total += static_cast<uint64_t>(rec.instGap) + 1;
    }
    uint64_t warmupLimit =
        static_cast<uint64_t>(warmupFraction * total);

    PredictorRunStats stats;
    source.rewind();
    uint64_t seenInstructions = 0;
    stepBlocks(source, predictor, [&](const BranchRecord &rec, bool miss) {
        uint64_t instructions = static_cast<uint64_t>(rec.instGap) + 1;
        seenInstructions += instructions;
        if (seenInstructions > warmupLimit) {
            stats.conditionals += rec.isConditional();
            stats.mispredicts += miss;
            stats.instructions += instructions;
        } else {
            stats.warmupInstructions += instructions;
        }
    });
    return stats;
}

AdaptiveRunStats
runPredictorAdaptive(
    BranchSource &source, BranchPredictor &initial,
    uint64_t recordsPerEpoch,
    const std::function<BranchPredictor *(uint64_t nextEpoch)>
        &refresh)
{
    whisper_assert(recordsPerEpoch > 0);

    AdaptiveRunStats out;
    BranchPredictor *current = &initial;
    source.rewind();
    while (true) {
        // One epoch's window, all stepped by the epoch's predictor.
        PredictorRunStats epoch;
        uint64_t inEpoch = 0;
        LimitSource window(source, recordsPerEpoch);
        stepBlocks(window, *current, [&](const BranchRecord &rec, bool miss) {
            epoch.conditionals += rec.isConditional();
            epoch.mispredicts += miss;
            epoch.instructions += static_cast<uint64_t>(rec.instGap) + 1;
            ++inEpoch;
        });
        if (inEpoch == 0)
            break;
        out.total.instructions += epoch.instructions;
        out.total.conditionals += epoch.conditionals;
        out.total.mispredicts += epoch.mispredicts;
        out.perEpoch.push_back(epoch);
        if (inEpoch < recordsPerEpoch)
            break;
        if (refresh) {
            BranchPredictor *next = refresh(out.perEpoch.size());
            if (next && next != current) {
                current = next;
                ++out.predictorSwaps;
            }
        }
    }
    return out;
}

} // namespace whisper
