#include "sim/runner.hh"

#include "util/logging.hh"

namespace whisper
{

PredictorRunStats
runPredictor(BranchSource &source, BranchPredictor &predictor,
             double warmupFraction, uint64_t totalInstructionsHint)
{
    whisper_assert(warmupFraction >= 0.0 && warmupFraction < 1.0);

    uint64_t total = totalInstructionsHint;
    if (warmupFraction > 0.0 && total == 0) {
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
    BranchRecord rec;
    uint64_t seenInstructions = 0;
    while (source.next(rec)) {
        bool miss = stepPredictor(predictor, rec);
        uint64_t instructions = static_cast<uint64_t>(rec.instGap) + 1;
        seenInstructions += instructions;
        if (seenInstructions > warmupLimit) {
            stats.conditionals += rec.isConditional();
            stats.mispredicts += miss;
            stats.instructions += instructions;
        } else {
            stats.warmupInstructions += instructions;
        }
    }
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
    PredictorRunStats epoch;
    uint64_t inEpoch = 0;

    auto closeEpoch = [&]() {
        out.total.instructions += epoch.instructions;
        out.total.conditionals += epoch.conditionals;
        out.total.mispredicts += epoch.mispredicts;
        out.perEpoch.push_back(epoch);
        epoch = PredictorRunStats{};
        inEpoch = 0;
    };

    source.rewind();
    BranchRecord rec;
    while (source.next(rec)) {
        epoch.conditionals += rec.isConditional();
        epoch.mispredicts += stepPredictor(*current, rec);
        epoch.instructions += static_cast<uint64_t>(rec.instGap) + 1;

        if (++inEpoch >= recordsPerEpoch) {
            closeEpoch();
            if (refresh) {
                BranchPredictor *next =
                    refresh(out.perEpoch.size());
                if (next && next != current) {
                    current = next;
                    ++out.predictorSwaps;
                }
            }
        }
    }
    if (inEpoch > 0)
        closeEpoch();
    return out;
}

} // namespace whisper
