#include "sim/analysis.hh"

#include <unordered_map>

#include "util/logging.hh"

namespace whisper
{

CountHistogram
mispredictsPerBranch(BranchSource &source,
                     BranchPredictor &predictor)
{
    CountHistogram hist;
    source.rewind();
    stepBlocks(source, predictor, [&](const BranchRecord &rec, bool miss) {
        if (miss)
            hist.add(rec.pc);
    });
    return hist;
}

BucketHistogram
mispredictsByHistoryLength(const BranchProfile &profile,
                           double explainThreshold)
{
    BucketHistogram hist({8, 16, 32, 64, 128, 256, 512, 1024});
    const auto &lengths = profile.lengths();

    for (const BranchProfileEntry *e : profile.hardBranches()) {
        if (e->baselineMispredicts == 0 || e->executions == 0)
            continue;

        // Oracle accuracy at each candidate length; pick the
        // shortest length whose oracle removes explainThreshold of
        // the bias-prediction mispredictions.
        uint64_t biasMiss = e->biasMispredicts();
        unsigned attributed = 2048; // beyond the last bucket
        if (biasMiss == 0) {
            attributed = 1;
        } else {
            for (size_t l = 0; l < lengths.size(); ++l) {
                uint64_t oracleMiss =
                    e->byLength[l].oracleMispredicts();
                double removed = 1.0 -
                    static_cast<double>(oracleMiss) / biasMiss;
                if (removed >= explainThreshold) {
                    attributed = lengths[l];
                    break;
                }
            }
        }
        hist.add(attributed, e->baselineMispredicts);
    }
    return hist;
}

OpClassDistribution
opClassDistribution(const BranchProfile &profile,
                    const std::vector<TrainedHint> &hints,
                    double biasCutoff)
{
    std::unordered_map<uint64_t, const TrainedHint *> byPc;
    for (const auto &h : hints)
        byPc[h.pc] = &h;

    OpClassDistribution dist;
    for (const auto &[pc, e] : profile.entries()) {
        if (e.executions == 0)
            continue;
        OpClass cls = OpClass::Others;
        auto it = byPc.find(pc);
        if (it != byPc.end()) {
            const TrainedHint *h = it->second;
            switch (h->hint.bias) {
              case HintBias::AlwaysTaken:
                cls = OpClass::AlwaysTaken;
                break;
              case HintBias::NeverTaken:
                cls = OpClass::NeverTaken;
                break;
              case HintBias::Formula:
                cls = BoolFormula(h->hint.formula, 8).classify();
                break;
            }
        } else {
            double takenRate = static_cast<double>(e.takenCount) /
                               e.executions;
            if (takenRate >= biasCutoff)
                cls = OpClass::AlwaysTaken;
            else if (takenRate <= 1.0 - biasCutoff)
                cls = OpClass::NeverTaken;
        }
        dist.weight[static_cast<size_t>(cls)] += e.executions;
        dist.total += e.executions;
    }
    return dist;
}

} // namespace whisper
