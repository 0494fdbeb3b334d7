#include "sim/classifier.hh"

#include <unordered_map>
#include <unordered_set>

#include "trace/global_history.hh"
#include "util/bits.hh"

namespace whisper
{

MispredictBreakdown
classifyMispredictions(BranchSource &source,
                       BranchPredictor &predictor,
                       const ClassifierConfig &cfg)
{
    struct SubstreamInfo
    {
        uint64_t lastAccess = 0;
        uint64_t takenCount = 0;
        uint64_t notTakenCount = 0;
    };

    std::unordered_map<uint64_t, SubstreamInfo> substreams;
    std::unordered_set<uint64_t> knownPcs;
    GlobalHistory history(2 * cfg.substreamHistLen);
    size_t view = history.addFoldedView(cfg.substreamHistLen,
                                        cfg.substreamHashBits);

    MispredictBreakdown result;
    uint64_t accessCounter = 0;

    source.rewind();
    stepBlocks(source, predictor, [&](const BranchRecord &rec, bool miss) {
        if (!rec.isConditional())
            return;

        uint64_t key = hashCombine(
            mix64(rec.pc),
            static_cast<uint64_t>(history.foldedValue(view)));
        ++accessCounter;

        bool newPc = knownPcs.insert(rec.pc).second;
        auto [it, newSubstream] = substreams.try_emplace(key);
        SubstreamInfo &info = it->second;

        if (miss) {
            ++result.total;
            MispredictClass cls;
            if (newPc) {
                // First reference of the static branch itself.
                cls = MispredictClass::Compulsory;
            } else if (newSubstream) {
                // Known branch, never-seen history context: a
                // predictor with enough capacity would have retained
                // the branch's other contexts and generalized; a
                // capacity-bound one starts over (the working set of
                // substreams exceeds the tables — paper SII-C).
                cls = MispredictClass::Capacity;
            } else {
                uint64_t occurrences =
                    info.takenCount + info.notTakenCount;
                double minority = occurrences
                    ? static_cast<double>(
                          std::min(info.takenCount,
                                   info.notTakenCount)) /
                          occurrences
                    : 0.0;
                if (occurrences >= cfg.minOccurrences &&
                    minority >= cfg.dataThreshold) {
                    cls = MispredictClass::ConditionalOnData;
                } else if (accessCounter - info.lastAccess >
                           cfg.capacityDistance) {
                    cls = MispredictClass::Capacity;
                } else {
                    cls = MispredictClass::Conflict;
                }
            }
            ++result.counts[static_cast<size_t>(cls)];
        }

        info.lastAccess = accessCounter;
        if (rec.taken)
            ++info.takenCount;
        else
            ++info.notTakenCount;
        history.push(rec.taken);
    });
    return result;
}

} // namespace whisper
