/**
 * @file
 * Misprediction classification (paper SII-C, Fig. 3).
 *
 * Each misprediction is attributed to one of four classes by
 * analyzing consecutive accesses of the branch's substream (PC
 * combined with folded history):
 *
 *  - Compulsory: first access of the substream;
 *  - Conditional-on-data: the substream's outcome does not correlate
 *    with history (the same substream keeps flipping direction);
 *  - Capacity: the substream recurred, but so far apart that any
 *    capacity-bounded table would have evicted it (approximated by
 *    the access distance since the previous occurrence);
 *  - Conflict: the substream recurred recently with a stable outcome
 *    yet was still mispredicted.
 */

#ifndef WHISPER_SIM_CLASSIFIER_HH
#define WHISPER_SIM_CLASSIFIER_HH

#include <array>
#include <cstdint>

#include "bp/branch_predictor.hh"
#include "trace/branch_source.hh"

namespace whisper
{

/** The four classes of Fig. 3. */
enum class MispredictClass : uint8_t
{
    Compulsory = 0,
    Capacity = 1,
    Conflict = 2,
    ConditionalOnData = 3,
};

/** Classifier knobs. */
struct ClassifierConfig
{
    /** History length folded into the substream identity. */
    unsigned substreamHistLen = 24;
    /** Folded width of that history. */
    unsigned substreamHashBits = 12;
    /**
     * Substream-access distance beyond which a recurring substream
     * counts as capacity-evicted (matched to the predictor's entry
     * count).
     */
    uint64_t capacityDistance = 1ULL << 15;
    /**
     * Minority-outcome fraction above which a substream is deemed
     * conditional-on-data.
     */
    double dataThreshold = 0.20;
    /** Minimum substream occurrences before the entropy test. */
    uint64_t minOccurrences = 4;
};

/** Result: misprediction counts per class. */
struct MispredictBreakdown
{
    std::array<uint64_t, 4> counts{};
    uint64_t total = 0;

    double
    fraction(MispredictClass c) const
    {
        return total
            ? static_cast<double>(
                  counts[static_cast<size_t>(c)]) / total
            : 0.0;
    }
};

/** Run @p predictor over @p source, classifying every mispredict. */
MispredictBreakdown
classifyMispredictions(BranchSource &source,
                       BranchPredictor &predictor,
                       const ClassifierConfig &cfg
                       = ClassifierConfig{});

} // namespace whisper

#endif // WHISPER_SIM_CLASSIFIER_HH
