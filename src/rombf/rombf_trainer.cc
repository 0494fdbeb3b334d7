#include "rombf/rombf_trainer.hh"

#include <chrono>
#include <cmath>

#include "core/formula_trainer.hh"
#include "util/logging.hh"

namespace whisper
{

RombfTrainer::RombfTrainer(unsigned historyLength, bool dedupe,
                           double minImprovement,
                           uint64_t minMispredictions)
    : histLen_(historyLength), minImprovement_(minImprovement),
      minMispredictions_(minMispredictions),
      enum_(enumerateRombf(historyLength, dedupe))
{
    whisper_assert(historyLength == 4 || historyLength == 8,
                   "paper variants are 4b and 8b");
}

std::vector<RombfHint>
RombfTrainer::train(const BranchProfile &profile,
                    RombfTrainingStats *stats) const
{
    auto start = std::chrono::steady_clock::now();
    RombfTrainingStats local;

    std::vector<RombfHint> hints;
    for (const BranchProfileEntry *entry : profile.hardBranches()) {
        if (entry->baselineMispredicts < minMispredictions_)
            continue;
        ++local.branchesConsidered;

        const HashedSampleTable &samples =
            histLen_ == 4 ? entry->raw4 : entry->raw8;

        RombfHint hint;
        hint.pc = entry->pc;
        hint.profiledMispredicts = entry->baselineMispredicts;

        // Tautology/contradiction first.
        uint64_t best = entry->biasMispredicts();
        hint.tableIdx = -1;
        hint.biasTaken = entry->takenCount >= entry->notTakenCount();

        if (samples.totalSamples() > 0) {
            FormulaScorer scorer(samples);
            for (size_t i = 0; i < enum_.tables.size(); ++i) {
                uint64_t t = scorer.score(enum_.tables[i]);
                ++local.formulasScored;
                if (t < best) {
                    best = t;
                    hint.tableIdx = static_cast<int>(i);
                }
            }
        }
        hint.expectedMispredicts = best;

        // Same two-part bar as Whisper's trainer so the baseline
        // comparison is apples-to-apples: relative improvement plus
        // a minimum absolute gain per execution.
        double baseline =
            static_cast<double>(entry->baselineMispredicts);
        double gainPerExec =
            (baseline - static_cast<double>(best)) /
            static_cast<double>(
                std::max<uint64_t>(entry->executions, 1));
        if (static_cast<double>(best) <
                baseline * (1.0 - minImprovement_) &&
            gainPerExec >= 0.005) {
            hints.push_back(hint);
        }
    }

    local.hintsEmitted = hints.size();
    local.trainSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (stats)
        *stats = local;
    return hints;
}

} // namespace whisper
