#include "core/whisper_trainer.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <ctime>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "util/fault_injection.hh"
#include "util/logging.hh"

namespace whisper
{

WhisperTrainer::WhisperTrainer(const WhisperConfig &cfg,
                               const TruthTableCache &cache)
    : cfg_(cfg), cache_(cache),
      candidates_(cache.numInputs(), cfg.formulaFraction,
                  cfg.formulaShuffleSeed),
      selected_(candidates_.encodings())
{
    // Screening is opt-in: the offline tools and figure benches
    // reproduce the paper's exhaustive scan unless setScreen() is
    // called (whisperd enables it by default).
    ScreenConfig off;
    off.enabled = false;
    screen_ = CorrelationScreen(off);
}

void
WhisperTrainer::setScreen(const ScreenConfig &cfg)
{
    screen_ = CorrelationScreen(cfg);
}

std::vector<uint16_t>
WhisperTrainer::maskedCandidates(uint8_t mask) const
{
    if (mask == 0xFF)
        return selected_;
    std::vector<uint16_t> out;
    out.reserve(selected_.size());
    for (uint16_t enc : selected_)
        if ((cache_.supportMask(enc) & ~mask) == 0)
            out.push_back(enc);
    if (out.size() < screen_.config().minFormulaCandidates)
        return selected_;
    return out;
}

void
WhisperTrainer::setCandidateFraction(double fraction)
{
    selected_ = candidates_.withFraction(fraction);
}

void
WhisperTrainer::setCandidateList(std::vector<uint16_t> encodings)
{
    whisper_assert(!encodings.empty());
    selected_ = std::move(encodings);
}

std::vector<uint16_t>
WhisperTrainer::monotoneCandidates()
{
    std::vector<uint16_t> out;
    for (uint32_t enc = 0; enc < BoolFormula::encodingCount(8);
         ++enc) {
        BoolFormula f(static_cast<uint16_t>(enc), 8);
        if (f.isMonotone())
            out.push_back(static_cast<uint16_t>(enc));
    }
    return out;
}

namespace
{

/** Running winner of one branch's search. */
struct BranchBest
{
    uint64_t mispredicts;
    HintBias bias;
    int lenIdx = -1;
    uint16_t formula = 0;
};

/** The calling thread's CPU seconds: a branch's own cost, however
 * many threads share the cores. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return ts.tv_sec + 1e-9 * ts.tv_nsec;
}

/** The warm candidate set: the previous formula plus its one-bit-
 * flip neighborhood in the 15-bit encoding space. */
std::vector<uint16_t>
warmNeighborhood(uint16_t encoding, unsigned numInputs)
{
    std::vector<uint16_t> encs;
    uint32_t count = BoolFormula::encodingCount(numInputs);
    encs.push_back(encoding);
    for (unsigned bit = 0; bit < 16; ++bit) {
        uint16_t flipped =
            static_cast<uint16_t>(encoding ^ (1u << bit));
        if (flipped < count)
            encs.push_back(flipped);
    }
    return encs;
}

} // namespace

bool
WhisperTrainer::trainBranchSeeded(const BranchProfileEntry &entry,
                                  const std::vector<unsigned> &lengths,
                                  const TrainedHint *warm,
                                  TrainedHint &out,
                                  BranchTrainOutcome *outcome) const
{
    whisper_assert(entry.hard, "training needs detailed tables");
    whisper_assert(entry.byLength.size() == lengths.size());
    const double cpu0 = threadCpuSeconds();

    const bool screened = screen_.config().enabled;
    BranchScreen scr = screen_.screenBranch(entry, lengths);
    std::vector<uint16_t> candidates =
        screened ? maskedCandidates(scr.inputMask) : selected_;

    BranchTrainOutcome local;
    auto finish = [&](bool produced) {
        local.seconds = threadCpuSeconds() - cpu0;
        if (outcome)
            *outcome = local;
        return produced;
    };

    // Start from the static-bias options: they are always available
    // through the brhint Bias field and cost no formula search.
    auto freshBest = [&]() {
        return BranchBest{entry.biasMispredicts(),
                          entry.takenCount >= entry.notTakenCount()
                              ? HintBias::AlwaysTaken
                              : HintBias::NeverTaken};
    };

    auto searchLengths = [&](BranchBest &best,
                             const std::vector<uint16_t> &encs) {
        for (unsigned l : scr.lengthIdx) {
            if (entry.byLength[l].totalSamples() == 0)
                continue;
            FormulaSearchResult res =
                findBooleanFormula(entry.byLength[l], encs, cache_);
            local.scored += res.explored;
            if (res.valid && res.mispredicts < best.mispredicts) {
                best.mispredicts = res.mispredicts;
                best.bias = HintBias::Formula;
                best.lenIdx = static_cast<int>(l);
                best.formula = res.formula.encoding();
            }
        }
    };

    // Emit only when the winner beats the profiled predictor by the
    // configured relative margin (paper SIV: "only if Boolean
    // formula-based prediction achieves better accuracy than the
    // profiled processor's predictor") AND the absolute per-
    // execution gain is worth a hint.
    auto passesGates = [&](const BranchBest &best) {
        double baseline =
            static_cast<double>(entry.baselineMispredicts);
        if (static_cast<double>(best.mispredicts) >=
            baseline * (1.0 - cfg_.minImprovement))
            return false;
        double gainPerExec =
            (baseline - static_cast<double>(best.mispredicts)) /
            static_cast<double>(
                std::max<uint64_t>(entry.executions, 1));
        return gainPerExec >= cfg_.minGainPerExecution;
    };

    auto emit = [&](const BranchBest &best) {
        out.pc = entry.pc;
        out.hint.historyIdx = best.lenIdx < 0
            ? 0 : static_cast<uint8_t>(best.lenIdx);
        out.hint.formula = best.formula;
        out.hint.bias = best.bias;
        out.hint.pcPointer = BrHint::pcPointerFor(entry.pc);
        out.historyLength =
            best.lenIdx < 0 ? 0 : lengths[best.lenIdx];
        out.expectedMispredicts = best.mispredicts;
        out.profiledMispredicts = entry.baselineMispredicts;
        out.executions = entry.executions;
    };

    // -- warm path: re-score the previous hint (for formulas, its
    // one-bit-flip neighborhood too) on the fresh tables. The gates
    // run against the *fresh* profile, so a seed that decorrelated
    // since the last epoch fails here and falls through to cold.
    if (warm) {
        // Clearing the emission gates alone is not enough for a
        // warm hit: a drifted formula can still beat the bias by
        // the minimum margin while a cold search would find a far
        // better one. Require the seed's relative quality to
        // survive on the fresh profile too.
        auto retainsQuality = [&](const BranchBest &best) {
            double seedRatio =
                static_cast<double>(warm->expectedMispredicts) /
                static_cast<double>(std::max<uint64_t>(
                    warm->profiledMispredicts, 1));
            double freshRatio =
                static_cast<double>(best.mispredicts) /
                static_cast<double>(std::max<uint64_t>(
                    entry.baselineMispredicts, 1));
            return freshRatio <=
                   seedRatio * cfg_.warmRetentionSlack +
                       cfg_.warmRetentionNoise;
        };
        BranchBest best = freshBest();
        if (warm->hint.bias == HintBias::Formula)
            searchLengths(best,
                          warmNeighborhood(warm->hint.formula,
                                           cache_.numInputs()));
        if (passesGates(best) && retainsQuality(best)) {
            emit(best);
            local.warmHit = true;
            return finish(true);
        }
    }

    // -- cold (possibly pruned) search.
    BranchBest best = freshBest();
    searchLengths(best, candidates);
    if (!passesGates(best))
        return finish(false);
    emit(best);
    return finish(true);
}

std::vector<WhisperTrainer::TrainingTask>
WhisperTrainer::workList(const BranchProfile &profile,
                         const std::vector<TrainedHint> *warmSeeds) const
{
    std::unordered_map<uint64_t, const TrainedHint *> seeds;
    if (warmSeeds)
        for (const TrainedHint &h : *warmSeeds)
            seeds.emplace(h.pc, &h);

    std::vector<TrainingTask> work;
    for (const BranchProfileEntry *entry : profile.hardBranches()) {
        if (entry->baselineMispredicts < cfg_.minMispredictions)
            continue;
        auto it = seeds.find(entry->pc);
        work.push_back({entry, it == seeds.end() ? nullptr : it->second});
    }
    return work;
}

WhisperTrainer::TrainingTaskResult
WhisperTrainer::trainTask(const TrainingTask &task,
                          const std::vector<unsigned> &lengths) const
{
    TrainingTaskResult result;
    TrainedHint hint;
    if (trainBranchSeeded(*task.entry, lengths, task.warm, hint,
                          &result.outcome))
        result.hint = hint;
    return result;
}

std::vector<TrainedHint>
WhisperTrainer::assemble(const std::vector<TrainingTaskResult> &results,
                         std::chrono::steady_clock::time_point start,
                         TrainingStats *stats)
{
    TrainingStats local;
    local.branchesConsidered = results.size();
    std::vector<TrainedHint> hints;
    for (const TrainingTaskResult &r : results) {
        local.formulasScored += r.outcome.scored;
        if (r.outcome.warmHit)
            ++local.warmHits;
        else
            ++local.coldSearches;
        local.branchSecondsSum += r.outcome.seconds;
        local.branchSecondsMax =
            std::max(local.branchSecondsMax, r.outcome.seconds);
        if (r.hint) {
            local.coveredMispredicts += r.hint->profiledMispredicts;
            local.expectedRemaining += r.hint->expectedMispredicts;
            hints.push_back(*r.hint);
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

unsigned
WhisperTrainer::defaultWorkers()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

std::vector<TrainedHint>
WhisperTrainer::train(const BranchProfile &profile,
                      const std::vector<TrainedHint> *warmSeeds,
                      TrainingStats *stats, unsigned workers) const
{
    auto start = std::chrono::steady_clock::now();
    std::vector<TrainingTask> work = workList(profile, warmSeeds);
    // A degraded branch keeps an empty slot: no hint, default outcome.
    std::vector<TrainingTaskResult> slots(work.size());
    std::atomic<size_t> nextTask{0};
    std::atomic<uint64_t> degraded{0};

    auto runWorker = [&] {
        for (;;) {
            size_t i = nextTask.fetch_add(1, std::memory_order_relaxed);
            if (i >= work.size())
                return;
            try {
                if (FaultInjector::instance().failTraining(i))
                    throw std::runtime_error("injected training failure");
                slots[i] = trainTask(work[i], profile.lengths());
            } catch (const std::exception &e) {
                degraded.fetch_add(1, std::memory_order_relaxed);
                whisper_warn("training: degrading branch 0x", std::hex,
                             work[i].entry->pc, std::dec,
                             " to baseline: ", e.what());
            }
        }
    };

    size_t threads = std::min<size_t>(workers, work.size());
    if (threads <= 1) {
        runWorker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (size_t w = 0; w < threads; ++w)
            pool.emplace_back(runWorker);
        for (std::thread &t : pool)
            t.join();
    }

    std::vector<TrainedHint> hints = assemble(slots, start, stats);
    if (stats)
        stats->branchesDegraded = degraded.load();
    return hints;
}

} // namespace whisper
