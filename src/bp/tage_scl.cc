#include "bp/tage_scl.hh"

#include <algorithm>
#include <cmath>

#include "util/bits.hh"
#include "util/logging.hh"

namespace whisper
{

TageSclConfig
TageSclConfig::forBudgetKB(unsigned kb)
{
    whisper_assert(kb >= 1, "budget must be >= 1KB");
    TageSclConfig cfg;
    // The reference point is the 64KB championship configuration.
    int delta = static_cast<int>(floorLog2(kb)) -
                static_cast<int>(floorLog2(64));
    auto scaled = [&](unsigned base) {
        int v = static_cast<int>(base) + delta;
        return static_cast<unsigned>(std::max(v, 4));
    };
    cfg.logBimodal = scaled(16);
    cfg.logTagged = scaled(11);
    cfg.logSc = scaled(11);
    cfg.logLoop = std::min(scaled(7), 11u);
    // Very large budgets can also track longer correlations.
    if (delta >= 5)
        cfg.maxHist = 3000;
    return cfg;
}

TageScl::TageScl(const TageSclConfig &cfg)
    : cfg_(cfg),
      bimodal_(1ULL << cfg.logBimodal, 0),
      history_(4096),
      scBias_(1ULL << cfg.logSc, 0),
      loop_((1ULL << cfg.logLoop) * 4)
{
    whisper_assert(cfg.numTables >= 2 &&
                   cfg.numTables <= kMaxTables);
    whisper_assert(cfg.maxHist > cfg.minHist);
    whisper_assert(cfg.maxHist < history_.capacity());

    // Geometric history-length series, a la OGEHL/TAGE.
    double ratio = std::pow(
        static_cast<double>(cfg.maxHist) / cfg.minHist,
        1.0 / (cfg.numTables - 1));
    histLens_.resize(cfg.numTables);
    double len = cfg.minHist;
    for (unsigned i = 0; i < cfg.numTables; ++i) {
        histLens_[i] = std::max<unsigned>(
            static_cast<unsigned>(len + 0.5),
            i == 0 ? cfg.minHist : histLens_[i - 1] + 1);
        len *= ratio;
    }

    // Short-history tables carry shorter tags (championship style).
    tagBits_.resize(cfg.numTables);
    for (unsigned i = 0; i < cfg.numTables; ++i)
        tagBits_[i] = 8 + std::min(3u, i / 4);

    size_t taggedTotal = static_cast<size_t>(cfg.numTables)
                         << cfg.logTagged;
    tagKey_.assign(taggedTotal, kFreeEntry);
    tagCtr_.assign(taggedTotal, 0);
    tagUseful_.assign(taggedTotal, 0);

    // Folded history views: one for the index, two for the tag.
    for (unsigned i = 0; i < cfg.numTables; ++i) {
        idxView_.push_back(
            history_.addFoldedView(histLens_[i], cfg.logTagged));
        tag1View_.push_back(
            history_.addFoldedView(histLens_[i], tagBits_[i]));
        tag2View_.push_back(
            history_.addFoldedView(histLens_[i], tagBits_[i] - 1));
    }

    // Statistical corrector: bias + GEHL components on short
    // histories.
    scHistLens_ = {4, 10, 16, 27, 44};
    whisper_assert(scHistLens_.size() <= kMaxScTables);
    scTables_.assign(scHistLens_.size(), {});
    for (size_t t = 0; t < scHistLens_.size(); ++t) {
        scTables_[t].assign(1ULL << cfg.logSc, 0);
        scView_.push_back(
            history_.addFoldedView(scHistLens_[t], cfg.logSc));
    }
}

std::string
TageScl::name() const
{
    uint64_t kb = storageBits() / 8 / 1024;
    return "tage-sc-l-" + std::to_string(kb) + "kb";
}

uint64_t
TageScl::storageBits() const
{
    uint64_t bits = bimodal_.size() * 2;
    for (unsigned i = 0; i < cfg_.numTables; ++i) {
        bits += (1ULL << cfg_.logTagged) *
                (tagBits_[i] + cfg_.ctrBits + cfg_.usefulBits);
    }
    if (cfg_.useSc) {
        bits += scBias_.size() * cfg_.scCtrBits;
        for (const auto &t : scTables_)
            bits += t.size() * cfg_.scCtrBits;
    }
    if (cfg_.useLoop)
        bits += loop_.size() * (16 + 10 + 10 + 3 + 4 + 1 + 1);
    return bits;
}

uint32_t
TageScl::nextRandom()
{
    // 16-bit LFSR; deterministic allocation tie-breaking.
    lfsr_ = (lfsr_ >> 1) ^ (-(lfsr_ & 1u) & 0xB400u);
    return lfsr_;
}

uint32_t
TageScl::taggedIndex(unsigned t, uint64_t pc) const
{
    uint64_t idx = pcIndexBits(pc) ^ (pc >> (cfg_.logTagged - (t % 4))) ^
                   history_.foldedValue(idxView_[t]);
    return idx & maskBits(cfg_.logTagged);
}

uint16_t
TageScl::taggedTag(unsigned t, uint64_t pc) const
{
    uint64_t tag = pcIndexBits(pc) ^ history_.foldedValue(tag1View_[t]) ^
                   (history_.foldedValue(tag2View_[t]) << 1);
    return static_cast<uint16_t>(tag & maskBits(tagBits_[t]));
}

void
TageScl::computeTagePrediction(uint64_t pc)
{
    for (unsigned t = 0; t < cfg_.numTables; ++t) {
        ctx_.indices[t] = taggedIndex(t, pc);
        ctx_.tags[t] = taggedTag(t, pc);
    }

    // Longest-history match scan: one compare per table against the
    // contiguous key array (the kFreeEntry sentinel makes the
    // validity check implicit in the tag compare).
    ctx_.providerTable = -1;
    ctx_.altTable = -1;
    for (int t = cfg_.numTables - 1; t >= 0; --t) {
        if (tagKey_[taggedSlot(t, ctx_.indices[t])] == ctx_.tags[t]) {
            if (ctx_.providerTable < 0) {
                ctx_.providerTable = t;
            } else {
                ctx_.altTable = t;
                break;
            }
        }
    }

    bool basePred = bimodal_[pcIndexBits(pc) & maskBits(cfg_.logBimodal)] >= 2;
    ctx_.altPred = basePred;
    if (ctx_.altTable >= 0) {
        ctx_.altPred =
            tagCtr_[taggedSlot(ctx_.altTable,
                               ctx_.indices[ctx_.altTable])] >= 0;
    }

    if (ctx_.providerTable >= 0) {
        size_t slot = taggedSlot(ctx_.providerTable,
                                 ctx_.indices[ctx_.providerTable]);
        int8_t ctr = tagCtr_[slot];
        ctx_.providerPred = ctr >= 0;
        // Newly allocated: weak counter and no proven usefulness.
        ctx_.newlyAllocated =
            tagUseful_[slot] == 0 && (ctr == 0 || ctr == -1);
        if (ctx_.newlyAllocated && useAltOnNa_ >= 0)
            ctx_.tagePred = ctx_.altPred;
        else
            ctx_.tagePred = ctx_.providerPred;
    } else {
        ctx_.providerPred = basePred;
        ctx_.newlyAllocated = false;
        ctx_.tagePred = basePred;
    }
}

int
TageScl::scIndex(unsigned t, uint64_t pc, bool tagePred) const
{
    uint64_t idx = pcIndexBits(pc) ^ history_.foldedValue(scView_[t]) ^
                   (static_cast<uint64_t>(tagePred) << (cfg_.logSc - 1));
    return static_cast<int>(idx & maskBits(cfg_.logSc));
}

void
TageScl::computeScPrediction(uint64_t pc)
{
    int sum = 2 * scBias_[pcIndexBits(pc) & maskBits(cfg_.logSc)] + 1;
    sum += ctx_.tagePred ? 8 : -8;
    for (size_t t = 0; t < scTables_.size(); ++t) {
        ctx_.scIndices[t] = scIndex(t, pc, ctx_.tagePred);
        sum += 2 * scTables_[t][ctx_.scIndices[t]] + 1;
    }
    ctx_.scSum = sum;
    ctx_.scPred = sum >= 0;
    // The corrector only overrides when it disagrees confidently.
    ctx_.scUsed = (ctx_.scPred != ctx_.tagePred) &&
                  std::abs(sum) >= scThreshold_;
}

TageScl::LoopEntry *
TageScl::findLoopEntry(uint64_t pc, bool allocate)
{
    uint32_t set = pcIndexBits(pc) & maskBits(cfg_.logLoop);
    uint16_t tag = static_cast<uint16_t>((pc >> (1 + cfg_.logLoop)) &
                                         maskBits(14));
    LoopEntry *victim = nullptr;
    for (uint32_t w = 0; w < loopWays_; ++w) {
        LoopEntry &e = loop_[set * loopWays_ + w];
        if (e.valid && e.tag == tag)
            return &e;
        if (!e.valid || e.age == 0)
            victim = &e;
    }
    if (!allocate)
        return nullptr;
    if (!victim) {
        for (uint32_t w = 0; w < loopWays_; ++w) {
            LoopEntry &e = loop_[set * loopWays_ + w];
            if (e.age > 0)
                --e.age;
        }
        return nullptr;
    }
    *victim = LoopEntry{};
    victim->tag = tag;
    victim->valid = true;
    victim->age = 7;
    return victim;
}

void
TageScl::computeLoopPrediction(uint64_t pc)
{
    ctx_.loopValid = false;
    ctx_.loopUsed = false;
    LoopEntry *e = findLoopEntry(pc, false);
    if (!e || e->confidence < 7 || e->pastIter == 0)
        return;
    ctx_.loopValid = true;
    // Predict the loop exit on the final iteration.
    ctx_.loopPred = (e->currentIter + 1 == e->pastIter) ? !e->dir
                                                        : e->dir;
    ctx_.loopUsed = true;
}

void
TageScl::updateLoop(uint64_t pc, bool taken)
{
    LoopEntry *e = findLoopEntry(pc, true);
    if (!e)
        return;

    // A confident loop prediction that turned out wrong must lose
    // its confidence immediately, or the entry keeps mispredicting.
    if (ctx_.loopUsed && ctx_.loopPred != taken) {
        e->confidence = 0;
        e->pastIter = 0;
        e->currentIter = 0;
        e->dir = taken;
        return;
    }

    if (e->pastIter == 0 && e->currentIter == 0) {
        // Fresh (or retraining) entry: start counting a run.
        e->dir = taken;
        e->currentIter = 1;
        return;
    }

    if (taken == e->dir) {
        if (e->currentIter >= 1023) {
            // Too long to be a countable loop; drop the entry.
            e->valid = false;
            return;
        }
        ++e->currentIter;
        if (e->pastIter != 0 && e->currentIter > e->pastIter) {
            // The expected exit never came: trip count changed.
            e->pastIter = 0;
            e->confidence = 0;
            e->currentIter = 1;
        }
        return;
    }

    // Opposite direction observed.
    if (e->currentIter == 0) {
        // Two exits in a row: 'dir' was learned from the exit
        // direction; flip the notion of the body direction.
        e->dir = taken;
        e->currentIter = 1;
        e->pastIter = 0;
        e->confidence = 0;
        return;
    }

    // One full run of length currentIter finished.
    if (e->pastIter == 0) {
        e->pastIter = e->currentIter;
        e->confidence = 1;
    } else if (e->pastIter == e->currentIter) {
        if (e->confidence < 7)
            ++e->confidence;
        if (e->age < 7)
            ++e->age;
    } else {
        // Iteration count changed; retrain.
        e->pastIter = e->currentIter;
        e->confidence = 0;
    }
    e->currentIter = 0;
}

bool
TageScl::predict(uint64_t pc, bool)
{
    ctx_ = PredictContext{};
    ctx_.pc = pc;
    computeTagePrediction(pc);

    bool pred = ctx_.tagePred;
    ctx_.provider = ctx_.providerTable >= 0 ? Provider::Tagged
                                            : Provider::Bimodal;

    if (cfg_.useSc) {
        computeScPrediction(pc);
        if (ctx_.scUsed) {
            pred = ctx_.scPred;
            ctx_.provider = Provider::Sc;
        }
    }

    if (cfg_.useLoop) {
        computeLoopPrediction(pc);
        if (ctx_.loopUsed) {
            pred = ctx_.loopPred;
            ctx_.provider = Provider::Loop;
        }
    }

    ctx_.finalPred = pred;
    return pred;
}

void
TageScl::allocateEntries(uint64_t pc, bool taken)
{
    (void)pc;
    int start = ctx_.providerTable + 1;
    if (start >= static_cast<int>(cfg_.numTables))
        return;

    // Skip a random number of tables so allocations spread out.
    if (nextRandom() % 4 == 0 &&
        start + 1 < static_cast<int>(cfg_.numTables)) {
        ++start;
    }

    unsigned allocated = 0, blocked = 0;
    for (unsigned t = start; t < cfg_.numTables && allocated < 2; ++t) {
        size_t slot = taggedSlot(t, ctx_.indices[t]);
        if (tagUseful_[slot] == 0) {
            tagKey_[slot] = ctx_.tags[t];
            tagCtr_[slot] = taken ? 0 : -1;
            ++allocated;
            ++t; // leave a gap between allocations
        } else {
            ++blocked;
        }
    }

    // CBP-5 TICK throttle: persistent allocation pressure (more
    // blocked slots than successes) eventually decays all useful
    // bits at once, instead of letting hopeless branches churn
    // protected entries one by one.
    tick_ += static_cast<int>(blocked) - static_cast<int>(allocated);
    if (tick_ < 0)
        tick_ = 0;
    if (tick_ >= cfg_.tickMax) {
        tick_ = 0;
        decayUseful();
    }
}

void
TageScl::updateSc(bool taken)
{
    bool scWasCorrect = ctx_.scPred == taken;
    bool tageWasCorrect = ctx_.tagePred == taken;

    // Dynamic threshold adaptation on disagreements.
    if (ctx_.scPred != ctx_.tagePred) {
        if (scWasCorrect && !tageWasCorrect)
            --scThresholdCtr_;
        else if (!scWasCorrect && tageWasCorrect)
            ++scThresholdCtr_;
        if (scThresholdCtr_ >= 8) {
            scThresholdCtr_ = 0;
            if (scThreshold_ < 127)
                ++scThreshold_;
        } else if (scThresholdCtr_ <= -8) {
            scThresholdCtr_ = 0;
            if (scThreshold_ > 4)
                --scThreshold_;
        }
    }

    // Train when uncertain or wrong.
    if (std::abs(ctx_.scSum) < scThreshold_ + 4 ||
        ctx_.finalPred != taken) {
        int lim = (1 << (cfg_.scCtrBits - 1)) - 1;
        auto adjust = [&](int8_t &w) {
            int v = w + (taken ? 1 : -1);
            v = std::clamp(v, -lim - 1, lim);
            w = static_cast<int8_t>(v);
        };
        adjust(scBias_[pcIndexBits(ctx_.pc) & maskBits(cfg_.logSc)]);
        for (size_t t = 0; t < scTables_.size(); ++t)
            adjust(scTables_[t][ctx_.scIndices[t]]);
    }
}

void
TageScl::update(uint64_t pc, bool taken, bool predicted, bool allocate)
{
    whisper_assert(pc == ctx_.pc, "update() without matching predict()");
    (void)predicted;
    ++updates_;

    if (cfg_.useLoop)
        updateLoop(pc, taken);
    if (cfg_.useSc)
        updateSc(taken);

    // use-alt-on-newly-allocated policy counter.
    if (ctx_.providerTable >= 0 && ctx_.newlyAllocated &&
        ctx_.providerPred != ctx_.altPred) {
        if (ctx_.altPred == taken) {
            if (useAltOnNa_ < 7)
                ++useAltOnNa_;
        } else {
            if (useAltOnNa_ > -8)
                --useAltOnNa_;
        }
    }

    // Update the provider (or bimodal).
    if (ctx_.providerTable >= 0) {
        size_t slot = taggedSlot(ctx_.providerTable,
                                 ctx_.indices[ctx_.providerTable]);
        int lim = (1 << (cfg_.ctrBits - 1)) - 1;
        int v = tagCtr_[slot] + (taken ? 1 : -1);
        tagCtr_[slot] = static_cast<int8_t>(std::clamp(v, -lim - 1, lim));

        // Usefulness: provider correct where the alternative failed.
        if (ctx_.providerPred != ctx_.altPred) {
            if (ctx_.providerPred == taken) {
                if (tagUseful_[slot] < maskBits(cfg_.usefulBits))
                    ++tagUseful_[slot];
            } else if (tagUseful_[slot] > 0) {
                --tagUseful_[slot];
            }
        }
        // Weak, useless provider entries also train the base table so
        // the bimodal stays warm for when the entry is evicted.
        if (tagUseful_[slot] == 0) {
            auto &b = bimodal_[pcIndexBits(pc) & maskBits(cfg_.logBimodal)];
            int bv = b + (taken ? 1 : -1);
            b = static_cast<int8_t>(std::clamp(bv, 0, 3));
        }
    } else {
        auto &b = bimodal_[pcIndexBits(pc) & maskBits(cfg_.logBimodal)];
        int bv = b + (taken ? 1 : -1);
        b = static_cast<int8_t>(std::clamp(bv, 0, 3));
    }

    // Allocate on a wrong TAGE prediction.
    if (allocate && ctx_.tagePred != taken)
        allocateEntries(pc, taken);

    history_.push(taken);
}

void
TageScl::decayUseful()
{
    for (auto &u : tagUseful_)
        u >>= 1;
}

unsigned
TageScl::lastProviderHistLen() const
{
    if (ctx_.providerTable < 0)
        return 0;
    return histLens_[ctx_.providerTable];
}

} // namespace whisper
