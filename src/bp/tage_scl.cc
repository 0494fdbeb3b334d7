#include "bp/tage_scl.hh"

#include <algorithm>
#include <bit>
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
    whisper_assert(cfg.numTables % 4 == 0,
                   "tagged views are read in groups of four tables");
    whisper_assert(cfg.logTagged < 28, "tagged slots must fit 32 bits");
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

    idxMask_ = static_cast<uint32_t>(maskBits(cfg.logTagged));
    for (unsigned i = 0; i < cfg.numTables; ++i)
        tagMask_[i] = static_cast<uint16_t>(maskBits(tagBits_[i]));

    size_t taggedTotal = static_cast<size_t>(cfg.numTables)
                         << cfg.logTagged;
    tagKey_.assign(taggedTotal, kFreeEntry);
    tagCtr_.assign(taggedTotal, 0);
    tagUseful_.assign(taggedTotal, 0);

    // Folded history views: one for the index, two for the tag,
    // registered four tables at a time (layout in tage_scl.hh).
    tagFirstView_ = static_cast<unsigned>(history_.numViews());
    for (unsigned b = 0; b < cfg.numTables; b += 4) {
        for (unsigned i = b; i < b + 4; ++i)
            history_.addFoldedView(histLens_[i], cfg.logTagged);
        for (unsigned i = b; i < b + 4; ++i)
            history_.addFoldedView(histLens_[i], tagBits_[i]);
        for (unsigned i = b; i < b + 4; ++i)
            history_.addFoldedView(histLens_[i], tagBits_[i] - 1);
    }

    // Statistical corrector: bias + GEHL components on short
    // histories.
    scHistLens_ = {4, 10, 16, 27, 44};
    whisper_assert(scHistLens_.size() <= kMaxScTables);
    scTables_.assign(scHistLens_.size(), {});
    scFirstView_ = static_cast<unsigned>(history_.numViews());
    for (size_t t = 0; t < scHistLens_.size(); ++t) {
        scTables_[t].assign(1ULL << cfg.logSc, 0);
        history_.addFoldedView(scHistLens_[t], cfg.logSc);
    }
    whisper_assert(history_.numViews() <= kMaxViews);
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

void
TageScl::computeTagePrediction(uint64_t pc, const uint32_t *fold)
{
    // Slot and tag of every table, and a bitmask of the tables
    // whose key matches (the kFreeEntry sentinel makes the validity
    // check implicit in the tag compare). Table t's index mixes in
    // pc >> (logTagged - t % 4): four shifts serve all tables.
    uint32_t pcBits = static_cast<uint32_t>(pcIndexBits(pc));
    std::array<uint32_t, 4> pcIdx;
    for (unsigned k = 0; k < 4; ++k)
        pcIdx[k] = pcBits ^ static_cast<uint32_t>(pc >> (cfg_.logTagged - k));
    uint32_t hits = 0;
    uint32_t slotBase = 0; // table t's first slot, t << logTagged
    for (unsigned b = 0; b < cfg_.numTables; b += 4, fold += 12) {
        const uint16_t tagMask = tagMask_[b]; // one tag width per block
        for (unsigned k = 0; k < 4; ++k, slotBase += idxMask_ + 1) {
            uint32_t slot = slotBase + ((pcIdx[k] ^ fold[k]) & idxMask_);
            uint16_t tag = static_cast<uint16_t>(
                (pcBits ^ fold[4 + k] ^ (fold[8 + k] << 1)) & tagMask);
            ctx_.slots[b + k] = slot;
            ctx_.tags[b + k] = tag;
            hits |= static_cast<uint32_t>(tagKey_[slot] == tag) << (b + k);
        }
    }

    // The provider is the longest-history match, the alternate the
    // next longest: the two highest set bits (-1 when absent).
    ctx_.providerTable = static_cast<int>(std::bit_width(hits)) - 1;
    ctx_.altTable =
        static_cast<int>(std::bit_width(hits ^ std::bit_floor(hits))) - 1;

    bool basePred = bimodal_[pcIndexBits(pc) & maskBits(cfg_.logBimodal)] >= 2;
    ctx_.altPred = basePred;
    if (ctx_.altTable >= 0) {
        ctx_.altPred =
            tagCtr_[ctx_.slots[ctx_.altTable]] >= 0;
    }

    if (ctx_.providerTable >= 0) {
        uint32_t slot = ctx_.slots[ctx_.providerTable];
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

void
TageScl::computeScPrediction(uint64_t pc, const uint32_t *fold)
{
    uint64_t pcBits = pcIndexBits(pc);
    uint64_t tageBit = static_cast<uint64_t>(ctx_.tagePred)
                       << (cfg_.logSc - 1);
    int sum = 2 * scBias_[pcBits & maskBits(cfg_.logSc)] + 1;
    sum += ctx_.tagePred ? 8 : -8;
    for (size_t t = 0; t < scTables_.size(); ++t) {
        ctx_.scIndices[t] = static_cast<uint32_t>(
            (pcBits ^ fold[t] ^ tageBit) & maskBits(cfg_.logSc));
        sum += 2 * scTables_[t][ctx_.scIndices[t]] + 1;
    }
    ctx_.scSum = sum;
    ctx_.scPred = sum >= 0;
    // The corrector only overrides when it disagrees confidently.
    ctx_.scUsed = (ctx_.scPred != ctx_.tagePred) &&
                  std::abs(sum) >= scThreshold_;
}

void
TageScl::probeLoop(uint64_t pc)
{
    ctx_.loopSet = static_cast<uint32_t>(
        (pcIndexBits(pc) & maskBits(cfg_.logLoop)) * loopWays_);
    ctx_.loopTag = static_cast<uint16_t>((pc >> (1 + cfg_.logLoop)) &
                                         maskBits(14));
    ctx_.loopHit = -1;
    ctx_.loopVictim = -1;
    for (uint32_t w = 0; w < loopWays_; ++w) {
        int slot = static_cast<int>(ctx_.loopSet + w);
        const LoopEntry &e = loop_[slot];
        if (e.valid && e.tag == ctx_.loopTag) {
            ctx_.loopHit = slot;
            return;
        }
        if (!e.valid || e.age == 0)
            ctx_.loopVictim = slot;
    }
}

void
TageScl::computeLoopPrediction()
{
    ctx_.loopUsed = false;
    if (ctx_.loopHit < 0)
        return;
    const LoopEntry &e = loop_[ctx_.loopHit];
    if (e.confidence < 7 || e.pastIter == 0)
        return;
    // Predict the loop exit on the final iteration.
    ctx_.loopPred = (e.currentIter + 1 == e.pastIter) ? !e.dir : e.dir;
    ctx_.loopUsed = true;
}

TageScl::LoopEntry *
TageScl::claimLoopEntry()
{
    // predict()'s probe still holds: only this update writes loop_.
    if (ctx_.loopHit >= 0)
        return &loop_[ctx_.loopHit];
    if (ctx_.loopVictim < 0) {
        for (uint32_t w = 0; w < loopWays_; ++w) {
            LoopEntry &e = loop_[ctx_.loopSet + w];
            if (e.age > 0)
                --e.age;
        }
        return nullptr;
    }
    LoopEntry *victim = &loop_[ctx_.loopVictim];
    *victim = LoopEntry{};
    victim->tag = ctx_.loopTag;
    victim->valid = true;
    victim->age = 7;
    return victim;
}

void
TageScl::updateLoop(bool taken)
{
    LoopEntry *e = claimLoopEntry();
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
    std::array<uint32_t, kMaxViews> fold;
    history_.foldedValues(fold.data());

    ctx_.pc = pc;
    computeTagePrediction(pc, fold.data() + tagFirstView_);

    bool pred = ctx_.tagePred;
    ctx_.provider = ctx_.providerTable >= 0 ? Provider::Tagged
                                            : Provider::Bimodal;

    if (cfg_.useSc) {
        computeScPrediction(pc, fold.data() + scFirstView_);
        if (ctx_.scUsed) {
            pred = ctx_.scPred;
            ctx_.provider = Provider::Sc;
        }
    }

    if (cfg_.useLoop) {
        probeLoop(pc);
        computeLoopPrediction();
        if (ctx_.loopUsed) {
            pred = ctx_.loopPred;
            ctx_.provider = Provider::Loop;
        }
    }

    ctx_.finalPred = pred;
    return pred;
}

void
TageScl::allocateEntries(bool taken)
{
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
        uint32_t slot = ctx_.slots[t];
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
        updateLoop(taken);
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
        uint32_t slot = ctx_.slots[ctx_.providerTable];
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
        allocateEntries(taken);

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
