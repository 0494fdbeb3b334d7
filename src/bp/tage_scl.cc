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
    whisper_assert(kb >= 8 && kb <= 8192 && isPowerOfTwo(kb),
                   "budget must be a power of two from 8 to 8192 KB");
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
      scTables_(static_cast<size_t>(kNumScTables) << cfg.logSc, 0),
      scBias_(1ULL << cfg.logSc, 0),
      loop_((1ULL << cfg.logLoop) * kLoopWays)
{
    whisper_assert(cfg.logTagged < 28, "tagged slots must fit 32 bits");
    whisper_assert(cfg.logSc < 28, "SC slots must fit 32 bits");
    whisper_assert(cfg.maxHist > cfg.minHist);
    whisper_assert(cfg.maxHist < history_.capacity());

    // Geometric history-length series, a la OGEHL/TAGE.
    double ratio = std::pow(
        static_cast<double>(cfg.maxHist) / cfg.minHist,
        1.0 / (kNumTables - 1));
    double len = cfg.minHist;
    for (unsigned i = 0; i < kNumTables; ++i) {
        histLens_[i] = std::max<unsigned>(
            static_cast<unsigned>(len + 0.5),
            i == 0 ? cfg.minHist : histLens_[i - 1] + 1);
        len *= ratio;
    }

    // Short-history tables carry shorter tags (championship style).
    for (unsigned i = 0; i < kNumTables; ++i)
        tagBits_[i] = 8 + std::min(3u, i / 4);

    idxMask_ = static_cast<uint32_t>(maskBits(cfg.logTagged));
    for (unsigned i = 0; i < kNumTables; ++i)
        tagMask_[i] = static_cast<uint16_t>(maskBits(tagBits_[i]));

    size_t taggedTotal = static_cast<size_t>(kNumTables) << cfg.logTagged;
    tagKey_.assign(taggedTotal, kFreeEntry);
    tagCtr_.assign(taggedTotal, 0);
    tagUseful_.assign(taggedTotal, 0);

    // Folded history views: one for the index, two for the tag.
    tagFirstView_ = static_cast<unsigned>(history_.numViews());
    for (unsigned i = 0; i < kNumTables; ++i) {
        history_.addFoldedView(histLens_[i], cfg.logTagged);
        history_.addFoldedView(histLens_[i], tagBits_[i]);
        history_.addFoldedView(histLens_[i], tagBits_[i] - 1);
    }

    // Statistical corrector: bias + GEHL components on short
    // histories.
    scFirstView_ = static_cast<unsigned>(history_.numViews());
    for (unsigned l : kScHistLens)
        history_.addFoldedView(l, cfg.logSc);
    whisper_assert(history_.numViews() == kNumViews);
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
    for (unsigned i = 0; i < kNumTables; ++i) {
        bits += (1ULL << cfg_.logTagged) *
                (tagBits_[i] + cfg_.ctrBits + cfg_.usefulBits);
    }
    if (cfg_.useSc)
        bits += (scBias_.size() + scTables_.size()) * cfg_.scCtrBits;
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
TageScl::hashBranches(const uint64_t *pcs, size_t n, const uint32_t *fold,
                      size_t stride, uint32_t *slots, uint16_t *tags,
                      uint32_t *scIndices) const
{
    whisper_assert(n <= kBlock);
    // Table t's index mixes in pc >> (logTagged - t % 4): each
    // branch's pcIndexBits and its four index terms, once.
    std::array<uint32_t, kBlock> pcBits;
    std::array<std::array<uint32_t, kBlock>, 4> pcIdx;
    for (size_t j = 0; j < n; ++j) {
        pcBits[j] = static_cast<uint32_t>(pcIndexBits(pcs[j]));
        for (unsigned k = 0; k < 4; ++k)
            pcIdx[k][j] = pcBits[j] ^ static_cast<uint32_t>(
                                          pcs[j] >> (cfg_.logTagged - k));
    }
    for (unsigned t = 0; t < kNumTables; ++t) {
        const uint32_t *idxFold = fold + (tagFirstView_ + 3 * t) * stride;
        const uint32_t *tagFold = idxFold + stride;
        const uint32_t *tag2Fold = idxFold + 2 * stride;
        const uint32_t *idx = pcIdx[t % 4].data();
        uint32_t slotBase = t << cfg_.logTagged;
        uint32_t tagMask = tagMask_[t];
        for (size_t j = 0; j < n; ++j) {
            slots[t * stride + j] =
                slotBase + ((idx[j] ^ idxFold[j]) & idxMask_);
            tags[t * stride + j] = static_cast<uint16_t>(
                (pcBits[j] ^ tagFold[j] ^ (tag2Fold[j] << 1)) & tagMask);
        }
    }
    const uint32_t *sc = fold + scFirstView_ * stride;
    uint32_t scMask = static_cast<uint32_t>(maskBits(cfg_.logSc));
    for (unsigned t = 0; t < kNumScTables; ++t) {
        uint32_t scBase = t << cfg_.logSc;
        for (size_t j = 0; j < n; ++j)
            scIndices[t * stride + j] =
                scBase + ((pcBits[j] ^ sc[t * stride + j]) & scMask);
    }
}

void
TageScl::computeTagePrediction(uint64_t pc)
{
    // A bitmask of the tables whose key matches (the kFreeEntry
    // sentinel makes the validity check implicit in the tag compare).
    uint32_t hits = 0;
    for (unsigned t = 0; t < kNumTables; ++t)
        hits |= static_cast<uint32_t>(tagKey_[slot(t)] == tag(t)) << t;

    // The provider is the longest-history match, the alternate the
    // next longest: the two highest set bits (-1 when absent).
    ctx_.providerTable = static_cast<int>(std::bit_width(hits)) - 1;
    ctx_.altTable =
        static_cast<int>(std::bit_width(hits ^ std::bit_floor(hits))) - 1;

    bool basePred = bimodal_[pcIndexBits(pc) & maskBits(cfg_.logBimodal)] >= 2;
    ctx_.altPred = basePred;
    if (ctx_.altTable >= 0) {
        ctx_.altPred = tagCtr_[slot(ctx_.altTable)] >= 0;
    }

    if (ctx_.providerTable >= 0) {
        uint32_t s = slot(ctx_.providerTable);
        int8_t ctr = tagCtr_[s];
        ctx_.providerPred = ctr >= 0;
        // Newly allocated: weak counter and no proven usefulness.
        ctx_.newlyAllocated =
            tagUseful_[s] == 0 && (ctr == 0 || ctr == -1);
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
TageScl::computeScPrediction(uint64_t pc)
{
    uint64_t pcBits = pcIndexBits(pc);
    uint32_t tageBit = static_cast<uint32_t>(ctx_.tagePred)
                       << (cfg_.logSc - 1);
    int sum = 2 * scBias_[pcBits & maskBits(cfg_.logSc)] + 1;
    sum += ctx_.tagePred ? 8 : -8;
    for (unsigned t = 0; t < kNumScTables; ++t) {
        scIndex(t) ^= tageBit;
        sum += 2 * scTables_[scIndex(t)] + 1;
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
        (pcIndexBits(pc) & maskBits(cfg_.logLoop)) * kLoopWays);
    ctx_.loopTag = static_cast<uint16_t>((pc >> (1 + cfg_.logLoop)) &
                                         maskBits(14));
    // Bit w of each mask is way w. The first hit is the match; the
    // victim, used only without one, is the last replaceable way.
    unsigned hit = 0, replaceable = 0;
    for (unsigned w = 0; w < kLoopWays; ++w) {
        const LoopEntry &e = loop_[ctx_.loopSet + w];
        hit |= static_cast<unsigned>(e.valid && e.tag == ctx_.loopTag) << w;
        replaceable |= static_cast<unsigned>(!e.valid || e.age == 0) << w;
    }
    int set = static_cast<int>(ctx_.loopSet);
    ctx_.loopHit = hit ? set + std::countr_zero(hit) : -1;
    ctx_.loopVictim =
        replaceable ? set + static_cast<int>(std::bit_width(replaceable)) - 1
                    : -1;
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
        for (unsigned w = 0; w < kLoopWays; ++w) {
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
TageScl::predict(uint64_t pc)
{
    std::array<uint32_t, kNumViews> fold;
    history_.foldedValues(fold.data());
    hashBranches(&pc, 1, fold.data(), 1, oneSlots_.data(), oneTags_.data(),
                 oneScIndices_.data());
    ctx_.slots = oneSlots_.data();
    ctx_.tags = oneTags_.data();
    ctx_.scIndices = oneScIndices_.data();
    ctx_.stride = 1;
    return lookup(pc);
}

void
TageScl::step(std::span<const BranchRecord> records, uint8_t *miss,
              const uint8_t *noAllocate)
{
    constexpr size_t B = kBlock;
    std::array<uint32_t, kNumViews * B> fold;
    std::array<uint32_t, kNumTables * B> slots;
    std::array<uint16_t, kNumTables * B> tags;
    std::array<uint32_t, kNumScTables * B> scIndices;
    std::array<uint64_t, B> pcs;
    std::array<uint8_t, B> taken;
    std::array<size_t, B> at; // the record of each conditional

    size_t i = 0;
    while (i < records.size()) {
        size_t n = 0;
        for (; i < records.size() && n < B; ++i) {
            miss[i] = 0;
            if (records[i].isConditional()) {
                pcs[n] = records[i].pc;
                taken[n] = records[i].taken;
                at[n++] = i;
            }
        }
        history_.pushRun(taken.data(), n, fold.data(), B);
        hashBranches(pcs.data(), n, fold.data(), B, slots.data(),
                     tags.data(), scIndices.data());
        ctx_.stride = B;
        for (size_t j = 0; j < n; ++j) {
            ctx_.slots = slots.data() + j;
            ctx_.tags = tags.data() + j;
            ctx_.scIndices = scIndices.data() + j;
            bool pred = lookup(pcs[j]);
            train(taken[j], !(noAllocate && noAllocate[at[j]]));
            miss[at[j]] = pred != taken[j];
        }
    }
}

bool
TageScl::lookup(uint64_t pc)
{
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
    if (start >= static_cast<int>(kNumTables))
        return;

    // Skip a random number of tables so allocations spread out.
    if (nextRandom() % 4 == 0 && start + 1 < static_cast<int>(kNumTables))
        ++start;

    unsigned allocated = 0, blocked = 0;
    for (unsigned t = start; t < kNumTables && allocated < 2; ++t) {
        uint32_t s = slot(t);
        if (tagUseful_[s] == 0) {
            tagKey_[s] = tag(t);
            tagCtr_[s] = taken ? 0 : -1;
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
        for (unsigned t = 0; t < kNumScTables; ++t)
            adjust(scTables_[scIndex(t)]);
    }
}

void
TageScl::update(uint64_t pc, bool taken, bool allocate)
{
    whisper_assert(pc == ctx_.pc, "update() without matching predict()");
    train(taken, allocate);
    history_.push(taken);
}

void
TageScl::train(bool taken, bool allocate)
{
    uint64_t pc = ctx_.pc;

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
        uint32_t s = slot(ctx_.providerTable);
        int lim = (1 << (cfg_.ctrBits - 1)) - 1;
        int v = tagCtr_[s] + (taken ? 1 : -1);
        tagCtr_[s] = static_cast<int8_t>(std::clamp(v, -lim - 1, lim));

        // Usefulness: provider correct where the alternative failed.
        if (ctx_.providerPred != ctx_.altPred) {
            if (ctx_.providerPred == taken) {
                if (tagUseful_[s] < maskBits(cfg_.usefulBits))
                    ++tagUseful_[s];
            } else if (tagUseful_[s] > 0) {
                --tagUseful_[s];
            }
        }
        // Weak, useless provider entries also train the base table so
        // the bimodal stays warm for when the entry is evicted.
        if (tagUseful_[s] == 0) {
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
}

void
TageScl::decayUseful()
{
    for (auto &u : tagUseful_)
        u >>= 1;
}

} // namespace whisper
