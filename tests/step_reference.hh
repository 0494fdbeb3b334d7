/**
 * @file
 * Per-record references for block stepping. stepRecord() and
 * predictedDirection() step any predictor through one record.
 * TageSclReference walks TageScl's own
 * per-record predict()/update(), and the three hybrid references
 * replay, one record at a time over such a TageScl base, the
 * per-record hybrids the block-stepping hybrids replaced. Each
 * reference's step(record, allocate) returns the record's miss flag.
 */

#ifndef WHISPER_TESTS_STEP_REFERENCE_HH
#define WHISPER_TESTS_STEP_REFERENCE_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bp/branch_predictor.hh"
#include "bp/tage_scl.hh"
#include "branchnet/branchnet_predictor.hh"
#include "core/formula_trainer.hh"
#include "core/hint_buffer.hh"
#include "core/hint_injection.hh"
#include "core/history_hash.hh"
#include "rombf/rombf_trainer.hh"
#include "trace/global_history.hh"

namespace whisper
{

/** @return true iff @p rec is a conditional @p predictor missed,
 * stepping it through step() on @p rec alone. */
inline bool
stepRecord(BranchPredictor &predictor, const BranchRecord &rec,
           bool allocate = true)
{
    uint8_t miss = 0;
    const uint8_t noAllocate = !allocate;
    predictor.step({&rec, 1}, &miss, &noAllocate);
    return miss != 0;
}

/** The direction @p predictor predicts for a conditional at @p pc
 * that resolves @p taken, stepping it through step() alone. */
inline bool
predictedDirection(BranchPredictor &predictor, uint64_t pc, bool taken)
{
    BranchRecord rec;
    rec.pc = pc;
    rec.kind = BranchKind::Conditional;
    rec.taken = taken;
    return stepRecord(predictor, rec) != taken;
}

/** TageScl stepped one conditional at a time through its own
 * predict()/update(). */
class TageSclReference
{
  public:
    explicit TageSclReference(const TageSclConfig &cfg) : tage(cfg) {}

    bool
    step(const BranchRecord &rec, bool allocate = true)
    {
        if (!rec.isConditional())
            return false;
        bool pred = tage.predict(rec.pc);
        tage.update(rec.pc, rec.taken, allocate);
        return pred != rec.taken;
    }

    TageScl tage;
};

/**
 * One record of a per-record hybrid: the base predicts and updates
 * the conditional, without allocating where the hybrid overrides it
 * with @p own; the returned miss flag is the overriding prediction's
 * where there is one.
 */
inline bool
stepHybridRecord(TageSclReference &base, const BranchRecord &rec,
                 std::optional<bool> own, bool allocate)
{
    bool baseMiss = base.step(rec, allocate && !own);
    return own ? *own != rec.taken : baseMiss;
}

/** The per-record Whisper hybrid over a TageScl. */
class WhisperReference
{
  public:
    WhisperReference(const TageSclConfig &tageCfg, const WhisperConfig &cfg,
                     const TruthTableCache &cache,
                     const std::vector<TrainedHint> &hints,
                     const std::vector<HintPlacement> &placements)
        : base(tageCfg), buffer(cfg.hintBufferEntries), cache_(cache),
          history_(2 * cfg.maxHistoryLength)
    {
        for (unsigned len : geometricLengths(cfg))
            history_.addFoldedView(len, cfg.hashWidth);
        replaceHints(hints, placements);
    }

    void
    replaceHints(const std::vector<TrainedHint> &hints,
                 const std::vector<HintPlacement> &placements)
    {
        std::unordered_map<uint64_t, BrHint> byPc;
        for (const TrainedHint &h : hints)
            byPc[h.pc] = h.hint;
        triggers_.clear();
        for (const HintPlacement &pl : placements)
            triggers_[pl.predecessorPc].emplace_back(pl.branchPc,
                                                     byPc.at(pl.branchPc));
        buffer.clear();
    }

    bool
    step(const BranchRecord &rec, bool allocate = true)
    {
        bool miss = false;
        if (rec.isConditional()) {
            std::optional<bool> own;
            if (const BrHint *hint = buffer.lookup(rec.pc)) {
                own = evaluate(*hint);
                ++hintPredictions;
                hintCorrect += *own == rec.taken;
            }
            miss = stepHybridRecord(base, rec, own, allocate);
            history_.push(rec.taken);
        }
        auto it = triggers_.find(rec.pc);
        if (it != triggers_.end()) {
            for (const auto &[branchPc, hint] : it->second) {
                ++dynamicHints;
                buffer.insert(branchPc, hint);
            }
        }
        return miss;
    }

    TageSclReference base;
    HintBuffer buffer;
    uint64_t hintPredictions = 0;
    uint64_t hintCorrect = 0;
    uint64_t dynamicHints = 0;

  private:
    bool
    evaluate(const BrHint &hint) const
    {
        if (hint.bias != HintBias::Formula)
            return hint.bias == HintBias::AlwaysTaken;
        return cache_.evaluate(hint.formula,
                               static_cast<uint8_t>(history_.foldedValue(
                                   hint.historyIdx)));
    }

    const TruthTableCache &cache_;
    GlobalHistory history_;
    /** predecessor PC -> (branch PC, hint), in placement order. */
    std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, BrHint>>>
        triggers_;
};

/** The per-record ROMBF hybrid over a TageScl. */
class RombfReference
{
  public:
    RombfReference(const TageSclConfig &tageCfg, const RombfTrainer &trainer,
                   const std::vector<RombfHint> &hints)
        : base(tageCfg), trainer_(trainer), history_(64)
    {
        for (const RombfHint &h : hints)
            hints_[h.pc] = h;
    }

    bool
    step(const BranchRecord &rec, bool allocate = true)
    {
        if (!rec.isConditional())
            return false;
        std::optional<bool> own;
        auto it = hints_.find(rec.pc);
        if (it != hints_.end()) {
            const RombfHint &h = it->second;
            if (h.tableIdx < 0) {
                own = h.biasTaken;
            } else {
                unsigned bits = static_cast<unsigned>(
                    history_.lastBits(trainer_.historyLength()));
                const TruthTable &tt =
                    trainer_.enumeration().tables[h.tableIdx];
                own = ((tt[bits / 64] >> (bits % 64)) & 1) != 0;
            }
            ++hintPredictions;
            hintCorrect += *own == rec.taken;
        }
        bool miss = stepHybridRecord(base, rec, own, allocate);
        history_.push(rec.taken);
        return miss;
    }

    TageSclReference base;
    uint64_t hintPredictions = 0;
    uint64_t hintCorrect = 0;

  private:
    const RombfTrainer &trainer_;
    std::unordered_map<uint64_t, RombfHint> hints_;
    GlobalHistory history_;
};

/** The per-record BranchNet hybrid over a TageScl. */
class BranchNetReference
{
  public:
    BranchNetReference(const TageSclConfig &tageCfg,
                       std::vector<BranchNetDeployment> models)
        : base(tageCfg), models_(std::move(models))
    {
        for (size_t i = 0; i < models_.size(); ++i)
            byPc_[models_[i].pc] = i;
    }

    bool
    step(const BranchRecord &rec, bool allocate = true)
    {
        if (!rec.isConditional())
            return false;
        std::optional<bool> own;
        auto it = byPc_.find(rec.pc);
        if (it != byPc_.end()) {
            own = models_[it->second].model.predict(history_.snapshot());
            ++cnnPredictions;
            cnnCorrect += *own == rec.taken;
        }
        bool miss = stepHybridRecord(base, rec, own, allocate);
        history_.push(rec.pc, rec.taken);
        return miss;
    }

    TageSclReference base;
    uint64_t cnnPredictions = 0;
    uint64_t cnnCorrect = 0;

  private:
    std::vector<BranchNetDeployment> models_;
    std::unordered_map<uint64_t, size_t> byPc_;
    TokenHistory history_;
};

} // namespace whisper

#endif // WHISPER_TESTS_STEP_REFERENCE_HH
