#include "core/whisper_predictor.hh"

#include "util/logging.hh"

namespace whisper
{

WhisperPredictor::WhisperPredictor(
    std::unique_ptr<BranchPredictor> base, const WhisperConfig &cfg,
    const TruthTableCache &cache, const std::vector<TrainedHint> &hints,
    const std::vector<HintPlacement> &placements)
    : base_(std::move(base)), cfg_(cfg), cache_(cache),
      lengths_(geometricLengths(cfg)),
      buffer_(cfg.hintBufferEntries),
      history_(2 * cfg.maxHistoryLength)
{
    whisper_assert(base_ != nullptr);
    whisper_assert(lengths_.size() <= 16,
                   "history index must fit the 4-bit field");

    for (unsigned len : lengths_)
        history_.addFoldedView(len, cfg.hashWidth);

    replaceHints(hints, placements);
}

void
WhisperPredictor::replaceHints(
    const std::vector<TrainedHint> &hints,
    const std::vector<HintPlacement> &placements)
{
    hints_.clear();
    buffer_.clear();
    for (const auto &h : hints)
        hints_[h.pc] = h.hint;

    // Pass 1: one run per predecessor PC, counting its placements.
    triggerIds_ = PcIndex(placements.size());
    triggerRuns_.clear();
    for (const auto &pl : placements) {
        whisper_assert(hints_.count(pl.branchPc),
                       "placement for unknown hint");
        uint32_t id = triggerIds_.insert(pl.predecessorPc);
        triggerRuns_.resize(triggerIds_.size());
        ++triggerRuns_[id].count;
    }
    // Pass 2: lay the runs out back to back and fill each from its
    // end, walking the placements backwards so every run keeps
    // placement order.
    uint32_t end = 0;
    for (TriggerRun &run : triggerRuns_) {
        end += run.count;
        run.first = end;
    }
    triggerHints_.resize(end);
    for (auto pl = placements.rbegin(); pl != placements.rend(); ++pl) {
        TriggerRun &run = triggerRuns_[triggerIds_.find(pl->predecessorPc)];
        triggerHints_[--run.first] = {pl->branchPc,
                                      hints_.at(pl->branchPc)};
    }
}

std::string
WhisperPredictor::name() const
{
    return "whisper+" + base_->name();
}

uint64_t
WhisperPredictor::storageBits() const
{
    // The hint buffer is the only added predictor-side storage; the
    // hints themselves live in the binary as brhint instructions.
    return base_->storageBits() +
           cfg_.hintBufferEntries * (BrHint::kEncodedBits + 64);
}

bool
WhisperPredictor::evaluateHint(const BrHint &hint) const
{
    switch (hint.bias) {
      case HintBias::AlwaysTaken:
        return true;
      case HintBias::NeverTaken:
        return false;
      case HintBias::Formula:
        break;
    }
    whisper_assert(hint.historyIdx < lengths_.size());
    uint8_t hashed = static_cast<uint8_t>(
        history_.foldedValue(hint.historyIdx));
    return cache_.evaluate(hint.formula, hashed);
}

void
WhisperPredictor::step(std::span<const BranchRecord> records, uint8_t *miss,
                       const uint8_t *noAllocate)
{
    auto decide = [this](const BranchRecord &rec) {
        std::optional<bool> pred;
        if (rec.isConditional()) {
            if (const BrHint *hint = buffer_.lookup(rec.pc)) {
                pred = evaluateHint(*hint);
                ++hintPredictions_;
                hintCorrect_ += *pred == rec.taken;
            }
            history_.push(rec.taken);
        }
        executeBrhints(rec);
        return pred;
    };
    stepOverriding(*base_, records, miss, noAllocate, decide);
}

void
WhisperPredictor::executeBrhints(const BranchRecord &rec)
{
    // A block carrying brhint instructions decodes each hint into
    // the hint buffer; other blocks are not in the table.
    uint32_t id = triggerIds_.find(rec.pc);
    if (id == PcIndex::kNone)
        return;
    const TriggerRun &run = triggerRuns_[id];
    for (uint32_t k = 0; k < run.count; ++k) {
        const auto &[branchPc, hint] = triggerHints_[run.first + k];
        ++dynamicHints_;
        buffer_.insert(branchPc, hint);
    }
}

} // namespace whisper
