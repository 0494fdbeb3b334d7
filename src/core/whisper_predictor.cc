#include "core/whisper_predictor.hh"

#include <bit>

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

    // Pass 1: one slot per predecessor PC, counting its placements.
    triggerSlots_.assign(std::bit_ceil(2 * placements.size() + 1),
                         TriggerSlot{});
    for (const auto &pl : placements) {
        whisper_assert(hints_.count(pl.branchPc),
                       "placement for unknown hint");
        TriggerSlot &slot = triggerSlots_[findTrigger(pl.predecessorPc)];
        slot.pc = pl.predecessorPc;
        ++slot.count;
    }
    // Pass 2: lay the slots' runs out back to back and fill each
    // from its end, walking the placements backwards so every run
    // keeps placement order.
    uint32_t end = 0;
    for (TriggerSlot &slot : triggerSlots_) {
        end += slot.count;
        slot.first = end;
    }
    triggerHints_.resize(end);
    for (auto pl = placements.rbegin(); pl != placements.rend(); ++pl) {
        TriggerSlot &slot = triggerSlots_[findTrigger(pl->predecessorPc)];
        triggerHints_[--slot.first] = {pl->branchPc,
                                       hints_.at(pl->branchPc)};
    }
}

size_t
WhisperPredictor::findTrigger(uint64_t pc) const
{
    // Fibonacci hashing (the product's high bits mix every PC bit),
    // then linear probing to @p pc's slot or the empty slot ending
    // its probe sequence.
    size_t mask = triggerSlots_.size() - 1;
    size_t i = static_cast<size_t>((pc * 0x9E3779B97F4A7C15ULL) >> 40) &
               mask;
    while (triggerSlots_[i].count != 0 && triggerSlots_[i].pc != pc)
        i = (i + 1) & mask;
    return i;
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

bool
WhisperPredictor::predict(uint64_t pc, bool oracleTaken)
{
    // Query the dynamic predictor unconditionally: real hardware
    // looks up both structures in parallel, and the base predictor
    // needs its prediction context for update().
    basePred_ = base_->predict(pc, oracleTaken);
    usedHint_ = false;

    const BrHint *hint = buffer_.lookup(pc);
    if (hint) {
        usedHint_ = true;
        ++hintPredictions_;
        return evaluateHint(*hint);
    }
    return basePred_;
}

void
WhisperPredictor::update(uint64_t pc, bool taken, bool predicted,
                         bool allocate)
{
    if (usedHint_ && predicted == taken)
        ++hintCorrect_;
    // Hinted branches never allocate new entries in the dynamic
    // predictor (paper SIV); its capacity serves the rest.
    base_->update(pc, taken, basePred_, allocate && !usedHint_);
    history_.push(taken);
}

void
WhisperPredictor::onRecord(const BranchRecord &rec)
{
    // A block carrying brhint instructions decodes each hint into
    // the hint buffer; other blocks land on an empty slot.
    const TriggerSlot &slot = triggerSlots_[findTrigger(rec.pc)];
    for (uint32_t k = 0; k < slot.count; ++k) {
        const auto &[branchPc, hint] = triggerHints_[slot.first + k];
        ++dynamicHints_;
        buffer_.insert(branchPc, hint);
    }
}

} // namespace whisper
