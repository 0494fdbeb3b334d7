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

WhisperPredictor::WhisperPredictor(const WhisperPredictor &other)
    : base_(other.base_->clone()), cfg_(other.cfg_),
      cache_(other.cache_), lengths_(other.lengths_),
      hints_(other.hints_), triggers_(other.triggers_),
      buffer_(other.buffer_), history_(other.history_),
      usedHint_(other.usedHint_), basePred_(other.basePred_),
      hintPredictions_(other.hintPredictions_),
      hintCorrect_(other.hintCorrect_),
      dynamicHints_(other.dynamicHints_)
{
}

void
WhisperPredictor::replaceHints(
    const std::vector<TrainedHint> &hints,
    const std::vector<HintPlacement> &placements)
{
    hints_.clear();
    triggers_.clear();
    buffer_.clear();
    for (const auto &h : hints)
        hints_[h.pc] = h.hint;
    for (const auto &pl : placements) {
        whisper_assert(hints_.count(pl.branchPc),
                       "placement for unknown hint");
        triggers_[pl.predecessorPc].push_back(pl.branchPc);
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
    auto it = triggers_.find(rec.pc);
    if (it == triggers_.end())
        return;
    // This block carries brhint instructions: executing it decodes
    // each hint into the hint buffer.
    for (uint64_t branchPc : it->second) {
        ++dynamicHints_;
        buffer_.insert(branchPc, hints_[branchPc]);
    }
}

void
WhisperPredictor::reset()
{
    base_->reset();
    buffer_.clear();
    buffer_.resetStats();
    history_.reset();
    usedHint_ = false;
    basePred_ = false;
    hintPredictions_ = 0;
    hintCorrect_ = 0;
    dynamicHints_ = 0;
}

} // namespace whisper
