#include "rombf/rombf_predictor.hh"

#include "util/logging.hh"

namespace whisper
{

RombfPredictor::RombfPredictor(std::unique_ptr<BranchPredictor> base,
                               const RombfTrainer &trainer,
                               const std::vector<RombfHint> &hints)
    : base_(std::move(base)), enum_(trainer.enumeration()),
      histLen_(trainer.historyLength()), history_(64)
{
    whisper_assert(base_ != nullptr);
    for (const auto &h : hints)
        hints_[h.pc] = Annotation{h.tableIdx, h.biasTaken};
}

std::string
RombfPredictor::name() const
{
    return std::to_string(histLen_) + "b-rombf+" + base_->name();
}

uint64_t
RombfPredictor::storageBits() const
{
    return base_->storageBits();
}

bool
RombfPredictor::predict(uint64_t pc, bool oracleTaken)
{
    basePred_ = base_->predict(pc, oracleTaken);
    usedHint_ = false;

    auto it = hints_.find(pc);
    if (it == hints_.end())
        return basePred_;

    usedHint_ = true;
    ++hintPredictions_;
    const Annotation &a = it->second;
    if (a.tableIdx < 0)
        return a.biasTaken;
    unsigned bits =
        static_cast<unsigned>(history_.lastBits(histLen_));
    const TruthTable &tt = enum_.tables[a.tableIdx];
    return (tt[bits / 64] >> (bits % 64)) & 1;
}

void
RombfPredictor::update(uint64_t pc, bool taken, bool predicted,
                       bool allocate)
{
    if (usedHint_ && predicted == taken)
        ++hintCorrect_;
    base_->update(pc, taken, basePred_, allocate && !usedHint_);
    history_.push(taken);
}

} // namespace whisper
