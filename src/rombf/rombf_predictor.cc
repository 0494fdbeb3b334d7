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

void
RombfPredictor::step(std::span<const BranchRecord> records, uint8_t *miss,
                     const uint8_t *noAllocate)
{
    auto decide = [this](const BranchRecord &rec) {
        std::optional<bool> pred;
        if (!rec.isConditional())
            return pred;
        auto it = hints_.find(rec.pc);
        if (it != hints_.end()) {
            const Annotation &a = it->second;
            if (a.tableIdx < 0) {
                pred = a.biasTaken;
            } else {
                unsigned bits =
                    static_cast<unsigned>(history_.lastBits(histLen_));
                const TruthTable &tt = enum_.tables[a.tableIdx];
                pred = ((tt[bits / 64] >> (bits % 64)) & 1) != 0;
            }
            ++hintPredictions_;
            hintCorrect_ += *pred == rec.taken;
        }
        history_.push(rec.taken);
        return pred;
    };
    stepOverriding(*base_, records, miss, noAllocate, decide);
}

} // namespace whisper
