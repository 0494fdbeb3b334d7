#include "branchnet/branchnet_predictor.hh"

#include "util/logging.hh"

namespace whisper
{

BranchNetPredictor::BranchNetPredictor(
    std::unique_ptr<BranchPredictor> base,
    std::vector<BranchNetDeployment> models, std::string label)
    : base_(std::move(base)), models_(std::move(models)),
      label_(std::move(label))
{
    whisper_assert(base_ != nullptr);
    for (size_t i = 0; i < models_.size(); ++i)
        byPc_[models_[i].pc] = i;
}

std::string
BranchNetPredictor::name() const
{
    return label_ + "+" + base_->name();
}

uint64_t
BranchNetPredictor::storageBits() const
{
    return base_->storageBits() +
           models_.size() * BranchNetGeometry::modelBytes() * 8;
}

void
BranchNetPredictor::step(std::span<const BranchRecord> records,
                         uint8_t *miss, const uint8_t *noAllocate)
{
    auto decide = [this](const BranchRecord &rec) {
        std::optional<bool> pred;
        if (!rec.isConditional())
            return pred;
        auto it = byPc_.find(rec.pc);
        if (it != byPc_.end()) {
            pred = models_[it->second].model.predict(history_.snapshot());
            ++cnnPredictions_;
            cnnCorrect_ += *pred == rec.taken;
        }
        history_.push(rec.pc, rec.taken);
        return pred;
    };
    stepOverriding(*base_, records, miss, noAllocate, decide);
}

} // namespace whisper
