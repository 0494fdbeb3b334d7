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

bool
BranchNetPredictor::predict(uint64_t pc, bool oracleTaken)
{
    basePred_ = base_->predict(pc, oracleTaken);
    usedCnn_ = false;

    auto it = byPc_.find(pc);
    if (it == byPc_.end())
        return basePred_;

    usedCnn_ = true;
    ++cnnPredictions_;
    return models_[it->second].model.predict(history_.snapshot());
}

void
BranchNetPredictor::update(uint64_t pc, bool taken, bool predicted,
                           bool allocate)
{
    if (usedCnn_ && predicted == taken)
        ++cnnCorrect_;
    base_->update(pc, taken, basePred_, allocate && !usedCnn_);
    history_.push(pc, taken);
}

} // namespace whisper
