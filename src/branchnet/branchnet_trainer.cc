#include "branchnet/branchnet_trainer.hh"

#include <chrono>

#include "util/bits.hh"
#include "util/logging.hh"

namespace whisper
{

void
BranchNetSampleStore::setTracked(const std::vector<uint64_t> &pcs)
{
    samples_.clear();
    for (uint64_t pc : pcs)
        samples_[pc].reserve(64);
}

void
BranchNetSampleStore::record(uint64_t pc,
                             const BranchNetSample &sample)
{
    auto it = samples_.find(pc);
    if (it == samples_.end())
        return;
    if (it->second.size() < cap_)
        it->second.push_back(sample);
}

const std::vector<BranchNetSample> *
BranchNetSampleStore::find(uint64_t pc) const
{
    auto it = samples_.find(pc);
    return it == samples_.end() ? nullptr : &it->second;
}

BranchNetTrainer::BranchNetTrainer(uint64_t budgetBytes,
                                   unsigned maxModels,
                                   unsigned epochs, double lr)
    : budget_(budgetBytes), maxModels_(maxModels), epochs_(epochs),
      lr_(lr)
{
}

std::vector<BranchNetDeployment>
BranchNetTrainer::train(const BranchProfile &profile,
                        const BranchNetSampleStore &store,
                        BranchNetTrainingStats *stats) const
{
    auto start = std::chrono::steady_clock::now();
    BranchNetTrainingStats local;

    uint64_t perModel = BranchNetGeometry::modelBytes();
    unsigned slots = budget_ == 0
        ? maxModels_
        : static_cast<unsigned>(budget_ / perModel);

    std::vector<BranchNetDeployment> deployed;
    for (const BranchProfileEntry *entry : profile.hardBranches()) {
        if (deployed.size() >= slots)
            break;
        const auto *samples = store.find(entry->pc);
        if (!samples || samples->size() < 64)
            continue;
        ++local.branchesConsidered;

        BranchNetDeployment d;
        d.pc = entry->pc;
        d.model = BranchNetModel(mix64(entry->pc));
        d.trainAccuracy = d.model.train(*samples, epochs_, lr_);
        local.sgdSteps +=
            static_cast<uint64_t>(samples->size()) * epochs_;

        // Deploy only when the CNN beats the profiled predictor's
        // accuracy on this branch.
        if (d.trainAccuracy > entry->baselineAccuracy())
            deployed.push_back(std::move(d));
    }

    local.modelsDeployed = deployed.size();
    local.metadataBytes = deployed.size() * perModel;
    local.trainSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (stats)
        *stats = local;
    return deployed;
}

} // namespace whisper
