/**
 * @file
 * BranchNet offline training with metadata budgets.
 *
 * BranchNet assumes a few static branches cause most mispredictions
 * and spends its metadata budget on those: the 8KB and 32KB variants
 * cover the top mispredicting branches until the budget is
 * exhausted; the "unlimited" variant covers every hard branch. The
 * trainer also records wall-clock training time, which Fig. 16
 * contrasts with the formula-based approaches.
 */

#ifndef WHISPER_BRANCHNET_BRANCHNET_TRAINER_HH
#define WHISPER_BRANCHNET_BRANCHNET_TRAINER_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "branchnet/branchnet_model.hh"
#include "core/profile.hh"

namespace whisper
{

/** Per-branch training samples gathered during profiling. */
class BranchNetSampleStore
{
  public:
    explicit BranchNetSampleStore(size_t samplesPerBranch = 600)
        : cap_(samplesPerBranch)
    {
    }

    /** Restrict collection to these PCs (the hard branches). */
    void setTracked(const std::vector<uint64_t> &pcs);

    void record(uint64_t pc, const BranchNetSample &sample);

    const std::vector<BranchNetSample> *find(uint64_t pc) const;
    size_t numBranches() const { return samples_.size(); }

  private:
    size_t cap_;
    std::unordered_map<uint64_t, std::vector<BranchNetSample>>
        samples_;
};

/** One deployed CNN. */
struct BranchNetDeployment
{
    uint64_t pc = 0;
    BranchNetModel model;
    double trainAccuracy = 0.0;
};

/** Training statistics. */
struct BranchNetTrainingStats
{
    uint64_t branchesConsidered = 0;
    uint64_t modelsDeployed = 0;
    uint64_t sgdSteps = 0;
    double trainSeconds = 0.0;
    uint64_t metadataBytes = 0;
};

/** Budgeted BranchNet trainer. */
class BranchNetTrainer
{
  public:
    /**
     * @param budgetBytes metadata budget; 0 means unlimited
     * @param maxModels hard cap for the unlimited variant (keeps
     *        host training time bounded; documented substitution)
     */
    explicit BranchNetTrainer(uint64_t budgetBytes,
                              unsigned maxModels = 512,
                              unsigned epochs = 3, double lr = 0.08);

    std::vector<BranchNetDeployment>
    train(const BranchProfile &profile,
          const BranchNetSampleStore &store,
          BranchNetTrainingStats *stats = nullptr) const;

    uint64_t budgetBytes() const { return budget_; }

  private:
    uint64_t budget_;
    unsigned maxModels_;
    unsigned epochs_;
    double lr_;
};

} // namespace whisper

#endif // WHISPER_BRANCHNET_BRANCHNET_TRAINER_HH
