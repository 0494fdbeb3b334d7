/**
 * @file
 * Hybrid run-time predictor for the BranchNet baseline: covered
 * branches predict via their CNN over the (hashed PC, direction)
 * token history, everything else via the dynamic predictor.
 */

#ifndef WHISPER_BRANCHNET_BRANCHNET_PREDICTOR_HH
#define WHISPER_BRANCHNET_BRANCHNET_PREDICTOR_HH

#include <memory>
#include <unordered_map>

#include "bp/branch_predictor.hh"
#include "branchnet/branchnet_trainer.hh"

namespace whisper
{

/**
 * Rolling token history shared by sampling and inference so that
 * training and run-time inputs match exactly.
 */
class TokenHistory
{
  public:
    TokenHistory() { reset(); }

    void
    push(uint64_t pc, bool taken)
    {
        ring_[head_] = branchNetToken(pc, taken);
        head_ = (head_ + 1) % BranchNetGeometry::kHistory;
    }

    /** Snapshot ordered oldest-to-newest. */
    std::array<uint8_t, BranchNetGeometry::kHistory>
    snapshot() const
    {
        std::array<uint8_t, BranchNetGeometry::kHistory> out;
        for (unsigned i = 0; i < BranchNetGeometry::kHistory; ++i)
            out[i] = ring_[(head_ + i) % BranchNetGeometry::kHistory];
        return out;
    }

    void
    reset()
    {
        ring_.fill(0);
        head_ = 0;
    }

  private:
    std::array<uint8_t, BranchNetGeometry::kHistory> ring_;
    unsigned head_ = 0;
};

/** BranchNet-over-TAGE hybrid. */
class BranchNetPredictor : public BranchPredictor
{
  public:
    BranchNetPredictor(std::unique_ptr<BranchPredictor> base,
                       std::vector<BranchNetDeployment> models,
                       std::string label);

    void step(std::span<const BranchRecord> records, uint8_t *miss,
              const uint8_t *noAllocate = nullptr) override;
    std::string name() const override;
    uint64_t storageBits() const override;

    uint64_t cnnPredictions() const { return cnnPredictions_; }
    uint64_t cnnCorrect() const { return cnnCorrect_; }

  private:
    std::unique_ptr<BranchPredictor> base_;
    std::vector<BranchNetDeployment> models_;
    std::unordered_map<uint64_t, size_t> byPc_;
    std::string label_;
    TokenHistory history_;

    uint64_t cnnPredictions_ = 0;
    uint64_t cnnCorrect_ = 0;
};

} // namespace whisper

#endif // WHISPER_BRANCHNET_BRANCHNET_PREDICTOR_HH
