/**
 * @file
 * Hybrid run-time predictor for the ROMBF baseline.
 *
 * The 2001 scheme annotates branch instructions directly (hints
 * decode with the branch), so unlike Whisper there is no hint buffer
 * or timeliness concern: every annotated branch always predicts via
 * its formula over the raw last-N global outcomes; everything else
 * uses the dynamic predictor.
 */

#ifndef WHISPER_ROMBF_ROMBF_PREDICTOR_HH
#define WHISPER_ROMBF_ROMBF_PREDICTOR_HH

#include <memory>
#include <unordered_map>

#include "bp/branch_predictor.hh"
#include "rombf/rombf_trainer.hh"
#include "trace/global_history.hh"

namespace whisper
{

/** ROMBF-over-TAGE hybrid. */
class RombfPredictor : public BranchPredictor
{
  public:
    RombfPredictor(std::unique_ptr<BranchPredictor> base,
                   const RombfTrainer &trainer,
                   const std::vector<RombfHint> &hints);

    void step(std::span<const BranchRecord> records, uint8_t *miss,
              const uint8_t *noAllocate = nullptr) override;
    std::string name() const override;
    uint64_t storageBits() const override;

    uint64_t hintPredictions() const { return hintPredictions_; }
    uint64_t hintCorrect() const { return hintCorrect_; }

  private:
    struct Annotation
    {
        int tableIdx;
        bool biasTaken;
    };

    std::unique_ptr<BranchPredictor> base_;
    const RombfEnumeration &enum_;
    unsigned histLen_;
    std::unordered_map<uint64_t, Annotation> hints_;
    GlobalHistory history_;

    uint64_t hintPredictions_ = 0;
    uint64_t hintCorrect_ = 0;
};

} // namespace whisper

#endif // WHISPER_ROMBF_ROMBF_PREDICTOR_HH
