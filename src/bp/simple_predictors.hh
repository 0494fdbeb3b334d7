/**
 * @file
 * The ideal direction oracle used for limit studies: a reference
 * predictor with no learned state.
 */

#ifndef WHISPER_BP_SIMPLE_PREDICTORS_HH
#define WHISPER_BP_SIMPLE_PREDICTORS_HH

#include <algorithm>
#include <cstdint>

#include "bp/branch_predictor.hh"

namespace whisper
{

/**
 * The ideal direction predictor of the paper's limit study (SII-B):
 * always predicts the resolved direction.
 */
class IdealPredictor : public BranchPredictor
{
  public:
    void
    step(std::span<const BranchRecord> records, uint8_t *miss,
         const uint8_t * = nullptr) override
    {
        std::fill_n(miss, records.size(), 0);
    }
    std::string name() const override { return "ideal"; }
};

} // namespace whisper

#endif // WHISPER_BP_SIMPLE_PREDICTORS_HH
