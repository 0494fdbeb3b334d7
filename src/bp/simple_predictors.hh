/**
 * @file
 * Reference predictors with no learned state: a fixed direction, and
 * the ideal direction oracle used for limit studies.
 */

#ifndef WHISPER_BP_SIMPLE_PREDICTORS_HH
#define WHISPER_BP_SIMPLE_PREDICTORS_HH

#include <algorithm>
#include <cstdint>

#include "bp/branch_predictor.hh"

namespace whisper
{

/** Always predicts one fixed direction. */
class StaticPredictor : public BranchPredictor
{
  public:
    explicit StaticPredictor(bool taken = true) : taken_(taken) {}

    void
    step(std::span<const BranchRecord> records, uint8_t *miss,
         const uint8_t * = nullptr) override
    {
        for (size_t i = 0; i < records.size(); ++i)
            miss[i] = records[i].isConditional() &&
                      records[i].taken != taken_;
    }
    std::string name() const override { return "static"; }

  private:
    bool taken_;
};

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
