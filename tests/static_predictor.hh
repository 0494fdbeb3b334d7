/**
 * @file
 * StaticPredictor: a fixed-direction fake base predictor for tests
 * that need a baseline whose every miss is known in advance.
 */

#ifndef WHISPER_TESTS_STATIC_PREDICTOR_HH
#define WHISPER_TESTS_STATIC_PREDICTOR_HH

#include <cstdint>
#include <span>
#include <string>

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

} // namespace whisper

#endif // WHISPER_TESTS_STATIC_PREDICTOR_HH
