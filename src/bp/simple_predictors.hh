/**
 * @file
 * Small reference predictors: static, bimodal, gshare, and the ideal
 * direction oracle used for limit studies.
 */

#ifndef WHISPER_BP_SIMPLE_PREDICTORS_HH
#define WHISPER_BP_SIMPLE_PREDICTORS_HH

#include <cstdint>
#include <vector>

#include "bp/branch_predictor.hh"
#include "trace/global_history.hh"
#include "util/sat_counter.hh"

namespace whisper
{

/** Always predicts one fixed direction. */
class StaticPredictor : public BranchPredictor
{
  public:
    explicit StaticPredictor(bool taken = true) : taken_(taken) {}

    bool predict(uint64_t, bool) override { return taken_; }
    void update(uint64_t, bool, bool, bool) override {}
    std::string name() const override { return "static"; }

  private:
    bool taken_;
};

/**
 * The ideal direction predictor of the paper's limit study (SII-B):
 * always returns the resolved direction.
 */
class IdealPredictor : public BranchPredictor
{
  public:
    bool predict(uint64_t, bool oracleTaken) override
    {
        return oracleTaken;
    }
    void update(uint64_t, bool, bool, bool) override {}
    std::string name() const override { return "ideal"; }
};

/** Classic per-PC 2-bit counter table. */
class BimodalPredictor : public BranchPredictor
{
  public:
    /** @param log2Entries table size = 2^log2Entries counters. */
    explicit BimodalPredictor(unsigned log2Entries = 14);

    bool predict(uint64_t pc, bool) override;
    void update(uint64_t pc, bool taken, bool predicted,
                bool allocate = true) override;
    std::string name() const override { return "bimodal"; }
    uint64_t storageBits() const override { return table_.size() * 2; }

  private:
    size_t indexFor(uint64_t pc) const;

    std::vector<SatCounter> table_;
};

/** Gshare: PC xor folded global history indexes 2-bit counters. */
class GsharePredictor : public BranchPredictor
{
  public:
    /**
     * @param log2Entries table size = 2^log2Entries counters
     * @param historyLen global-history bits folded into the index
     */
    explicit GsharePredictor(unsigned log2Entries = 16,
                             unsigned historyLen = 16);

    bool predict(uint64_t pc, bool) override;
    void update(uint64_t pc, bool taken, bool predicted,
                bool allocate = true) override;
    std::string name() const override { return "gshare"; }
    uint64_t storageBits() const override { return table_.size() * 2; }

  private:
    size_t indexFor(uint64_t pc) const;

    unsigned historyLen_;
    uint64_t history_ = 0;
    std::vector<SatCounter> table_;
};

} // namespace whisper

#endif // WHISPER_BP_SIMPLE_PREDICTORS_HH
