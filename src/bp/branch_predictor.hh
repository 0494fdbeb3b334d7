/**
 * @file
 * Abstract conditional-branch direction predictor.
 */

#ifndef WHISPER_BP_BRANCH_PREDICTOR_HH
#define WHISPER_BP_BRANCH_PREDICTOR_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "trace/branch_record.hh"
#include "trace/branch_source.hh"

namespace whisper
{

/**
 * Interface shared by every direction predictor in the library: a
 * driver steps a predictor through the trace in blocks of records,
 * in trace order.
 */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /**
     * Step through a block of trace records, the step every trace
     * loop shares (runners, profilers, the pipeline model, the
     * analyses). Each conditional is predicted and then trained on
     * its outcome, in trace order, and records of every kind advance
     * whatever state the predictor keeps from them. miss[i] is set
     * iff @p records[i] is a conditional the predictor missed; where
     * @p noAllocate is given, noAllocate[i] != 0 trains records[i]
     * without allocating new entries (Whisper passes it for hinted
     * branches, so the base predictor's capacity serves the rest).
     */
    virtual void step(std::span<const BranchRecord> records, uint8_t *miss,
                      const uint8_t *noAllocate = nullptr) = 0;

    /** Human-readable name for reports. */
    virtual std::string name() const = 0;

    /** Nominal hardware storage budget in bits (0 if not meaningful). */
    virtual uint64_t storageBits() const { return 0; }
};

/** Records a trace loop reads into one step() block. */
inline constexpr size_t kStepBlock = 256;

/**
 * The step of a hybrid that overrides some conditionals' predictions
 * in front of a @p base predictor (Whisper, ROMBF, BranchNet). Per
 * block of at most kStepBlock records, @p decide(record) runs once
 * per record in trace order and returns the hybrid's own prediction
 * for a conditional it overrides (it reads and advances the hybrid's
 * own history); then @p base steps the block, training overridden
 * conditionals without allocating, and their miss flags are patched
 * with the overriding prediction.
 */
template <typename Decide>
void
stepOverriding(BranchPredictor &base, std::span<const BranchRecord> records,
               uint8_t *miss, const uint8_t *noAllocate, Decide &&decide)
{
    std::array<uint8_t, kStepBlock> overridden, own, skipAllocate;
    for (size_t first = 0; first < records.size(); first += kStepBlock) {
        std::span<const BranchRecord> block = records.subspan(
            first, std::min(kStepBlock, records.size() - first));
        for (size_t i = 0; i < block.size(); ++i) {
            std::optional<bool> pred = decide(block[i]);
            overridden[i] = pred.has_value();
            own[i] = pred.value_or(false);
            skipAllocate[i] =
                overridden[i] || (noAllocate && noAllocate[first + i]);
        }
        base.step(block, miss + first, skipAllocate.data());
        for (size_t i = 0; i < block.size(); ++i)
            if (overridden[i])
                miss[first + i] = own[i] != block[i].taken;
    }
}

/**
 * The one trace-stepping loop: read @p source to its end in blocks of
 * kStepBlock records, step each block through @p predictor, then
 * call @p visit(record, miss) for each of its records in order.
 */
template <typename Visit>
void
stepBlocks(BranchSource &source, BranchPredictor &predictor, Visit &&visit)
{
    std::array<BranchRecord, kStepBlock> block;
    std::array<uint8_t, kStepBlock> miss;
    size_t n;
    do {
        n = 0;
        while (n < kStepBlock && source.next(block[n]))
            ++n;
        predictor.step({block.data(), n}, miss.data());
        for (size_t i = 0; i < n; ++i)
            visit(block[i], miss[i] != 0);
    } while (n == kStepBlock);
}

} // namespace whisper

#endif // WHISPER_BP_BRANCH_PREDICTOR_HH
