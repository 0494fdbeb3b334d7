/**
 * @file
 * Abstract conditional-branch direction predictor.
 */

#ifndef WHISPER_BP_BRANCH_PREDICTOR_HH
#define WHISPER_BP_BRANCH_PREDICTOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "trace/branch_record.hh"
#include "trace/branch_source.hh"

namespace whisper
{

/**
 * Interface shared by every direction predictor in the library.
 *
 * A caller calls predict() then update() for each dynamic
 * conditional branch, in trace order, or step() for a block of
 * records. predict() receives the resolved direction as
 * @p oracleTaken purely so that the ideal (limit-study) predictor can
 * be driven through the same interface; every real predictor must
 * ignore it.
 */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /**
     * Predict the direction of the conditional branch at @p pc.
     *
     * @param pc branch instruction address
     * @param oracleTaken resolved direction (for IdealPredictor only)
     * @return predicted direction
     */
    virtual bool predict(uint64_t pc, bool oracleTaken) = 0;

    /**
     * Train on the resolved branch and advance internal history.
     *
     * @param pc branch address
     * @param taken resolved direction
     * @param predicted the direction predict() returned
     * @param allocate false to suppress new-entry allocation (used by
     *        Whisper for hinted branches so the underlying predictor's
     *        capacity is reserved for unhinted branches)
     */
    virtual void update(uint64_t pc, bool taken, bool predicted,
                        bool allocate = true) = 0;

    /**
     * Observe a retired control-transfer record of any kind. The
     * driver calls this for every trace record after predict/update;
     * Whisper's hybrid uses it to model brhint execution in
     * predecessor blocks. Default: no-op.
     */
    virtual void onRecord(const BranchRecord &rec) { (void)rec; }

    /**
     * Step through a block of trace records, the step every trace
     * loop shares (runners, profilers, the pipeline model, the
     * analyses). Each conditional is predicted and then updated with
     * its outcome, and every record is passed to onRecord(), in
     * trace order. miss[i] is set iff @p records[i] is a conditional
     * the predictor missed; where @p noAllocate is given,
     * noAllocate[i] != 0 updates records[i] with allocate = false.
     *
     * The default is that loop. A predictor may override it to do
     * the work that depends only on the trace (history, hashes,
     * hint-buffer use) for the whole block first, as long as every
     * prediction and all state it leaves equal the loop's.
     */
    virtual void
    step(std::span<const BranchRecord> records, uint8_t *miss,
         const uint8_t *noAllocate = nullptr)
    {
        for (size_t i = 0; i < records.size(); ++i) {
            const BranchRecord &rec = records[i];
            bool missed = false;
            if (rec.isConditional()) {
                bool pred = predict(rec.pc, rec.taken);
                update(rec.pc, rec.taken, pred,
                       !(noAllocate && noAllocate[i]));
                missed = pred != rec.taken;
            }
            miss[i] = missed;
            onRecord(rec);
        }
    }

    /** Human-readable name for reports. */
    virtual std::string name() const = 0;

    /** Nominal hardware storage budget in bits (0 if not meaningful). */
    virtual uint64_t storageBits() const { return 0; }
};

/** Records a trace loop reads into one step() block. */
inline constexpr size_t kStepBlock = 256;

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
