/**
 * @file
 * Abstract conditional-branch direction predictor.
 */

#ifndef WHISPER_BP_BRANCH_PREDICTOR_HH
#define WHISPER_BP_BRANCH_PREDICTOR_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "trace/branch_record.hh"

namespace whisper
{

/**
 * Interface shared by every direction predictor in the library.
 *
 * The driver loop calls predict() then update() for each dynamic
 * conditional branch, in trace order. predict() receives the resolved
 * direction as @p oracleTaken purely so that the ideal (limit-study)
 * predictor can be driven through the same interface; every real
 * predictor must ignore it.
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
     * Deep-copy this predictor, including all learned tables,
     * history registers, and in-flight prediction context, so the
     * copy's future predict/update sequence is bit-identical to the
     * original's. The sharded trace runner clones one prototype per
     * evaluation window; clones share only immutable data (e.g. the
     * truth-table cache) and are safe to drive from separate threads.
     */
    virtual std::unique_ptr<BranchPredictor> clone() const = 0;

    /** Human-readable name for reports. */
    virtual std::string name() const = 0;

    /** Drop all learned state and history. */
    virtual void reset() = 0;

    /** Nominal hardware storage budget in bits (0 if not meaningful). */
    virtual uint64_t storageBits() const { return 0; }
};

} // namespace whisper

#endif // WHISPER_BP_BRANCH_PREDICTOR_HH
