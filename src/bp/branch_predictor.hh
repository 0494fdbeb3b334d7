/**
 * @file
 * Abstract conditional-branch direction predictor.
 */

#ifndef WHISPER_BP_BRANCH_PREDICTOR_HH
#define WHISPER_BP_BRANCH_PREDICTOR_HH

#include <cstddef>
#include <cstdint>
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

    /** Human-readable name for reports. */
    virtual std::string name() const = 0;

    /** Nominal hardware storage budget in bits (0 if not meaningful). */
    virtual uint64_t storageBits() const { return 0; }
};

/**
 * Drive @p predictor through one trace record, the step every trace
 * driver shares (runners, profilers, the pipeline model, the
 * analyses): a conditional is predicted and then updated with its
 * outcome, and every record is passed to onRecord().
 * @return true iff @p rec is a conditional the predictor missed.
 */
inline bool
stepPredictor(BranchPredictor &predictor, const BranchRecord &rec)
{
    bool miss = false;
    if (rec.isConditional()) {
        bool pred = predictor.predict(rec.pc, rec.taken);
        predictor.update(rec.pc, rec.taken, pred);
        miss = pred != rec.taken;
    }
    predictor.onRecord(rec);
    return miss;
}

} // namespace whisper

#endif // WHISPER_BP_BRANCH_PREDICTOR_HH
