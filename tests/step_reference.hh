/**
 * @file
 * One trace record stepped on its own: the per-record loop body of
 * BranchPredictor::step()'s default, for tests that replay a trace
 * record by record as the reference for block stepping.
 */

#ifndef WHISPER_TESTS_STEP_REFERENCE_HH
#define WHISPER_TESTS_STEP_REFERENCE_HH

#include "bp/branch_predictor.hh"

namespace whisper
{

/** @return true iff @p rec is a conditional @p predictor missed. */
inline bool
stepRecord(BranchPredictor &predictor, const BranchRecord &rec,
           bool allocate = true)
{
    bool miss = false;
    if (rec.isConditional()) {
        bool pred = predictor.predict(rec.pc, rec.taken);
        predictor.update(rec.pc, rec.taken, pred, allocate);
        miss = pred != rec.taken;
    }
    predictor.onRecord(rec);
    return miss;
}

} // namespace whisper

#endif // WHISPER_TESTS_STEP_REFERENCE_HH
