/**
 * @file
 * Versioned hint-bundle store: whisperd's deployment point.
 *
 * The consumer side (a simulated fleet, or the adaptive runner in
 * sim/runner) reads the currently deployed bundle as a shared_ptr
 * snapshot: readers pin whatever generation they observed and keep
 * using it while the trainer publishes the next one. A mutex guards
 * the pointer swap; readers take it once per bundle pull or
 * validation, never per branch. Epochs increase monotonically with
 * every deployment; the store keeps only the deployed generation
 * (the journal keeps the history on disk).
 *
 * Deployment is guarded: a candidate bundle must beat the incumbent
 * on a held-out validation window or it is rejected — the
 * rollback-on-regression rule that keeps a bad training epoch from
 * ever reaching the fleet.
 */

#ifndef WHISPER_SERVICE_HINT_STORE_HH
#define WHISPER_SERVICE_HINT_STORE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "bp/branch_predictor.hh"
#include "core/whisper_io.hh"
#include "core/whisper_predictor.hh"
#include "service/chunk_profiler.hh"
#include "service/hint_journal.hh"

namespace whisper
{

/** Versioned, atomically swappable bundle store. */
class HintStore
{
  public:
    using Snapshot = std::shared_ptr<const VersionedHintBundle>;

    /**
     * Preload the store from journal-replayed generations (ascending
     * epochs; out-of-order records are dropped as corrupt). The last
     * monotonic one becomes the deployed bundle and new epochs
     * continue after it — a restarted service resumes instead of
     * starting at 0. Must be called before any propose().
     * @return generations replayed (non-monotonic ones excluded).
     */
    size_t restore(std::vector<VersionedHintBundle> history);

    /** Journal every subsequent deployment to @p journal (not
     * owned; may be nullptr to detach). Already restored generations
     * are NOT re-journaled. A failed append leaves the deployment up
     * (the journal counts it and self-heals on the next append). */
    void attachJournal(HintJournal *journal);

    /** Currently deployed bundle; nullptr before any deployment. */
    Snapshot
    current() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return current_;
    }

    /** Epoch of the deployed bundle (0 = nothing deployed). */
    uint64_t
    epoch() const
    {
        Snapshot snap = current();
        return snap ? snap->epoch : 0;
    }

    /**
     * Offer a candidate for deployment. Accepted (and atomically
     * swapped in under a fresh epoch) only when it beats the
     * incumbent on the shared validation window by more than
     * @p margin; rejected otherwise.
     *
     * @param candidateAccuracy candidate's validation accuracy
     * @param incumbentAccuracy deployed bundle's (or the un-hinted
     *        baseline's) accuracy on the same window
     */
    bool propose(HintBundle candidate, double candidateAccuracy,
                 double incumbentAccuracy, double margin = 0.0);

    uint64_t accepted() const { return accepted_.load(); }
    uint64_t rejected() const { return rejected_.load(); }

  private:
    mutable std::mutex mutex_; //!< guards current_
    Snapshot current_;

    std::atomic<uint64_t> nextEpoch_{1};
    std::atomic<uint64_t> accepted_{0};
    std::atomic<uint64_t> rejected_{0};

    HintJournal *journal_ = nullptr;
};

/**
 * Glue between a HintStore and sim/runPredictorAdaptive: each epoch
 * boundary, rebuild the Whisper predictor iff the store has deployed
 * a new generation since the last look.
 */
class HintStoreConsultant
{
  public:
    HintStoreConsultant(const HintStore &store,
                        const WhisperConfig &cfg,
                        const TruthTableCache &cache,
                        BaselineFactory baseline);

    /**
     * runPredictorAdaptive refresh hook. The first deployment builds
     * the managed Whisper predictor (and returns it, so the runner
     * swaps to it); later deployments replace its hints in place —
     * the dynamic predictor state stays warm across redeployments,
     * as on real hardware where a binary push does not flush the
     * branch predictor tables.
     */
    BranchPredictor *refresh(uint64_t nextEpoch);

    /**
     * The managed predictor, created on first use with whatever is
     * currently deployed (possibly no hints yet). Handing this to
     * runPredictorAdaptive as the initial predictor makes every
     * deployment an in-place hint swap with zero cold restarts.
     */
    WhisperPredictor &predictor();

    /** Store epoch the active predictor was built from. */
    uint64_t deployedEpoch() const { return seenEpoch_; }

  private:
    const HintStore &store_;
    WhisperConfig cfg_;
    const TruthTableCache &cache_;
    BaselineFactory baseline_;
    std::unique_ptr<WhisperPredictor> active_;
    uint64_t seenEpoch_ = 0;
};

} // namespace whisper

#endif // WHISPER_SERVICE_HINT_STORE_HH
