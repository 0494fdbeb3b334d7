/**
 * @file
 * Supervised parallel per-branch formula search for whisperd.
 *
 * Algorithm 1 is embarrassingly parallel across branches: each hard
 * branch's history-length scan and randomized formula testing touch
 * only that branch's sample tables plus the shared read-only truth
 * table cache. The pool distributes the hard-branch list over N
 * worker threads through a shared ready-queue (work stealing:
 * whichever worker finishes first grabs the next branch, so skewed
 * per-branch costs balance automatically) and writes each result
 * into a per-branch slot. The work list and the assembly of the
 * slots are WhisperTrainer's own (workList(), assemble()), and
 * training a branch is deterministic, so the emitted bundle is
 * bit-identical to WhisperTrainer::train() for any worker count.
 *
 * A long-running service also has to survive its own workers. With a
 * task deadline configured, a supervisor thread watches per-task
 * heartbeats (claim timestamps) and requeues any task whose worker
 * stalled or died past the deadline; duplicate completions are
 * harmless because training is deterministic, and only the first
 * finisher's result is kept. A branch whose training throws
 * repeatedly is degraded — dropped from the bundle so the predictor
 * falls back to plain TAGE-SC-L for it — rather than wedging the
 * epoch.
 */

#ifndef WHISPER_SERVICE_TRAINING_POOL_HH
#define WHISPER_SERVICE_TRAINING_POOL_HH

#include <cstdint>
#include <vector>

#include "core/profile.hh"
#include "core/whisper_trainer.hh"

namespace whisper
{

/** Knobs for the pool's supervision layer. */
struct TrainingPoolOptions
{
    unsigned workers = 4;
    /** Milliseconds a claimed task may run before the supervisor
     * requeues it (stuck/dead worker recovery). 0 = no supervisor
     * thread: tasks may run forever, as in the offline tools. */
    uint64_t taskDeadlineMs = 0;
    /** Attempts (initial + retries) before a branch is degraded. */
    unsigned maxAttempts = 3;
    /** Supervisor polling cadence. */
    uint64_t superviseIntervalMs = 20;
};

/** What the supervision layer had to do during one train() call. */
struct SupervisionStats
{
    uint64_t tasksRequeued = 0;    //!< deadline-expired reclaims
    uint64_t taskFailures = 0;     //!< training attempts that threw
    uint64_t branchesDegraded = 0; //!< dropped to TAGE-SC-L fallback
    uint64_t workersDied = 0;      //!< workers that exited early
};

/** Work-stealing, supervised wrapper around WhisperTrainer::trainTask. */
class TrainingPool
{
  public:
    explicit TrainingPool(unsigned workers);
    explicit TrainingPool(const TrainingPoolOptions &options);

    /**
     * Train hints for every hard branch of @p profile — the exact
     * result of trainer.train(profile, warmSeeds, stats), computed
     * on the pool. Branches whose training failed maxAttempts times
     * are omitted (graceful degradation); see supervision() for the
     * tally.
     */
    std::vector<TrainedHint>
    train(const WhisperTrainer &trainer, const BranchProfile &profile,
          const std::vector<TrainedHint> *warmSeeds = nullptr,
          TrainingStats *stats = nullptr) const;

    /** Supervision tally of the most recent train() call. */
    const SupervisionStats &supervision() const { return supervision_; }

    unsigned workers() const { return options_.workers; }
    const TrainingPoolOptions &options() const { return options_; }

  private:
    TrainingPoolOptions options_;
    mutable SupervisionStats supervision_;
};

} // namespace whisper

#endif // WHISPER_SERVICE_TRAINING_POOL_HH
