/**
 * @file
 * Multi-tenant whisperd: route a mixed-fleet chunk stream into
 * per-application pipelines sharing one training capacity.
 *
 * Topology (one TenantRouter per service process):
 *
 *   tryOffer()/offer(), the only way in (chunks tagged with their
 *        app name; called by the wire server's event thread, or by
 *        run() for each chunk of a directory): lookup tenant,
 *        enforce maxQueuedChunks
 *        ▼ (tryPush; full queue = backpressure or drop-and-count,
 *        never block)
 *   per-tenant chunk queue ──▶ per-tenant absorber thread:
 *        ChunkProfiler counting into the tenant's running
 *        profile + validation-window holdout; every epochChunks
 *        boundary snapshots (profile, validation, placement) into
 *        a TrainJob
 *        │ FairShareScheduler::submit (maxPendingTrainJobs quota)
 *        ▼
 *   FairShareScheduler: deficit-round-robin across tenants with
 *        pending jobs, weight W = W jobs per round
 *        │
 *        ▼
 *   one dispatcher thread: trainEpochStep() per job — train on
 *        trainWorkers threads while the incumbent runs the tenant's
 *        held-out window on its own thread, place brhints, validate
 *        the candidate on that window (a warm candidate that loses
 *        retrains cold), propose to the tenant's own versioned
 *        HintStore (journaled per app); the router itself only
 *        records metrics and logs the verdict
 *
 * Isolation: a TrainJob is a pure function of one tenant's chunk
 * sequence, and the one dispatcher runs one job at a time, so each
 * tenant's jobs execute FIFO: every tenant's bundle history is
 * byte-identical to what it gets running alone,
 * no matter what the co-tenants do (the mixed-fleet tests assert
 * exactly this). Fairness: the deficit-round-robin scheduler bounds
 * how far a noisy tenant can push ahead — with equal weights a
 * tenant streaming at 10x the rate still only trains one epoch per
 * scheduler round while others have jobs pending.
 */

#ifndef WHISPER_SERVICE_TENANT_ROUTER_HH
#define WHISPER_SERVICE_TENANT_ROUTER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/formula_trainer.hh"
#include "core/hint_injection.hh"
#include "core/whisper_trainer.hh"
#include "service/tenant_registry.hh"
#include "sim/runner.hh"

namespace whisper
{

/** whisperd's configuration: one of these covers every tenant. */
struct TenantRouterConfig
{
    size_t chunkRecords = 50'000;  //!< ingest chunk granularity
    unsigned epochChunks = 4;      //!< training chunks per epoch
    /** WhisperTrainer::train width: one per hardware thread. */
    unsigned trainWorkers = WhisperTrainer::defaultWorkers();
    unsigned tageBudgetKB = 64;    //!< baseline predictor budget
    double acceptMargin = 0.0;
    ChunkProfiler::Options profilePolicy;
    WhisperConfig whisper;
    HintInjector::Config injector;
    bool verbose = true;

    /** Directory for per-app journals (<app>.journal); "" = none. */
    std::string journalDir;

    /** Sparse-correlation screening (ScreenConfig defaults) before
     * formula search (--train-prune); applies to every tenant. */
    bool trainPrune = true;
    /** Warm-start each tenant epoch from its deployed bundle
     * (--warm-start); a warm candidate regressing vs the incumbent
     * beyond warmFallbackMargin retrains the epoch cold. */
    bool warmStart = true;
    double warmFallbackMargin = 0.0;

    /** Quota applied to tenants registered without an explicit one
     * (including auto-registered tenants). */
    TenantQuota defaultQuota;
    /** Register unknown apps on first chunk instead of dropping. */
    bool autoRegister = false;
};

/** What one trainEpochStep() did. */
struct EpochOutcome
{
    bool accepted = false;       //!< the store deployed the candidate
    PredictorRunStats candidate; //!< candidate on the validation window
    PredictorRunStats incumbent; //!< deployed bundle (or bare TAGE) there
    TrainingStats training;      //!< both searches after a fallback
    size_t hints = 0;            //!< hints in the proposed candidate
    bool warmFallback = false;   //!< warm candidate lost; retrained cold
    double seconds = 0.0;        //!< wall time up to the proposal
};

/**
 * One epoch of whisperd's deployment loop (Fig. 10: train hints,
 * place brhints, ship the bundle), gated on a held-out window.
 * Trains a candidate on @p profile on cfg.trainWorkers threads
 * (screened when cfg.trainPrune, seeded with the deployed bundle's
 * hints when cfg.warmStart) while the incumbent runs @p validation
 * on its own thread; places brhints over @p placement (none when it
 * is empty); runs the candidate on @p validation; retrains cold when
 * a warm candidate trails the incumbent by more than
 * cfg.warmFallbackMargin; and proposes the candidate to @p store with
 * cfg.acceptMargin. Every tenant epoch, bench_whisperd_adapt's
 * retraining and the drift tests' online loop run this function.
 */
EpochOutcome trainEpochStep(const TenantRouterConfig &cfg,
                            const TruthTableCache &cache,
                            const BranchProfile &profile,
                            const std::vector<BranchRecord> &placement,
                            const std::vector<BranchRecord> &validation,
                            HintStore &store);

/**
 * Deficit-round-robin scheduler over per-tenant training-job queues.
 *
 * Each scheduler round visits the tenants in registration order;
 * with unit job cost, a visit serves a tenant with pending jobs up
 * to its weight W, so weight W buys W epochs per round. A visit ends
 * early when the tenant's queue empties: an idle tenant cannot hoard
 * credit and then monopolize the dispatcher.
 * submit() never blocks: a tenant already at
 * maxPendingTrainJobs has the job rejected (drop-and-count at the
 * caller) so a slow training epoch cannot wedge the absorbers.
 */
class FairShareScheduler
{
  public:
    /** Make @p tenant schedulable (idempotent). */
    void add(Tenant *tenant);

    /** Queue @p job for its tenant. @return false when the tenant is
     * at maxPendingTrainJobs (job dropped; caller counts it). */
    bool submit(TrainJob job);

    /** Block for the next job in deficit-round-robin order.
     * @return false once the scheduler is closed and drained. */
    bool next(TrainJob &out);

    /** No further submissions; next() drains what remains. */
    void close();

  private:
    struct Entry
    {
        Tenant *tenant = nullptr;
        std::deque<TrainJob> jobs;
        unsigned served = 0; //!< jobs served in the current visit
    };

    Entry *entryFor(Tenant *tenant);

    std::mutex mutex_;
    std::condition_variable ready_;
    std::vector<std::unique_ptr<Entry>> ring_;
    size_t cursor_ = 0;
    bool closed_ = false;
};

/** The multi-tenant service. */
class TenantRouter
{
  public:
    TenantRouter(const TenantRouterConfig &cfg,
                 const TruthTableCache &cache);
    ~TenantRouter();

    /** Register an app before start(); returns its tenant. */
    Tenant *addTenant(const std::string &name);
    Tenant *addTenant(const std::string &name,
                      const TenantQuota &quota);

    /** Spawn the per-tenant absorbers and the dispatcher. */
    void start();

    /** ChunkSinkResult under the name perfbench/service.cc uses. */
    using OfferOutcome = ChunkSinkResult;

    /**
     * Route one chunk to its tenant (quota-checked, never blocks),
     * registering an unknown app when autoRegister is set; the wire
     * server's sink. A full tenant queue is reported as Backpressure
     * WITHOUT counting the chunk: the wire server answers
     * RETRY_AFTER and the client retransmits, so nothing was lost.
     * Accepted and unknown-app chunks count as ingested.
     */
    ChunkSinkResult tryOffer(TraceChunk chunk);

    /**
     * tryOffer() for a caller that cannot retry: a Backpressure
     * verdict counts the chunk as ingested and dropped by its
     * tenant. @return true iff the chunk was accepted.
     */
    bool offer(TraceChunk chunk);

    /** Stream a directory of .whrt files: start(), offer() every
     * chunkTraceDir() chunk from the calling thread, then finish(). */
    void run(const std::string &chunkDir);

    /**
     * Drain and stop: close tenant queues, join absorbers (each
     * flushes a final partial epoch), drain the scheduler, join the
     * dispatcher. Idempotent; called by the destructor if needed.
     */
    void finish();

    TenantRegistry &registry() { return registry_; }
    const TenantRegistry &registry() const { return registry_; }
    const TenantRouterConfig &config() const { return cfg_; }

    /** Ingest counters + one record per tenant (callable anytime,
     * but consistent only after finish()). */
    ServiceMetrics metrics() const;

  private:
    /** Count one chunk the router decided on (accepted, dropped or
     * refused as an unknown app). */
    void countIngested(size_t records, bool unknownApp);
    void absorberLoop(Tenant &tenant);
    void dispatcherLoop();
    void absorb(Tenant &tenant, TraceChunk chunk);
    void enqueueEpochJob(Tenant &tenant, BranchProfile profile);
    void trainEpoch(TrainJob &job);

    TenantRouterConfig cfg_;
    const TruthTableCache &cache_;
    TenantRegistry registry_;
    FairShareScheduler scheduler_;
    std::thread dispatcher_;
    bool started_ = false;
    bool finished_ = false;

    // Ingest counters: the offer path writes them from whichever
    // thread offers, metrics() reads them.
    mutable std::mutex ingestMutex_;
    uint64_t chunksIngested_ = 0;
    uint64_t recordsIngested_ = 0;
    uint64_t unknownAppChunks_ = 0;
    uint64_t firstChunkRecords_ = 0;
    std::chrono::steady_clock::time_point firstIngest_;
    std::chrono::steady_clock::time_point lastIngest_;
    ChunkTally dirTally_; //!< run()'s directory pass
};

} // namespace whisper

#endif // WHISPER_SERVICE_TENANT_ROUTER_HH
