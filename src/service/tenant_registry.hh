/**
 * @file
 * Per-application tenant state for the multi-tenant whisperd.
 *
 * The paper's deployment unit is one application: profiles, trained
 * formulas, and hint bundles are all keyed to a single binary, and
 * hints only generalize across inputs of the *same* app
 * (Figs. 17/18). A fleet-scale service therefore cannot funnel every
 * ingested chunk into one profile/bundle stream — correlation
 * structure is app-specific, so mixing tenants would corrupt every
 * profile involved. Each Tenant here is a full per-app pipeline:
 *
 *   bounded chunk queue (quota: maxQueuedChunks, drop-and-count)
 *     -> streaming ChunkProfiler + accumulated BranchProfile
 *     -> epoch train jobs (quota: maxPendingTrainJobs)
 *     -> versioned HintStore, independently deployable
 *        and rollback-able, journaled to its own per-app WAL
 *
 * The TenantRegistry owns the tenants, opens each tenant's journal
 * (journalDir/<app>.journal) at registration, and hands out stable
 * pointers — a Tenant never moves or disappears while the service
 * runs, which is what lets the router and scheduler keep raw
 * pointers without reference counting.
 */

#ifndef WHISPER_SERVICE_TENANT_REGISTRY_HH
#define WHISPER_SERVICE_TENANT_REGISTRY_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/profile.hh"
#include "service/bounded_queue.hh"
#include "service/chunk_profiler.hh"
#include "service/hint_journal.hh"
#include "service/hint_store.hh"
#include "service/service_metrics.hh"
#include "service/trace_stream.hh"

namespace whisper
{

/** Per-tenant resource limits and scheduling weight. */
struct TenantQuota
{
    /** Chunks buffered between the router and this tenant's
     * absorber; a full queue refuses the chunk (RETRY_AFTER on the
     * wire, a counted drop from a directory) instead of letting one
     * tenant's backlog block the shared offer path. */
    size_t maxQueuedChunks = 16;
    /** Training epochs queued in the fair-share scheduler; a breach
     * drops the job (the absorbed chunks stay in the profile, so the
     * next epoch trains on strictly more data — nothing is lost, the
     * tenant just trains less often under pressure). */
    size_t maxPendingTrainJobs = 4;
    /** Concurrent training jobs for this tenant. Keep at 1 for
     * deterministic per-tenant epoch ordering (the isolation
     * guarantee relies on per-tenant FIFO execution). */
    unsigned maxInFlightTrainJobs = 1;
    /** Deficit-round-robin weight: a tenant with weight W is served
     * W epoch jobs per scheduler round. */
    unsigned weight = 1;
};

/** One snapshot-able training epoch for a tenant: a pure function of
 * its inputs, so the dispatcher may run jobs from different tenants
 * in any interleaving without breaking per-tenant determinism. */
struct TrainJob
{
    class Tenant *tenant = nullptr;
    uint64_t jobIndex = 0; //!< per-tenant monotonic sequence
    BranchProfile profile; //!< accumulated profile at the boundary
    std::vector<BranchRecord> validation; //!< held-out newest chunk
    std::vector<BranchRecord> placement;  //!< brhint placement window
};

/** Full per-application pipeline state. */
class Tenant
{
  public:
    Tenant(std::string name, const TenantQuota &quota,
           const WhisperConfig &whisper,
           std::unique_ptr<BranchPredictor> baseline,
           const ChunkProfiler::Options &profileOpt);

    const std::string name;
    TenantQuota quota;

    /** Router -> absorber handoff (capacity = maxQueuedChunks). */
    BoundedQueue<TraceChunk> queue;

    // -- absorber-thread state (only the tenant's worker touches
    //    these after start) --
    ChunkProfiler profiler;
    BranchProfile accumulated;
    std::optional<TraceChunk> validationChunk;
    std::vector<BranchRecord> placementWindow;
    unsigned chunksSinceTrain = 0;
    uint64_t jobsIssued = 0;
    std::thread worker;

    // -- deployment (store is internally thread-safe; the journal is
    //    only written through the store) --
    HintStore store;
    HintJournal journal;

    /** Open journalDir/<name>.journal, replay it into the store, and
     * journal every later deployment. Safe to skip (no journalDir =
     * no durability). */
    void openJournal(const std::string &journalDir);

    /** Mutable operational counters, guarded by their own mutex
     * (router, absorber, and dispatcher all report here). */
    struct Counters
    {
        uint64_t chunksRouted = 0;
        uint64_t recordsRouted = 0;
        uint64_t chunksDropped = 0;  //!< maxQueuedChunks breaches
        uint64_t recordsDropped = 0;
        uint64_t trainJobsDropped = 0; //!< maxPendingTrainJobs breaches
        uint64_t epochsRun = 0;
        RunningStat trainLatency;
        RunningStat hintsPerEpoch;
        uint64_t warmHits = 0;
        uint64_t coldSearches = 0;
        uint64_t warmFallbackEpochs = 0;
        RunningStat branchTrainMs;
        double lastValidationAccuracy = 0.0;
        uint64_t journalResumedEpoch = 0;
        uint64_t journalRecoveredRecords = 0;
        uint64_t tasksRequeued = 0;
        uint64_t taskFailures = 0;
        uint64_t branchesDegraded = 0;
        uint64_t workersDied = 0;
    };

    /** Run @p fn with the counters locked. */
    template <typename Fn>
    void
    withCounters(Fn &&fn)
    {
        std::lock_guard<std::mutex> lock(countersMutex_);
        fn(counters_);
    }

    /** Copy of the counters plus store-derived deployment state. */
    TenantMetrics metrics() const;

  private:
    mutable std::mutex countersMutex_;
    Counters counters_;
};

/** Owner of all tenants; registration order is iteration order. */
class TenantRegistry
{
  public:
    /** Create and register a tenant; fatal on duplicate names.
     * @return stable pointer, valid for the registry's lifetime. */
    Tenant *add(const std::string &name, const TenantQuota &quota,
                const WhisperConfig &whisper,
                std::unique_ptr<BranchPredictor> baseline,
                const ChunkProfiler::Options &profileOpt,
                const std::string &journalDir = "");

    /** @return the tenant named @p name, or nullptr. */
    Tenant *find(const std::string &name);
    const Tenant *find(const std::string &name) const;

    /** All tenants in registration order. */
    std::vector<Tenant *> all();
    std::vector<const Tenant *> all() const;

    size_t size() const;

  private:
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Tenant>> tenants_;
};

} // namespace whisper

#endif // WHISPER_SERVICE_TENANT_REGISTRY_HH
