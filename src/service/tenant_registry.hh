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
 *     -> streaming ChunkProfiler, counting every absorbed chunk
 *        into the tenant's one running BranchProfile
 *     -> epoch train jobs (quota: maxPendingTrainJobs)
 *     -> versioned HintStore, independently deployable,
 *        journaled to its own per-app WAL
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
#include "util/stats.hh"

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
    ChunkProfiler profiler; //!< owns the running profile
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

    /** The samples behind the record's per-epoch mean/max fields. */
    struct EpochSamples
    {
        RunningStat trainLatency; //!< seconds per epoch
        RunningStat hintsPerEpoch;
        RunningStat branchTrainMs; //!< one sample = one epoch's mean
        RunningStat deployedMpkiDelta;
    };

    /** Run @p fn(record, samples) with the tenant's metrics locked
     * (router, absorber, and dispatcher all report here). */
    template <typename Fn>
    void
    withMetrics(Fn &&fn)
    {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        fn(record_, samples_);
    }

    /** Copy of the record with its means and maxima filled in from
     * the samples, plus the store- and journal-derived fields.
     * Callable mid-run. */
    TenantMetrics metrics() const;

  private:
    mutable std::mutex metricsMutex_;
    TenantMetrics record_;
    EpochSamples samples_;
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
