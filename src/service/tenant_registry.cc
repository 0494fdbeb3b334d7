#include "service/tenant_registry.hh"

#include "util/logging.hh"

namespace whisper
{

Tenant::Tenant(std::string name_, const TenantQuota &quota_,
               const WhisperConfig &whisper,
               std::unique_ptr<BranchPredictor> baseline,
               const ChunkProfiler::Options &profileOpt)
    : name(std::move(name_)), quota(quota_),
      queue(std::max<size_t>(1, quota_.maxQueuedChunks)),
      profiler(whisper, std::move(baseline), profileOpt),
      accumulated(whisper)
{
}

void
Tenant::openJournal(const std::string &journalDir)
{
    std::string path = journalDir + "/" + name + ".journal";
    std::vector<VersionedHintBundle> replayed;
    HintJournal::RecoveryInfo recovery;
    IoStatus st = journal.open(path, replayed, &recovery);
    if (!st) {
        whisper_warn("whisperd[", name,
                     "]: journal disabled: ", st.message);
        return;
    }
    size_t kept = store.restore(std::move(replayed));
    store.attachJournal(&journal);
    if (recovery.tailBytesDiscarded > 0) {
        whisper_warn("whisperd[", name, "]: journal had a ",
                     recovery.tail == HintJournal::Tail::Torn
                         ? "torn"
                         : "corrupt",
                     " tail (", recovery.tailBytesDiscarded,
                     " bytes discarded, file compacted)");
    }
    withCounters([&](Counters &c) {
        c.journalResumedEpoch = store.epoch();
        c.journalRecoveredRecords = kept;
    });
}

TenantMetrics
Tenant::metrics() const
{
    TenantMetrics m;
    {
        std::lock_guard<std::mutex> lock(countersMutex_);
        m.chunksRouted = counters_.chunksRouted;
        m.recordsRouted = counters_.recordsRouted;
        m.chunksDropped = counters_.chunksDropped;
        m.recordsDropped = counters_.recordsDropped;
        m.trainJobsDropped = counters_.trainJobsDropped;
        m.epochsRun = counters_.epochsRun;
        m.trainLatencyMean = counters_.trainLatency.mean();
        m.trainLatencyMax = counters_.trainLatency.max();
        m.hintsPerEpochMean = counters_.hintsPerEpoch.mean();
        m.warmHits = counters_.warmHits;
        m.coldSearches = counters_.coldSearches;
        m.warmFallbackEpochs = counters_.warmFallbackEpochs;
        m.branchTrainMsMean = counters_.branchTrainMs.mean();
        m.branchTrainMsMax = counters_.branchTrainMs.max();
        m.lastValidationAccuracy = counters_.lastValidationAccuracy;
        m.journalResumedEpoch = counters_.journalResumedEpoch;
        m.journalRecoveredRecords = counters_.journalRecoveredRecords;
        m.tasksRequeued = counters_.tasksRequeued;
        m.taskFailures = counters_.taskFailures;
        m.branchesDegraded = counters_.branchesDegraded;
        m.workersDied = counters_.workersDied;
    }
    m.bundlesAccepted = store.accepted();
    m.bundlesRejected = store.rejected();
    m.rollbacks = store.rollbacks();
    m.deployedEpoch = store.epoch();
    if (HintStore::Snapshot snap = store.current())
        m.hintsDeployed = snap->bundle.hints.size();
    return m;
}

Tenant *
TenantRegistry::add(const std::string &name, const TenantQuota &quota,
                    const WhisperConfig &whisper,
                    std::unique_ptr<BranchPredictor> baseline,
                    const ChunkProfiler::Options &profileOpt,
                    const std::string &journalDir)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &t : tenants_)
        if (t->name == name)
            whisper_fatal("duplicate tenant '", name, "'");
    tenants_.push_back(std::make_unique<Tenant>(
        name, quota, whisper, std::move(baseline), profileOpt));
    Tenant *tenant = tenants_.back().get();
    if (!journalDir.empty())
        tenant->openJournal(journalDir);
    return tenant;
}

Tenant *
TenantRegistry::find(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &t : tenants_)
        if (t->name == name)
            return t.get();
    return nullptr;
}

const Tenant *
TenantRegistry::find(const std::string &name) const
{
    return const_cast<TenantRegistry *>(this)->find(name);
}

std::vector<Tenant *>
TenantRegistry::all()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Tenant *> out;
    out.reserve(tenants_.size());
    for (const auto &t : tenants_)
        out.push_back(t.get());
    return out;
}

std::vector<const Tenant *>
TenantRegistry::all() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<const Tenant *> out;
    out.reserve(tenants_.size());
    for (const auto &t : tenants_)
        out.push_back(t.get());
    return out;
}

size_t
TenantRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tenants_.size();
}

} // namespace whisper
