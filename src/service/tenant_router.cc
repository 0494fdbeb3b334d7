#include "service/tenant_router.hh"

#include <chrono>
#include <future>

#include "core/whisper_trainer.hh"
#include "sim/experiment.hh"
#include "trace/branch_trace.hh"
#include "util/logging.hh"

namespace whisper
{

// --------------------------------------------------------------------
// FairShareScheduler
// --------------------------------------------------------------------

FairShareScheduler::Entry *
FairShareScheduler::entryFor(Tenant *tenant)
{
    for (auto &e : ring_)
        if (e->tenant == tenant)
            return e.get();
    return nullptr;
}

void
FairShareScheduler::add(Tenant *tenant)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (entryFor(tenant))
        return;
    auto entry = std::make_unique<Entry>();
    entry->tenant = tenant;
    ring_.push_back(std::move(entry));
}

bool
FairShareScheduler::submit(TrainJob job)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry *e = entryFor(job.tenant);
    whisper_assert(e != nullptr,
                   "tenant submitted before scheduler add()");
    if (closed_)
        return false;
    size_t cap = std::max<size_t>(1, job.tenant->quota.maxPendingTrainJobs);
    if (e->jobs.size() >= cap)
        return false;
    e->jobs.push_back(std::move(job));
    ready_.notify_one();
    return true;
}

bool
FairShareScheduler::next(TrainJob &out)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        for (size_t scanned = 0; scanned < ring_.size(); ++scanned) {
            Entry &e = *ring_[cursor_];
            if (e.jobs.empty()) {
                cursor_ = (cursor_ + 1) % ring_.size();
                continue;
            }
            out = std::move(e.jobs.front());
            e.jobs.pop_front();
            if (++e.served >= std::max(1u, e.tenant->quota.weight) ||
                e.jobs.empty()) {
                e.served = 0;
                cursor_ = (cursor_ + 1) % ring_.size();
            }
            return true;
        }
        if (closed_)
            return false;
        ready_.wait(lock);
    }
}

void
FairShareScheduler::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    ready_.notify_all();
}

// --------------------------------------------------------------------
// TenantRouter
// --------------------------------------------------------------------

TenantRouter::TenantRouter(const TenantRouterConfig &cfg,
                           const TruthTableCache &cache)
    : cfg_(cfg), cache_(cache)
{
}

TenantRouter::~TenantRouter()
{
    finish();
}

Tenant *
TenantRouter::addTenant(const std::string &name)
{
    return addTenant(name, cfg_.defaultQuota);
}

Tenant *
TenantRouter::addTenant(const std::string &name,
                        const TenantQuota &quota)
{
    Tenant *tenant = registry_.add(
        name, quota, cfg_.whisper, makeTage(cfg_.tageBudgetKB),
        cfg_.profilePolicy, cfg_.journalDir);
    scheduler_.add(tenant);
    if (started_)
        tenant->worker =
            std::thread([this, tenant] { absorberLoop(*tenant); });
    return tenant;
}

void
TenantRouter::start()
{
    whisper_assert(!started_ && !finished_);
    started_ = true;
    for (Tenant *tenant : registry_.all())
        tenant->worker =
            std::thread([this, tenant] { absorberLoop(*tenant); });
    dispatcher_ = std::thread([this] { dispatcherLoop(); });
}

bool
TenantRouter::offer(TraceChunk chunk)
{
    std::string app = chunk.app;
    size_t records = chunk.records.size();
    ChunkSinkResult outcome = tryOffer(std::move(chunk));
    if (outcome == ChunkSinkResult::Backpressure) {
        registry_.find(app)->withMetrics([&](TenantMetrics &m, auto &) {
            ++m.chunksDropped;
            m.recordsDropped += records;
        });
        countIngested(records, false);
    }
    return outcome == ChunkSinkResult::Accepted;
}

ChunkSinkResult
TenantRouter::tryOffer(TraceChunk chunk)
{
    size_t records = chunk.records.size();
    Tenant *tenant = registry_.find(chunk.app);
    if (!tenant && cfg_.autoRegister)
        tenant = addTenant(chunk.app);
    if (!tenant) {
        countIngested(records, true);
        return ChunkSinkResult::UnknownApp;
    }
    if (!tenant->queue.tryPush(std::move(chunk))) {
        // Not a drop: the caller reports backpressure and the client
        // retransmits, so no counter moves here.
        return ChunkSinkResult::Backpressure;
    }
    tenant->withMetrics([&](TenantMetrics &m, auto &) {
        ++m.chunksRouted;
        m.recordsRouted += records;
    });
    countIngested(records, false);
    return ChunkSinkResult::Accepted;
}

void
TenantRouter::countIngested(size_t records, bool unknownApp)
{
    auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(ingestMutex_);
    if (chunksIngested_ == 0) {
        firstIngest_ = now;
        firstChunkRecords_ = records;
    }
    lastIngest_ = now;
    ++chunksIngested_;
    recordsIngested_ += records;
    unknownAppChunks_ += unknownApp;
}

void
TenantRouter::run(const std::string &chunkDir)
{
    if (!started_)
        start();
    ChunkTally tally = chunkTraceDir(
        chunkDir, cfg_.chunkRecords,
        [this](TraceChunk chunk) { offer(std::move(chunk)); });
    finish();
    for (const std::string &bad : tally.errors)
        whisper_warn("whisperd: could not ingest ", bad);
    std::lock_guard<std::mutex> lock(ingestMutex_);
    dirTally_ = std::move(tally);
}

void
TenantRouter::finish()
{
    if (finished_)
        return;
    finished_ = true;
    for (Tenant *tenant : registry_.all())
        tenant->queue.close();
    if (!started_)
        return;
    for (Tenant *tenant : registry_.all())
        if (tenant->worker.joinable())
            tenant->worker.join();
    scheduler_.close();
    dispatcher_.join();
}

void
TenantRouter::absorberLoop(Tenant &tenant)
{
    TraceChunk chunk;
    while (tenant.queue.pop(chunk))
        absorb(tenant, std::move(chunk));
    // Stream over: flush a final partial epoch over anything not yet
    // trained on (the newest chunk stays held out for validation).
    // Nothing profiles after this, so the profile moves into the job.
    if (tenant.chunksSinceTrain > 0 && tenant.validationChunk)
        enqueueEpochJob(tenant, std::move(tenant.profiler).takeProfile());
}

void
TenantRouter::absorb(Tenant &tenant, TraceChunk chunk)
{
    // The previous validation window becomes training data now that
    // a newer one exists to validate on. A chunk can arrive empty
    // when every frame of its file slice failed validation; it is
    // never folded in.
    if (tenant.validationChunk) {
        TraceChunk prev = std::move(*tenant.validationChunk);
        tenant.validationChunk.reset();
        if (!prev.records.empty()) {
            tenant.placementWindow = prev.records;
            tenant.profiler.profileChunk(prev.records);
            ++tenant.chunksSinceTrain;
        }
    }
    tenant.validationChunk = std::move(chunk);

    if (tenant.chunksSinceTrain >= cfg_.epochChunks)
        enqueueEpochJob(tenant, tenant.profiler.profile());
}

void
TenantRouter::enqueueEpochJob(Tenant &tenant, BranchProfile profile)
{
    TrainJob job;
    job.tenant = &tenant;
    job.jobIndex = ++tenant.jobsIssued;
    job.profile = std::move(profile);
    job.validation = tenant.validationChunk->records;
    job.placement = tenant.placementWindow;
    if (!scheduler_.submit(std::move(job))) {
        // Quota breach: the epoch is skipped, not lost — absorbed
        // chunks stay in the running profile, so the tenant's
        // next job trains on strictly more data.
        tenant.withMetrics(
            [](TenantMetrics &m, auto &) { ++m.trainJobsDropped; });
    }
    tenant.chunksSinceTrain = 0;
}

void
TenantRouter::dispatcherLoop()
{
    TrainJob job;
    while (scheduler_.next(job)) {
        trainEpoch(job);
        // Release the snapshot before blocking for the next job.
        job.profile = BranchProfile(cfg_.whisper);
        job.validation.clear();
        job.placement.clear();
    }
}

PredictorRunStats
TenantRouter::evalOnRecords(const std::vector<BranchRecord> &records,
                            const HintBundle *bundle) const
{
    TraceSource source(records);
    auto predictor = makeBundlePredictor(cfg_.tageBudgetKB, cfg_.whisper,
                                         cache_, bundle);
    return runPredictor(source, *predictor);
}

void
TenantRouter::trainEpoch(TrainJob &job)
{
    Tenant &tenant = *job.tenant;
    using clock = std::chrono::steady_clock;
    auto t0 = clock::now();

    WhisperTrainer trainer(cfg_.whisper, cache_);
    if (cfg_.trainPrune) {
        ScreenConfig screen = cfg_.screen;
        screen.enabled = true;
        trainer.setScreen(screen);
    }

    HintStore::Snapshot incumbent = tenant.store.current();
    const std::vector<TrainedHint> *warmSeeds =
        cfg_.warmStart && incumbent ? &incumbent->bundle.hints
                                    : nullptr;
    // The incumbent's holdout run depends only on the validation
    // window and the deployed snapshot, so it runs beside training.
    auto incumbentRun = std::async(std::launch::async, [&] {
        return evalOnRecords(job.validation,
                             incumbent ? &incumbent->bundle : nullptr);
    });

    TrainingStats stats;
    HintBundle candidate;
    candidate.hints = trainer.train(job.profile, warmSeeds, &stats,
                                    cfg_.trainWorkers);

    HintInjector injector(cfg_.injector);
    auto placeCandidate = [&](HintBundle &bundle) {
        if (job.placement.empty())
            return;
        TraceSource placementSource(job.placement);
        bundle.placements =
            injector.place(placementSource, bundle.hints);
    };
    placeCandidate(candidate);

    PredictorRunStats candidateStats =
        evalOnRecords(job.validation, &candidate);
    PredictorRunStats incumbentStats = incumbentRun.get();

    // Warm-start safety valve: a warm candidate that is worse than
    // the incumbent on the holdout (not merely short of beating it)
    // means stale formulas pinned the search, so this epoch is
    // retrained cold.
    uint64_t warmFallback = 0;
    if (warmSeeds && stats.warmHits > 0 &&
        candidateStats.accuracy() + cfg_.warmFallbackMargin <
            incumbentStats.accuracy()) {
        warmFallback = 1;
        TrainingStats coldStats;
        HintBundle coldCandidate;
        coldCandidate.hints = trainer.train(job.profile, nullptr,
                                            &coldStats, cfg_.trainWorkers);
        placeCandidate(coldCandidate);
        candidate = std::move(coldCandidate);
        candidateStats = evalOnRecords(job.validation, &candidate);
        stats.formulasScored += coldStats.formulasScored;
        stats.branchSecondsSum += coldStats.branchSecondsSum;
        stats.branchSecondsMax = std::max(stats.branchSecondsMax,
                                          coldStats.branchSecondsMax);
        stats.warmHits = 0;
        stats.coldSearches = coldStats.coldSearches;
        stats.hintsEmitted = coldStats.hintsEmitted;
        stats.branchesDegraded += coldStats.branchesDegraded;
    }

    double trainSecs =
        std::chrono::duration<double>(clock::now() - t0).count();

    size_t hints = candidate.hints.size();
    bool accepted = tenant.store.propose(
        std::move(candidate), candidateStats.accuracy(),
        incumbentStats.accuracy(), cfg_.acceptMargin);

    double deployedAccuracy = accepted ? candidateStats.accuracy()
                                       : incumbentStats.accuracy();
    tenant.withMetrics([&](TenantMetrics &m, Tenant::EpochSamples &s) {
        ++m.epochsRun;
        s.trainLatency.add(trainSecs);
        s.hintsPerEpoch.add(static_cast<double>(hints));
        s.deployedMpkiDelta.add(
            accepted ? candidateStats.mpki() - incumbentStats.mpki()
                     : 0.0);
        m.warmHits += stats.warmHits;
        m.coldSearches += stats.coldSearches;
        m.warmFallbackEpochs += warmFallback;
        if (stats.branchesConsidered > 0)
            s.branchTrainMs.add(
                1e3 * stats.branchSecondsSum /
                static_cast<double>(stats.branchesConsidered));
        m.lastValidationAccuracy = deployedAccuracy;
        m.branchesDegraded += stats.branchesDegraded;
    });

    if (cfg_.verbose) {
        whisper_inform(
            "whisperd[", tenant.name, "] epoch ", job.jobIndex, ": ",
            hints, " hints in ",
            TableReporter::formatDouble(trainSecs, 2), "s — "
            "candidate acc ",
            TableReporter::formatDouble(
                100.0 * candidateStats.accuracy(), 4),
            "% vs incumbent ",
            TableReporter::formatDouble(
                100.0 * incumbentStats.accuracy(), 4),
            "% -> ",
            accepted ? "ACCEPTED (deployed epoch "
                     : "REJECTED (deployed epoch ",
            tenant.store.epoch(), ")");
    }
}

ServiceMetrics
TenantRouter::metrics() const
{
    ServiceMetrics m;
    {
        std::lock_guard<std::mutex> lock(ingestMutex_);
        m.chunksIngested = chunksIngested_;
        m.recordsIngested = recordsIngested_;
        m.unknownAppChunks = unknownAppChunks_;
        double span =
            std::chrono::duration<double>(lastIngest_ - firstIngest_)
                .count();
        if (span > 0.0)
            m.ingestRate =
                static_cast<double>(recordsIngested_ -
                                    firstChunkRecords_) /
                span;
        m.filesIngested = dirTally_.files;
        m.chunksSkipped = dirTally_.framesSkipped;
        m.recordsSkipped = dirTally_.recordsSkipped;
        m.readRetries = dirTally_.readRetries;
        m.corruptFiles = dirTally_.errors.size();
    }
    m.tenantsRegistered = registry_.size();
    for (const Tenant *tenant : registry_.all())
        m.tenants.emplace(tenant->name, tenant->metrics());
    return m;
}

} // namespace whisper
