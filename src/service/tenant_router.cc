#include "service/tenant_router.hh"

#include <chrono>

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
        bool anyJobs = false;
        for (size_t scanned = 0; scanned < ring_.size(); ++scanned) {
            Entry &e = *ring_[cursor_ % ring_.size()];
            unsigned cap =
                std::max(1u, e.tenant->quota.maxInFlightTrainJobs);
            if (!e.jobs.empty())
                anyJobs = true;
            if (!e.jobs.empty() && e.inFlight < cap) {
                if (!e.charged) {
                    // One quantum per service visit: weight W buys W
                    // unit-cost jobs before the cursor moves on.
                    e.deficit +=
                        std::max(1u, e.tenant->quota.weight);
                    e.charged = true;
                }
                if (e.deficit >= 1.0) {
                    e.deficit -= 1.0;
                    out = std::move(e.jobs.front());
                    e.jobs.pop_front();
                    ++e.inFlight;
                    if (e.deficit < 1.0 || e.jobs.empty()) {
                        // Visit exhausted; an emptied queue forfeits
                        // leftover credit (no hoarding while idle).
                        e.charged = false;
                        if (e.jobs.empty())
                            e.deficit = 0.0;
                        cursor_ = (cursor_ + 1) % ring_.size();
                    }
                    return true;
                }
            } else if (e.jobs.empty()) {
                e.deficit = 0.0;
                e.charged = false;
            }
            // At-cap tenants keep their credit; they are skipped,
            // not punished, until done() frees a slot.
            cursor_ = (cursor_ + 1) % ring_.size();
        }
        if (!anyJobs && closed_)
            return false;
        ready_.wait(lock);
    }
}

void
FairShareScheduler::done(Tenant *tenant)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry *e = entryFor(tenant);
    whisper_assert(e != nullptr && e->inFlight > 0);
    --e->inFlight;
    ready_.notify_all();
}

void
FairShareScheduler::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    ready_.notify_all();
}

size_t
FairShareScheduler::pending() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t n = 0;
    for (const auto &e : ring_)
        n += e->jobs.size();
    return n;
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
    unsigned dispatchers = std::max(1u, cfg_.trainDispatchers);
    dispatchers_.reserve(dispatchers);
    for (unsigned i = 0; i < dispatchers; ++i)
        dispatchers_.emplace_back(
            [this, i] { dispatcherLoop(i); });
}

bool
TenantRouter::offer(TraceChunk chunk)
{
    std::string app = chunk.app;
    size_t records = chunk.records.size();
    ChunkSinkResult outcome = tryOffer(std::move(chunk));
    if (outcome == ChunkSinkResult::Backpressure) {
        registry_.find(app)->withCounters([&](Tenant::Counters &c) {
            ++c.chunksDropped;
            c.recordsDropped += records;
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
    tenant->withCounters([&](Tenant::Counters &c) {
        ++c.chunksRouted;
        c.recordsRouted += records;
    });
    countIngested(records, false);
    return ChunkSinkResult::Accepted;
}

void
TenantRouter::countIngested(size_t records, bool unknownApp)
{
    using clock = std::chrono::steady_clock;
    std::lock_guard<std::mutex> lock(ingestMutex_);
    ++chunksIngested_;
    recordsIngested_ += records;
    unknownAppChunks_ += unknownApp;
    double elapsed =
        std::chrono::duration<double>(clock::now() - ingestStart_)
            .count();
    if (elapsed > 0.0)
        ingestRate_.add(static_cast<double>(recordsIngested_) /
                        elapsed);
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
    for (std::thread &d : dispatchers_)
        d.join();
}

void
TenantRouter::absorberLoop(Tenant &tenant)
{
    TraceChunk chunk;
    while (tenant.queue.pop(chunk))
        absorb(tenant, std::move(chunk));
    // Stream over: flush a final partial epoch over anything not yet
    // trained on (the newest chunk stays held out for validation).
    if (tenant.chunksSinceTrain > 0 && tenant.validationChunk)
        enqueueEpochJob(tenant);
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
            BranchProfile part =
                tenant.profiler.profileChunk(prev.records);
            tenant.accumulated.mergeFrom(part);
            ++tenant.chunksSinceTrain;
        }
    }
    tenant.validationChunk = std::move(chunk);

    if (tenant.chunksSinceTrain >= cfg_.epochChunks)
        enqueueEpochJob(tenant);
}

void
TenantRouter::enqueueEpochJob(Tenant &tenant)
{
    TrainJob job;
    job.tenant = &tenant;
    job.jobIndex = ++tenant.jobsIssued;
    job.profile = tenant.accumulated;
    job.validation = tenant.validationChunk->records;
    job.placement = tenant.placementWindow;
    if (!scheduler_.submit(std::move(job))) {
        // Quota breach: the epoch is skipped, not lost — absorbed
        // chunks stay in the accumulated profile, so the tenant's
        // next job trains on strictly more data.
        tenant.withCounters(
            [](Tenant::Counters &c) { ++c.trainJobsDropped; });
    }
    tenant.chunksSinceTrain = 0;
}

void
TenantRouter::dispatcherLoop(unsigned dispatcherIndex)
{
    (void)dispatcherIndex;
    TrainingPoolOptions opts;
    opts.workers = cfg_.trainWorkers;
    opts.taskDeadlineMs = cfg_.trainTaskDeadlineMs;
    opts.maxAttempts = cfg_.trainMaxAttempts;
    TrainingPool pool(opts);

    TrainJob job;
    while (scheduler_.next(job)) {
        trainEpoch(pool, job);
        scheduler_.done(job.tenant);
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
TenantRouter::trainEpoch(TrainingPool &pool, TrainJob &job)
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

    TrainingStats stats;
    HintBundle candidate;
    candidate.hints =
        pool.train(trainer, job.profile, warmSeeds, &stats);

    HintInjector injector(cfg_.injector);
    auto placeCandidate = [&](HintBundle &bundle) {
        if (job.placement.empty())
            return;
        TraceSource placementSource(job.placement);
        bundle.placements =
            injector.place(placementSource, bundle.hints);
    };
    placeCandidate(candidate);

    PredictorRunStats incumbentStats = evalOnRecords(
        job.validation, incumbent ? &incumbent->bundle : nullptr);
    PredictorRunStats candidateStats =
        evalOnRecords(job.validation, &candidate);

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
        coldCandidate.hints =
            pool.train(trainer, job.profile, nullptr, &coldStats);
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
    }

    double trainSecs =
        std::chrono::duration<double>(clock::now() - t0).count();

    size_t hints = candidate.hints.size();
    bool accepted = tenant.store.propose(
        std::move(candidate), candidateStats.accuracy(),
        incumbentStats.accuracy(), cfg_.acceptMargin);

    const SupervisionStats &sup = pool.supervision();
    double deployedAccuracy = accepted ? candidateStats.accuracy()
                                       : incumbentStats.accuracy();
    tenant.withCounters([&](Tenant::Counters &c) {
        ++c.epochsRun;
        c.trainLatency.add(trainSecs);
        c.hintsPerEpoch.add(static_cast<double>(hints));
        c.warmHits += stats.warmHits;
        c.coldSearches += stats.coldSearches;
        c.warmFallbackEpochs += warmFallback;
        if (stats.branchesConsidered > 0)
            c.branchTrainMs.add(
                1e3 * stats.branchSecondsSum /
                static_cast<double>(stats.branchesConsidered));
        c.lastValidationAccuracy = deployedAccuracy;
        c.tasksRequeued += sup.tasksRequeued;
        c.taskFailures += sup.taskFailures;
        c.branchesDegraded += sup.branchesDegraded;
        c.workersDied += sup.workersDied;
    });
    {
        std::lock_guard<std::mutex> lock(aggMutex_);
        aggTrainLatency_.add(trainSecs);
        aggHintsPerEpoch_.add(static_cast<double>(hints));
        aggDeployedMpkiDelta_.add(
            (accepted ? candidateStats.mpki()
                      : incumbentStats.mpki()) -
            incumbentStats.mpki());
    }

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
        m.ingestRate = ingestRate_;
        m.filesIngested = dirTally_.files;
        m.chunksSkipped = dirTally_.framesSkipped;
        m.recordsSkipped = dirTally_.recordsSkipped;
        m.readRetries = dirTally_.readRetries;
        m.corruptFiles = dirTally_.errors.size();
    }
    m.tenantsRegistered = registry_.size();
    {
        std::lock_guard<std::mutex> lock(aggMutex_);
        m.trainLatency = aggTrainLatency_;
        m.hintsPerEpoch = aggHintsPerEpoch_;
        m.deployedMpkiDelta = aggDeployedMpkiDelta_;
    }
    for (const Tenant *tenant : registry_.all()) {
        TenantMetrics tm = tenant->metrics();
        m.epochsRun += tm.epochsRun;
        m.bundleAcceptance.add(
            tm.bundlesAccepted,
            tm.bundlesAccepted + tm.bundlesRejected);
        m.tasksRequeued += tm.tasksRequeued;
        m.taskFailures += tm.taskFailures;
        m.branchesDegraded += tm.branchesDegraded;
        m.workersDied += tm.workersDied;
        m.warmHits += tm.warmHits;
        m.coldSearches += tm.coldSearches;
        m.warmFallbackEpochs += tm.warmFallbackEpochs;
        if (tm.epochsRun > 0)
            m.branchTrainMs.add(tm.branchTrainMsMean);
        m.journalAppendFailures += tenant->journal.appendFailures();
        m.journalRepairs += tenant->journal.repairs();
        m.journalResumedEpoch = std::max(m.journalResumedEpoch,
                                         tm.journalResumedEpoch);
        m.journalRecoveredRecords += tm.journalRecoveredRecords;
        m.tenants.emplace(tenant->name, std::move(tm));
    }
    return m;
}

} // namespace whisper
