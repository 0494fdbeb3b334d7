/**
 * @file
 * Tests for the multi-tenant whisperd subsystem: chunk routing,
 * per-tenant quota enforcement (drop-and-count, no deadlock),
 * deficit-round-robin fair-share scheduling, the per-app isolation
 * guarantee (fleet bundles byte-identical to solo bundles), per-app
 * journal resume, fault-injection behavior, the ingest rate, and the
 * zero-filled per-tenant metrics dump with its ALL roll-up.
 * Registered under the `tenant.` ctest prefix; the CI fleet-smoke
 * job runs them under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/whisper_io.hh"
#include "service/tenant_registry.hh"
#include "service/tenant_router.hh"
#include "sim/experiment.hh"
#include "util/fault_injection.hh"
#include "workloads/app_workload.hh"

using namespace whisper;

namespace
{

std::vector<BranchRecord>
appRecords(const std::string &app, uint32_t input, uint64_t count)
{
    AppWorkload workload(appByName(app), input, count);
    std::vector<BranchRecord> records;
    records.reserve(count);
    BranchRecord rec;
    while (workload.next(rec))
        records.push_back(rec);
    return records;
}

/** Cut one app's stream into service chunks tagged with its name. */
std::vector<TraceChunk>
appChunks(const std::string &app, uint64_t perChunk, unsigned chunks)
{
    std::vector<BranchRecord> records =
        appRecords(app, 0, perChunk * chunks);
    std::vector<TraceChunk> out;
    for (unsigned i = 0; i < chunks; ++i) {
        TraceChunk chunk;
        chunk.app = app;
        chunk.records.assign(records.begin() + i * perChunk,
                             records.begin() + (i + 1) * perChunk);
        out.push_back(std::move(chunk));
    }
    return out;
}

TenantRouterConfig
smallConfig()
{
    TenantRouterConfig cfg;
    cfg.epochChunks = 2;
    cfg.trainWorkers = 2;
    cfg.tageBudgetKB = 16;
    cfg.profilePolicy.maxHardBranches = 48;
    cfg.verbose = false;
    return cfg;
}

/** Final deployed bundle bytes + epoch count per app after running
 * the given per-app chunk sequences through one router (arrivals
 * interleaved round-robin across apps, preserving per-app order). */
struct FleetResult
{
    std::map<std::string, std::vector<unsigned char>> bundleBytes;
    std::map<std::string, uint64_t> deployedEpoch;
    std::map<std::string, uint64_t> epochsRun;
};

FleetResult
runFleet(const TenantRouterConfig &cfg,
         const std::map<std::string, std::vector<TraceChunk>> &streams)
{
    TenantRouter router(cfg, globalTruthTables());
    for (const auto &[app, chunks] : streams)
        router.addTenant(app);
    router.start();
    size_t maxLen = 0;
    for (const auto &[app, chunks] : streams)
        maxLen = std::max(maxLen, chunks.size());
    for (size_t i = 0; i < maxLen; ++i) {
        for (const auto &[app, chunks] : streams) {
            if (i < chunks.size()) {
                TraceChunk copy = chunks[i];
                EXPECT_TRUE(router.offer(std::move(copy)))
                    << app << " chunk " << i << " dropped";
            }
        }
    }
    router.finish();

    FleetResult result;
    for (const Tenant *tenant : router.registry().all()) {
        if (HintStore::Snapshot snap = tenant->store.current())
            result.bundleBytes[tenant->name] =
                encodeVersionedBundle(*snap);
        result.deployedEpoch[tenant->name] = tenant->store.epoch();
        result.epochsRun[tenant->name] =
            tenant->metrics().epochsRun;
    }
    return result;
}

class TenantFaults : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }
};

} // namespace

// --------------------------------------------------------------------
// FairShareScheduler (deficit round robin)
// --------------------------------------------------------------------

namespace
{

/** Bare tenant for scheduler-only tests. */
std::unique_ptr<Tenant>
bareTenant(const std::string &name, const TenantQuota &quota)
{
    return std::make_unique<Tenant>(name, quota, WhisperConfig{},
                                    makeTage(16),
                                    ChunkProfiler::Options{});
}

TrainJob
jobFor(Tenant *tenant, uint64_t index)
{
    TrainJob job;
    job.tenant = tenant;
    job.jobIndex = index;
    return job;
}

} // namespace

TEST(FairShare, EqualWeightsInterleaveTenants)
{
    TenantQuota quota;
    quota.maxPendingTrainJobs = 100;
    auto a = bareTenant("a", quota);
    auto b = bareTenant("b", quota);

    FairShareScheduler sched;
    sched.add(a.get());
    sched.add(b.get());
    for (uint64_t i = 0; i < 8; ++i)
        ASSERT_TRUE(sched.submit(jobFor(a.get(), i)));
    for (uint64_t i = 0; i < 2; ++i)
        ASSERT_TRUE(sched.submit(jobFor(b.get(), i)));
    sched.close();

    // A noisy tenant with 4x the jobs still alternates with the
    // quiet one until the quiet one drains: b's 2 jobs are served
    // within the first 4 slots, not after a's 8.
    std::vector<std::string> order;
    TrainJob job;
    while (sched.next(job))
        order.push_back(job.tenant->name);
    ASSERT_EQ(order.size(), 10u);
    std::vector<std::string> head(order.begin(), order.begin() + 4);
    EXPECT_EQ(head,
              (std::vector<std::string>{"a", "b", "a", "b"}));
    for (size_t i = 4; i < order.size(); ++i)
        EXPECT_EQ(order[i], "a");
}

TEST(FairShare, WeightsBuyProportionalService)
{
    TenantQuota heavy;
    heavy.weight = 3;
    heavy.maxPendingTrainJobs = 100;
    TenantQuota light;
    light.weight = 1;
    light.maxPendingTrainJobs = 100;
    auto a = bareTenant("heavy", heavy);
    auto b = bareTenant("light", light);

    FairShareScheduler sched;
    sched.add(a.get());
    sched.add(b.get());
    for (uint64_t i = 0; i < 6; ++i)
        ASSERT_TRUE(sched.submit(jobFor(a.get(), i)));
    for (uint64_t i = 0; i < 2; ++i)
        ASSERT_TRUE(sched.submit(jobFor(b.get(), i)));
    sched.close();

    std::vector<std::string> order;
    TrainJob job;
    while (sched.next(job))
        order.push_back(job.tenant->name);
    // Weight 3 serves three jobs per round to the light tenant's one.
    EXPECT_EQ(order, (std::vector<std::string>{
                         "heavy", "heavy", "heavy", "light",
                         "heavy", "heavy", "heavy", "light"}));
}

TEST(FairShare, PendingQuotaRejectsExcessJobs)
{
    TenantQuota quota;
    quota.maxPendingTrainJobs = 2;
    auto a = bareTenant("a", quota);

    FairShareScheduler sched;
    sched.add(a.get());
    EXPECT_TRUE(sched.submit(jobFor(a.get(), 0)));
    EXPECT_TRUE(sched.submit(jobFor(a.get(), 1)));
    EXPECT_FALSE(sched.submit(jobFor(a.get(), 2)));

    // Draining one pending job frees a slot; the rejected job was
    // never queued.
    TrainJob job;
    ASSERT_TRUE(sched.next(job));
    EXPECT_EQ(job.jobIndex, 0u);
    EXPECT_TRUE(sched.submit(jobFor(a.get(), 3)));
    sched.close();
    std::vector<uint64_t> rest;
    while (sched.next(job))
        rest.push_back(job.jobIndex);
    EXPECT_EQ(rest, (std::vector<uint64_t>{1, 3}));
}

// --------------------------------------------------------------------
// Routing and quotas
// --------------------------------------------------------------------

TEST(TenantRouting, ChunksReachTheirTenantOnly)
{
    TenantRouterConfig cfg = smallConfig();
    TenantRouter router(cfg, globalTruthTables());
    router.addTenant("kafka");
    router.addTenant("mysql");

    auto kafka = appChunks("kafka", 1000, 3);
    auto mysql = appChunks("mysql", 1000, 2);
    for (auto &c : kafka)
        EXPECT_TRUE(router.offer(std::move(c)));
    for (auto &c : mysql)
        EXPECT_TRUE(router.offer(std::move(c)));

    TraceChunk unknown;
    unknown.app = "not-a-registered-app";
    unknown.records = appRecords("kafka", 0, 100);
    EXPECT_FALSE(router.offer(std::move(unknown)));

    router.start();
    router.finish();
    ServiceMetrics m = router.metrics();
    EXPECT_EQ(m.tenantsRegistered, 2u);
    EXPECT_EQ(m.unknownAppChunks, 1u);
    EXPECT_EQ(m.tenants.at("kafka").chunksRouted, 3u);
    EXPECT_EQ(m.tenants.at("kafka").recordsRouted, 3000u);
    EXPECT_EQ(m.tenants.at("mysql").chunksRouted, 2u);
    EXPECT_EQ(m.tenants.at("kafka").chunksDropped, 0u);
}

TEST(TenantRouting, AutoRegisterCreatesTenantsOnFirstChunk)
{
    TenantRouterConfig cfg = smallConfig();
    cfg.autoRegister = true;
    TenantRouter router(cfg, globalTruthTables());
    auto chunks = appChunks("drupal", 1000, 2);
    for (auto &c : chunks)
        EXPECT_TRUE(router.offer(std::move(c)));
    EXPECT_NE(router.registry().find("drupal"), nullptr);
    router.start();
    router.finish();
    EXPECT_EQ(router.metrics().tenants.at("drupal").chunksRouted,
              2u);
}

TEST(TenantRouting, QueueQuotaDropsAndCountsWithoutBlocking)
{
    TenantRouterConfig cfg = smallConfig();
    TenantQuota quota;
    quota.maxQueuedChunks = 2;
    TenantRouter router(cfg, globalTruthTables());
    router.addTenant("kafka", quota);

    // The absorber is not running yet, so the queue cannot drain:
    // exactly maxQueuedChunks chunks fit, the rest must be dropped
    // and counted without ever blocking the router.
    auto chunks = appChunks("kafka", 500, 5);
    unsigned accepted = 0;
    for (auto &c : chunks)
        accepted += router.offer(std::move(c)) ? 1 : 0;
    EXPECT_EQ(accepted, 2u);

    // Starting and finishing drains the accepted chunks: no
    // deadlock, and the tallies survive.
    router.start();
    router.finish();
    ServiceMetrics m = router.metrics();
    EXPECT_EQ(m.tenants.at("kafka").chunksRouted, 2u);
    EXPECT_EQ(m.tenants.at("kafka").chunksDropped, 3u);
    EXPECT_EQ(m.tenants.at("kafka").recordsDropped, 1500u);
}

TEST(TenantRouting, TrainJobQuotaDropsAndCounts)
{
    TenantRouterConfig cfg = smallConfig();
    cfg.epochChunks = 1; // every absorbed chunk is an epoch boundary
    TenantQuota quota;
    quota.maxQueuedChunks = 64;
    quota.maxPendingTrainJobs = 1;
    TenantRouter router(cfg, globalTruthTables());
    router.addTenant("kafka", quota);

    // Queue many epoch-sized chunks before starting: the absorber
    // will emit train jobs far faster than one dispatcher can drain
    // them, so the pending-job quota must trip at least once.
    auto chunks = appChunks("kafka", 2000, 12);
    for (auto &c : chunks)
        ASSERT_TRUE(router.offer(std::move(c)));
    router.start();
    router.finish();

    ServiceMetrics m = router.metrics();
    const TenantMetrics &tm = m.tenants.at("kafka");
    EXPECT_GE(tm.trainJobsDropped, 1u);
    EXPECT_GE(tm.epochsRun, 1u);
    // Dropped jobs skip training, never lose data: every epoch that
    // did run trained on the full accumulated profile.
    EXPECT_EQ(tm.chunksDropped, 0u);
}

TEST(TenantRouting, IngestRateCountsIngestTimeNotIdleTime)
{
    auto chunks = appChunks("kafka", 1000, 4);
    TenantRouter router(smallConfig(), globalTruthTables());
    router.addTenant("kafka");
    // The service sits idle before its first chunk; the sleep only
    // creates that idle time, nothing waits on it.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    for (auto &c : chunks)
        ASSERT_TRUE(router.offer(std::move(c)));
    router.finish();

    ServiceMetrics m = router.metrics();
    ASSERT_EQ(m.recordsIngested, 4000u);
    // Four back-to-back chunks arrive far faster than their records
    // spread over the idle time would suggest.
    EXPECT_GT(m.ingestRate, 4000.0 / 0.2);
}

// --------------------------------------------------------------------
// Isolation: fleet == solo, byte for byte
// --------------------------------------------------------------------

TEST(TenantIsolation, FleetBundlesMatchSoloBundles)
{
    TenantRouterConfig cfg = smallConfig();
    // Accept every candidate: with these tiny windows validation
    // may reject all bundles, which would make the byte-identity
    // comparison vacuous (no deployments on either side).
    cfg.acceptMargin = -1.0;
    const std::vector<std::string> apps{"kafka", "mysql", "drupal"};
    std::map<std::string, std::vector<TraceChunk>> streams;
    for (const std::string &app : apps)
        streams[app] = appChunks(app, 4000, 5);

    FleetResult fleet = runFleet(cfg, streams);
    for (const std::string &app : apps) {
        std::map<std::string, std::vector<TraceChunk>> solo;
        solo[app] = streams[app];
        FleetResult alone = runFleet(cfg, solo);
        ASSERT_TRUE(fleet.bundleBytes.count(app)) << app;
        ASSERT_TRUE(alone.bundleBytes.count(app)) << app;
        EXPECT_EQ(fleet.deployedEpoch[app], alone.deployedEpoch[app])
            << app;
        EXPECT_EQ(fleet.epochsRun[app], alone.epochsRun[app]) << app;
        EXPECT_EQ(fleet.bundleBytes[app], alone.bundleBytes[app])
            << app << ": fleet bundle differs from solo bundle";
    }
}

TEST(TenantIsolation, AllTwelveAppsConcurrentMatchSolo)
{
    // The full mixed-fleet acceptance scenario: every data center
    // app of Table I streaming into one router, each at a different
    // rate (chunk count), every deployed bundle byte-identical to
    // the solo run at the same epoch.
    TenantRouterConfig cfg = smallConfig();
    cfg.acceptMargin = -1.0; // deploy every epoch (see above)
    cfg.profilePolicy.maxHardBranches = 24;
    std::map<std::string, std::vector<TraceChunk>> streams;
    unsigned which = 0;
    for (const AppConfig &app : dataCenterApps()) {
        unsigned chunks = 3 + (which++ % 3); // rates differ per app
        streams[app.name] = appChunks(app.name, 2500, chunks);
    }
    ASSERT_EQ(streams.size(), 12u);

    FleetResult fleet = runFleet(cfg, streams);
    for (const auto &[app, chunks] : streams) {
        std::map<std::string, std::vector<TraceChunk>> solo;
        solo[app] = chunks;
        FleetResult alone = runFleet(cfg, solo);
        ASSERT_TRUE(fleet.epochsRun.at(app) >= 1) << app;
        EXPECT_EQ(fleet.deployedEpoch.at(app),
                  alone.deployedEpoch.at(app))
            << app;
        EXPECT_EQ(fleet.bundleBytes[app], alone.bundleBytes[app])
            << app << ": fleet bundle differs from solo bundle";
    }
}

// --------------------------------------------------------------------
// Fairness under rate skew
// --------------------------------------------------------------------

TEST(TenantFairness, NoisyTenantCannotStarveOthers)
{
    // One tenant streams at 10x the rate of every other. With
    // deficit-round-robin scheduling each quiet tenant still
    // completes at least one training epoch within the run.
    TenantRouterConfig cfg = smallConfig();
    TenantQuota roomy;
    roomy.maxQueuedChunks = 64;
    roomy.maxPendingTrainJobs = 64;
    cfg.defaultQuota = roomy;

    std::map<std::string, std::vector<TraceChunk>> streams;
    streams["kafka"] = appChunks("kafka", 2000, 30); // noisy: 10x
    streams["mysql"] = appChunks("mysql", 2000, 3);
    streams["drupal"] = appChunks("drupal", 2000, 3);

    FleetResult fleet = runFleet(cfg, streams);
    // Every quiet tenant trains and proposes despite the noisy
    // neighbor; whether validation accepts the bundle is a data
    // question, not a fairness one, so assert epochs, not deploys.
    EXPECT_GE(fleet.epochsRun.at("kafka"), 10u);
    EXPECT_GE(fleet.epochsRun.at("mysql"), 1u);
    EXPECT_GE(fleet.epochsRun.at("drupal"), 1u);
}

// --------------------------------------------------------------------
// Per-tenant journals
// --------------------------------------------------------------------

TEST(TenantJournal, EachTenantResumesFromItsOwnJournal)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
                   ("tenant_journal_" +
                    std::to_string(::getpid()));
    fs::create_directories(dir);

    TenantRouterConfig cfg = smallConfig();
    cfg.journalDir = dir.string();
    std::map<std::string, std::vector<TraceChunk>> streams;
    streams["kafka"] = appChunks("kafka", 4000, 5);
    streams["mysql"] = appChunks("mysql", 4000, 5);

    std::map<std::string, uint64_t> deployedBefore;
    std::map<std::string, std::vector<unsigned char>> bytesBefore;
    {
        TenantRouter router(cfg, globalTruthTables());
        for (const auto &[app, chunks] : streams)
            router.addTenant(app);
        router.start();
        for (const auto &[app, chunks] : streams)
            for (const TraceChunk &c : chunks) {
                TraceChunk copy = c;
                router.offer(std::move(copy));
            }
        router.finish();
        for (const Tenant *t : router.registry().all()) {
            deployedBefore[t->name] = t->store.epoch();
            if (auto snap = t->store.current())
                bytesBefore[t->name] =
                    encodeVersionedBundle(*snap);
        }
        EXPECT_TRUE(fs::exists(dir / "kafka.journal"));
        EXPECT_TRUE(fs::exists(dir / "mysql.journal"));
    }

    // A restarted service must resume every tenant from its own
    // journal: same epoch, same deployed bytes, before any chunk.
    {
        TenantRouter router(cfg, globalTruthTables());
        for (const auto &[app, chunks] : streams)
            router.addTenant(app);
        for (const Tenant *t : router.registry().all()) {
            EXPECT_EQ(t->store.epoch(), deployedBefore[t->name])
                << t->name;
            EXPECT_EQ(t->metrics().journalResumedEpoch,
                      deployedBefore[t->name])
                << t->name;
            ASSERT_TRUE(t->store.current() != nullptr) << t->name;
            EXPECT_EQ(encodeVersionedBundle(*t->store.current()),
                      bytesBefore[t->name])
                << t->name;
        }
        // And keep training past the resumed epoch.
        router.start();
        for (const TraceChunk &c : streams["kafka"]) {
            TraceChunk copy = c;
            router.offer(std::move(copy));
        }
        router.finish();
        const Tenant *kafka = router.registry().find("kafka");
        EXPECT_GE(kafka->store.epoch(), deployedBefore["kafka"]);
        EXPECT_GE(kafka->metrics().epochsRun, 1u);
    }
    fs::remove_all(dir);
}

// --------------------------------------------------------------------
// Fault injection
// --------------------------------------------------------------------

TEST_F(TenantFaults, TrainingFailuresDegradeGracefully)
{
    ASSERT_TRUE(FaultInjector::instance().configure(
        "fail-train=0"));
    TenantRouterConfig cfg = smallConfig();
    std::map<std::string, std::vector<TraceChunk>> streams;
    streams["kafka"] = appChunks("kafka", 4000, 5);
    streams["mysql"] = appChunks("mysql", 4000, 5);

    FleetResult fleet = runFleet(cfg, streams);
    // The service completes every epoch despite the failing task;
    // the poisoned branch is degraded to baseline and both tenants
    // still deploy.
    EXPECT_GE(fleet.epochsRun.at("kafka"), 2u);
    EXPECT_GE(fleet.epochsRun.at("mysql"), 2u);
    EXPECT_GT(FaultInjector::instance().trainFailures(), 0u);
}

// --------------------------------------------------------------------
// Metrics rendering
// --------------------------------------------------------------------

TEST(TenantMetricsDump, NoBlankCellsEvenWhenAllZero)
{
    ServiceMetrics m;
    m.tenantsRegistered = 2;
    m.tenants["idle-app"] = TenantMetrics{}; // never did anything
    TenantMetrics busy;
    busy.chunksRouted = 7;
    busy.epochsRun = 3;
    busy.lastValidationAccuracy = 0.5;
    m.tenants["busy-app"] = busy;

    std::ostringstream os;
    m.dump(os);
    std::string text = os.str();
    ASSERT_NE(text.find("whisperd per-tenant metrics"),
              std::string::npos);
    {
        // No cell may render as NaN ("tenant" contains the letters
        // n-a-n, so compare whole tokens, not substrings).
        std::istringstream toks(text);
        std::string tok;
        while (toks >> tok) {
            EXPECT_NE(tok, "nan");
            EXPECT_NE(tok, "-nan");
        }
    }

    // Every row of the per-tenant table must have exactly as many
    // whitespace-separated fields as the header: a zero-valued
    // counter prints "0", never an empty cell.
    std::istringstream lines(
        text.substr(text.find("whisperd per-tenant metrics")));
    std::string line;
    std::getline(lines, line); // title
    std::getline(lines, line); // header
    size_t headerFields = 0;
    {
        std::istringstream f(line);
        std::string tok;
        while (f >> tok)
            ++headerFields;
    }
    ASSERT_GT(headerFields, 10u);
    std::getline(lines, line); // separator
    unsigned rows = 0;
    while (std::getline(lines, line) && !line.empty()) {
        std::istringstream f(line);
        std::string tok;
        size_t fields = 0;
        while (f >> tok)
            ++fields;
        EXPECT_EQ(fields, headerFields) << "row: " << line;
        ++rows;
    }
    EXPECT_EQ(rows, 3u); // two tenants + the ALL roll-up
}

TEST(TenantMetricsDump, RollupSumsTenantRows)
{
    ServiceMetrics m;
    TenantMetrics a;
    a.chunksRouted = 3;
    a.epochsRun = 2;
    a.bundlesAccepted = 1;
    TenantMetrics b;
    b.chunksRouted = 5;
    b.epochsRun = 4;
    b.bundlesAccepted = 2;
    m.tenants["a"] = a;
    m.tenants["b"] = b;

    std::ostringstream os;
    m.dump(os);
    std::string text = os.str();
    // ALL row: 8 chunks, 6 epochs, 3 accepted.
    size_t allPos = text.find("\nALL");
    ASSERT_NE(allPos, std::string::npos);
    std::istringstream f(text.substr(allPos + 1));
    std::string label, chunks, records, dropC, dropJ, epochs, accept;
    f >> label >> chunks >> records >> dropC >> dropJ >> epochs >>
        accept;
    EXPECT_EQ(chunks, "8");
    EXPECT_EQ(epochs, "6");
    EXPECT_EQ(accept, "3");
}

namespace
{

/** Cells of the row labelled @p label in the dump table titled
 * @p title, keyed by the table's header names. */
std::map<std::string, std::string>
tableRow(const std::string &text, const std::string &title,
         const std::string &label)
{
    std::istringstream lines(text.substr(text.find("== " + title)));
    std::string line;
    std::getline(lines, line); // title
    std::getline(lines, line); // header
    std::vector<std::string> header;
    {
        std::istringstream f(line);
        std::string tok;
        while (f >> tok)
            header.push_back(tok);
    }
    std::map<std::string, std::string> cells;
    while (std::getline(lines, line) && !line.empty()) {
        std::istringstream f(line);
        std::string first;
        f >> first;
        if (first != label)
            continue;
        cells[header[0]] = first;
        std::string tok;
        for (size_t i = 1; f >> tok && i < header.size(); ++i)
            cells[header[i]] = tok;
    }
    return cells;
}

/** Value cell of the aggregate table's @p metric row. */
std::string
aggregateValue(const std::string &text, const std::string &metric)
{
    size_t begin = text.find("\n" + metric + " ");
    if (begin == std::string::npos)
        return "";
    begin += 1 + metric.size();
    std::istringstream f(text.substr(begin, text.find('\n', begin) - begin));
    std::string value;
    f >> value;
    return value;
}

} // namespace

TEST(TenantMetricsDump, IdleTenantDoesNotDiluteAllRow)
{
    ServiceMetrics m;
    m.tenants["idle-app"] = TenantMetrics{};
    TenantMetrics busy;
    busy.epochsRun = 3;
    busy.trainLatencyMean = 0.5;
    busy.trainLatencyMax = 0.75;
    busy.branchTrainMsMean = 2.0;
    busy.lastValidationAccuracy = 0.9;
    m.tenants["busy-app"] = busy;

    std::ostringstream os;
    m.dump(os);
    std::map<std::string, std::string> all =
        tableRow(os.str(), "whisperd per-tenant metrics", "ALL");
    EXPECT_EQ(all["epochs"], "3");
    EXPECT_EQ(all["train-s"], "0.500");
    EXPECT_EQ(all["br-ms"], "2.000");
    EXPECT_EQ(all["val-acc%"], "90.000");
}

TEST(TenantMetricsDump, AggregateTableAgreesWithAllRow)
{
    // Two tenants, one of which never trains (a lone chunk is only
    // ever held out for validation): the aggregate table and the ALL
    // row must report the same training figures.
    TenantRouter router(smallConfig(), globalTruthTables());
    router.addTenant("kafka");
    router.addTenant("mysql");
    router.start();
    for (auto &c : appChunks("kafka", 3000, 5))
        ASSERT_TRUE(router.offer(std::move(c)));
    for (auto &c : appChunks("mysql", 3000, 1))
        ASSERT_TRUE(router.offer(std::move(c)));
    router.finish();

    ServiceMetrics m = router.metrics();
    ASSERT_GE(m.tenants.at("kafka").epochsRun, 1u);
    ASSERT_EQ(m.tenants.at("mysql").epochsRun, 0u);
    std::ostringstream os;
    m.dump(os);
    std::string text = os.str();
    std::map<std::string, std::string> all =
        tableRow(text, "whisperd per-tenant metrics", "ALL");
    std::map<std::string, std::string> kafka =
        tableRow(text, "whisperd per-tenant metrics", "kafka");
    EXPECT_EQ(aggregateValue(text, "training latency (s, mean)"),
              all["train-s"]);
    EXPECT_EQ(all["train-s"], kafka["train-s"]);
    EXPECT_EQ(aggregateValue(text, "training epochs"), all["epochs"]);
    EXPECT_EQ(all["val-acc%"], kafka["val-acc%"]);
}
