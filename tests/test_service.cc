/**
 * @file
 * Tests for the whisperd service subsystem: bounded queue, streaming
 * trace ingest, chunk profiling into one running profile, the
 * determinism of training on N workers, the versioned hint store,
 * and the one-tenant service loop end to end.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "service/bounded_queue.hh"
#include "service/chunk_profiler.hh"
#include "service/hint_store.hh"
#include "service/tenant_router.hh"
#include "service/trace_stream.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "trace/branch_trace.hh"
#include "trace/trace_reader.hh"
#include "workloads/app_workload.hh"

#include "step_reference.hh"

using namespace whisper;

namespace
{

std::vector<BranchRecord>
kafkaRecords(uint32_t inputId, uint64_t count)
{
    AppWorkload workload(appByName("kafka"), inputId, count);
    std::vector<BranchRecord> records;
    records.reserve(count);
    BranchRecord rec;
    while (workload.next(rec))
        records.push_back(rec);
    return records;
}

std::vector<BranchRecord>
slice(const std::vector<BranchRecord> &records, size_t from, size_t to)
{
    return {records.begin() + from, records.begin() + to};
}

} // namespace

// --------------------------------------------------------------------
// BoundedQueue
// --------------------------------------------------------------------

TEST(BoundedQueue, FifoOrder)
{
    BoundedQueue<int> q(8);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(q.tryPush(i));
    EXPECT_EQ(q.size(), 5u);
    q.close();
    int v = -1;
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(q.pop(v));
        EXPECT_EQ(v, i);
    }
    EXPECT_FALSE(q.pop(v));
}

TEST(BoundedQueue, CloseDrainsRemainingItems)
{
    BoundedQueue<int> q(4);
    ASSERT_TRUE(q.tryPush(1));
    ASSERT_TRUE(q.tryPush(2));
    q.close();
    EXPECT_FALSE(q.tryPush(3));
    int v = 0;
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 2);
    EXPECT_FALSE(q.pop(v));
}

TEST(BoundedQueue, BlockingHandoffAcrossThreads)
{
    // Capacity 1 makes the producer find the queue full again and
    // again: a full queue refuses the item (never blocks, never
    // drops it silently), and the producer retries it.
    BoundedQueue<int> q(1);
    constexpr int kItems = 2000;
    std::thread producer([&] {
        for (int i = 0; i < kItems; ++i)
            while (!q.tryPush(i))
                std::this_thread::yield();
        q.close();
    });
    long long sum = 0;
    int count = 0, v = 0, expect = 0;
    while (q.pop(v)) {
        EXPECT_EQ(v, expect++);
        sum += v;
        ++count;
    }
    producer.join();
    EXPECT_EQ(count, kItems);
    EXPECT_EQ(sum, static_cast<long long>(kItems) * (kItems - 1) / 2);
}

TEST(BoundedQueue, CloseWhileConsumersBlocked)
{
    BoundedQueue<int> q(4);
    constexpr int kConsumers = 4;
    std::atomic<int> emptyPops{0};
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&] {
            int v = 0;
            if (!q.pop(v))
                ++emptyPops;
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    q.close();
    for (auto &t : consumers)
        t.join(); // must not deadlock
    EXPECT_EQ(emptyPops.load(), kConsumers);
}

TEST(BoundedQueue, ShutdownStressManyProducersConsumers)
{
    // Hammer tryPush/pop/close from many threads; run under
    // ThreadSanitizer in CI. Every item pushed before close must be
    // popped exactly once, and nothing may deadlock.
    BoundedQueue<int> q(2);
    constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 500;
    std::atomic<long long> pushedSum{0}, poppedSum{0};
    std::atomic<int> pushed{0}, popped{0};
    std::atomic<bool> closing{false};
    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                int v = p * kPerProducer + i;
                while (!q.tryPush(v)) {
                    if (closing)
                        return; // closed under us: fine
                    std::this_thread::yield();
                }
                pushedSum += v;
                ++pushed;
            }
        });
    }
    for (int c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&] {
            int v = 0;
            while (q.pop(v)) {
                poppedSum += v;
                ++popped;
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    closing = true;
    q.close();
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(popped.load(), pushed.load());
    EXPECT_EQ(poppedSum.load(), pushedSum.load());
}

// --------------------------------------------------------------------
// TraceStreamReader / chunkTraceDir
// --------------------------------------------------------------------

TEST(TraceStream, ChunkedReadMatchesFullLoad)
{
    BranchTrace trace("kafka", 0);
    for (const BranchRecord &rec : kafkaRecords(0, 30'000))
        trace.append(rec);
    std::string path = "/tmp/whisper_test_stream.whrt";
    ASSERT_TRUE(trace.save(path));

    TraceStreamReader reader(path);
    ASSERT_TRUE(reader.valid());
    EXPECT_EQ(reader.app(), "kafka");
    EXPECT_EQ(reader.inputId(), 0u);
    EXPECT_EQ(reader.recordsTotal(), trace.size());

    std::vector<BranchRecord> streamed, chunk;
    while (reader.readChunk(chunk, 7'001) > 0)
        streamed.insert(streamed.end(), chunk.begin(), chunk.end());
    std::remove(path.c_str());

    ASSERT_EQ(streamed.size(), trace.size());
    for (size_t i = 0; i < streamed.size(); ++i) {
        ASSERT_EQ(streamed[i].pc, trace[i].pc);
        ASSERT_EQ(streamed[i].taken, trace[i].taken);
        ASSERT_EQ(streamed[i].kind, trace[i].kind);
    }
}

TEST(TraceStream, RejectsBadMagic)
{
    std::string path = "/tmp/whisper_test_badmagic.whrt";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    uint32_t notMagic = 0xdeadbeef;
    std::fwrite(&notMagic, sizeof notMagic, 1, f);
    std::fclose(f);
    TraceStreamReader reader(path);
    EXPECT_FALSE(reader.valid());
    std::remove(path.c_str());
}

TEST(TraceStream, IngestorDeliversEverythingInOrder)
{
    namespace fs = std::filesystem;
    fs::path dir = "/tmp/whisper_test_ingest_dir";
    fs::remove_all(dir);
    fs::create_directories(dir);

    // Two files; name order must drive delivery order.
    std::vector<BranchRecord> all = kafkaRecords(0, 24'000);
    BranchTrace t0("kafka", 0), t1("kafka", 1);
    for (size_t i = 0; i < 12'000; ++i)
        t0.append(all[i]);
    for (size_t i = 12'000; i < all.size(); ++i)
        t1.append(all[i]);
    ASSERT_TRUE(t0.save((dir / "000_kafka.whrt").string()));
    ASSERT_TRUE(t1.save((dir / "001_kafka.whrt").string()));

    std::vector<BranchRecord> delivered;
    std::vector<uint32_t> inputs;
    ChunkTally tally =
        chunkTraceDir(dir.string(), 5'000, [&](TraceChunk chunk) {
            EXPECT_EQ(chunk.app, "kafka");
            EXPECT_LE(chunk.records.size(), 5'000u);
            inputs.push_back(chunk.inputId);
            delivered.insert(delivered.end(), chunk.records.begin(),
                             chunk.records.end());
        });
    fs::remove_all(dir);

    // 12k records per file in chunks of 5k: 3 chunks per file, the
    // first file's before the second's.
    EXPECT_EQ(inputs, (std::vector<uint32_t>{0, 0, 0, 1, 1, 1}));
    EXPECT_EQ(tally.files, 2u);
    EXPECT_EQ(tally.framesSkipped, 0u);
    EXPECT_TRUE(tally.errors.empty());
    ASSERT_EQ(delivered.size(), all.size());
    for (size_t i = 0; i < delivered.size(); ++i)
        ASSERT_EQ(delivered[i].pc, all[i].pc);
}

// --------------------------------------------------------------------
// ChunkProfiler
// --------------------------------------------------------------------

namespace
{

/** Profile `records` through one ChunkProfiler in slices of `sliceRecords`. */
BranchProfile
profileInSlices(const std::vector<BranchRecord> &records,
                size_t sliceRecords, const WhisperConfig &cfg,
                const ChunkProfiler::Options &opt)
{
    ChunkProfiler profiler(cfg, makeTage(64), opt);
    for (size_t at = 0; at < records.size(); at += sliceRecords) {
        size_t end = std::min(records.size(), at + sliceRecords);
        profiler.profileChunk(slice(records, at, end));
    }
    return profiler.profile();
}

} // namespace

TEST(ChunkProfiler, MergedChunkProfilesEqualConcatenatedProfile)
{
    // The service's core invariant: profiling a stream chunk by chunk
    // into the running profile gives exactly the profile of the whole
    // stream.
    std::vector<BranchRecord> records = kafkaRecords(0, 60'000);
    WhisperConfig cfg;
    ChunkProfiler::Options opt;
    opt.maxHardBranches = 128;

    BranchProfile merged = profileInSlices(records, 17'000, cfg, opt);
    BranchProfile reference =
        profileInSlices(records, records.size(), cfg, opt);

    EXPECT_TRUE(merged == reference);
    EXPECT_EQ(merged.numBranches(), reference.numBranches());
    EXPECT_GT(reference.numHardBranches(), 0u);
}

TEST(ChunkProfiler, MergeEqualityHoldsUnderStatsWarmup)
{
    // The warm-up skip is a function of lifetime stream position, so
    // chunking must still not change the profile.
    std::vector<BranchRecord> records = kafkaRecords(0, 40'000);
    WhisperConfig cfg;
    ChunkProfiler::Options opt;
    opt.maxHardBranches = 64;
    opt.statsWarmupRecords = 12'500; // lands mid-chunk

    BranchProfile merged = profileInSlices(records, 10'000, cfg, opt);
    BranchProfile reference =
        profileInSlices(records, records.size(), cfg, opt);
    EXPECT_TRUE(merged == reference);

    // Warm-up records contribute to no statistic.
    ChunkProfiler noWarmup(cfg, makeTage(64));
    noWarmup.profileChunk(records);
    EXPECT_LT(reference.totalConditionals,
              noWarmup.profile().totalConditionals);
}

namespace
{

/**
 * The absorber as it was before the running profile, kept as the
 * reference: each chunk is profiled into a fresh BranchProfile, with
 * the hard set and lifetime mispredictions in hash containers, and
 * then merged into the tenant's accumulated profile.
 */
class ReferenceAbsorber
{
  public:
    ReferenceAbsorber(const WhisperConfig &cfg, unsigned tageBudgetKB,
                      const ChunkProfiler::Options &opt)
        : accumulated(cfg), cfg_(cfg), opt_(opt),
          baseline_(makeTage(tageBudgetKB)), history_(sampleHistory(cfg))
    {
    }

    void
    absorb(const std::vector<BranchRecord> &records)
    {
        BranchProfile profile(cfg_);
        for (const BranchRecord &rec : records) {
            bool miss = stepRecord(*baseline_, rec);
            bool warm = recordsProfiled_++ >= opt_.statsWarmupRecords;
            BranchProfileEntry *e =
                warm ? profile.count(rec, miss) : nullptr;
            if (!rec.isConditional())
                continue;
            if (e) {
                if (miss && !hard_.contains(rec.pc) &&
                    hard_.size() < opt_.maxHardBranches &&
                    ++lifetimeMispredicts_[rec.pc] >=
                        cfg_.minMispredictions)
                    hard_.insert(rec.pc);
                if (hard_.contains(rec.pc)) {
                    if (!e->hard)
                        profile.markHard(rec.pc);
                    e->sample(rec.taken, history_);
                }
            }
            history_.push(rec.taken);
        }
        accumulated.mergeFrom(profile);
    }

    BranchProfile accumulated;

  private:
    WhisperConfig cfg_;
    ChunkProfiler::Options opt_;
    std::unique_ptr<BranchPredictor> baseline_;
    GlobalHistory history_;
    std::unordered_set<uint64_t> hard_;
    std::unordered_map<uint64_t, uint64_t> lifetimeMispredicts_;
    uint64_t recordsProfiled_ = 0;
};

} // namespace

TEST(ChunkProfiler, MatchesReferenceAbsorber)
{
    // The running profile equals what profiling each chunk apart and
    // merging gave, after every chunk, at whisperd's defaults.
    TenantRouterConfig defaults;
    for (const char *app : {"mysql", "finagle-http"}) {
        AppWorkload workload(appByName(app), 0, 8 * defaults.chunkRecords);
        ChunkProfiler profiler(defaults.whisper,
                               makeTage(defaults.tageBudgetKB),
                               defaults.profilePolicy);
        ReferenceAbsorber reference(defaults.whisper,
                                    defaults.tageBudgetKB,
                                    defaults.profilePolicy);
        std::vector<BranchRecord> chunk;
        BranchRecord rec;
        for (int k = 0; k < 8; ++k) {
            chunk.clear();
            while (chunk.size() < defaults.chunkRecords &&
                   workload.next(rec))
                chunk.push_back(rec);
            profiler.profileChunk(chunk);
            reference.absorb(chunk);
            ASSERT_TRUE(profiler.profile() == reference.accumulated)
                << app << " chunk " << k;
        }
        EXPECT_GT(profiler.profile().numHardBranches(), 0u) << app;
    }
}

TEST(ChunkProfiler, MergeIsAssociativeAndCommutative)
{
    // mergeFrom combines profiles of separate inputs (Fig. 18).
    std::vector<BranchRecord> records = kafkaRecords(0, 45'000);
    WhisperConfig cfg;
    ChunkProfiler::Options opt;
    opt.maxHardBranches = 128;
    auto profileOf = [&](size_t from, size_t to) {
        ChunkProfiler profiler(cfg, makeTage(64), opt);
        profiler.profileChunk(slice(records, from, to));
        return profiler.profile();
    };
    BranchProfile p1 = profileOf(0, 15'000);
    BranchProfile p2 = profileOf(15'000, 30'000);
    BranchProfile p3 = profileOf(30'000, 45'000);
    auto merged = [](const BranchProfile &a, const BranchProfile &b) {
        BranchProfile out = a;
        out.mergeFrom(b);
        return out;
    };

    EXPECT_TRUE(merged(merged(p1, p2), p3) == merged(p1, merged(p2, p3)));
    EXPECT_TRUE(merged(p1, p2) == merged(p2, p1));
}

// --------------------------------------------------------------------
// WhisperTrainer on N workers
// --------------------------------------------------------------------

TEST(WhisperTrainer, BitIdenticalAcrossWorkerCounts)
{
    // The 64-branch profile spreads branches over every worker count;
    // the 4-branch one leaves most of 8 workers without a branch.
    for (unsigned maxHard : {64u, 4u}) {
        ExperimentConfig ecfg;
        ecfg.trainRecords = 80'000;
        ecfg.profile.maxHardBranches = maxHard;
        BranchProfile profile =
            profileApp(appByName("kafka"), 0, ecfg);
        WhisperTrainer trainer(ecfg.whisper, globalTruthTables());

        TrainingStats serialStats;
        std::vector<TrainedHint> serial =
            trainer.train(profile, nullptr, &serialStats);
        ASSERT_GT(serialStats.hintsEmitted, 0u) << "maxHard=" << maxHard;
        if (maxHard == 4u) {
            ASSERT_LT(serialStats.branchesConsidered, 8u);
        }

        for (unsigned workers : {1u, 2u, 3u, 8u}) {
            TrainingStats stats;
            std::vector<TrainedHint> hints =
                trainer.train(profile, nullptr, &stats, workers);
            EXPECT_EQ(hints, serial)
                << "maxHard=" << maxHard << " workers=" << workers;
            EXPECT_EQ(stats.branchesConsidered,
                      serialStats.branchesConsidered);
            EXPECT_EQ(stats.formulasScored, serialStats.formulasScored);
            EXPECT_EQ(stats.branchesDegraded, 0u);
        }
    }
}

// --------------------------------------------------------------------
// HintStore
// --------------------------------------------------------------------

TEST(HintStore, AcceptsImprovingRejectsRegressing)
{
    HintStore store;
    EXPECT_EQ(store.current(), nullptr);
    EXPECT_EQ(store.epoch(), 0u);

    HintBundle first;
    first.hints.resize(3);
    EXPECT_TRUE(store.propose(first, 0.95, 0.93));
    EXPECT_EQ(store.epoch(), 1u);
    EXPECT_EQ(store.current()->validationAccuracy, 0.95);

    // A regressing candidate must be rejected and leave the deployed
    // generation untouched.
    HintBundle worse;
    worse.hints.resize(9);
    EXPECT_FALSE(store.propose(worse, 0.94, 0.95));
    EXPECT_EQ(store.epoch(), 1u);
    EXPECT_EQ(store.current()->bundle.hints.size(), 3u);

    // Ties are rejected too (strict improvement required)...
    EXPECT_FALSE(store.propose(worse, 0.95, 0.95));
    // ...and the margin raises the bar further.
    EXPECT_FALSE(store.propose(worse, 0.9549, 0.95, 0.005));
    EXPECT_TRUE(store.propose(worse, 0.9551, 0.95, 0.005));
    EXPECT_EQ(store.epoch(), 2u);

    EXPECT_EQ(store.accepted(), 2u);
    EXPECT_EQ(store.rejected(), 3u);
}

TEST(HintStore, ReadersSurviveConcurrentSwaps)
{
    HintStore store;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> reads{0};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            HintStore::Snapshot snap = store.current();
            if (snap) {
                // The pinned snapshot stays coherent even if the
                // writer swaps generations underneath us.
                ASSERT_EQ(snap->bundle.hints.size(),
                          static_cast<size_t>(snap->epoch));
                ++reads;
            }
        }
    });
    double accuracy = 0.5;
    for (uint64_t gen = 1; gen <= 200; ++gen) {
        HintBundle bundle;
        bundle.hints.resize(gen);
        double next = accuracy + 0.001;
        ASSERT_TRUE(store.propose(std::move(bundle), next, accuracy));
        accuracy = next;
    }
    stop = true;
    reader.join();
    EXPECT_EQ(store.epoch(), 200u);
    EXPECT_EQ(store.accepted(), 200u);
}

// --------------------------------------------------------------------
// Adaptive runner + consultant
// --------------------------------------------------------------------

TEST(AdaptiveRunner, EpochTotalsAddUpAndSwapsAreCounted)
{
    std::vector<BranchRecord> records = kafkaRecords(0, 30'000);
    TraceSource source(records);

    HintStore store;
    WhisperConfig cfg;
    HintStoreConsultant consultant(store, cfg, globalTruthTables(),
                                   [] { return makeTage(64); });

    // Deploy an (empty) bundle before epoch 2 so exactly one swap
    // happens mid-run: tage -> whisper-with-empty-bundle.
    std::unique_ptr<BranchPredictor> tage = makeTage(64);
    AdaptiveRunStats stats = runPredictorAdaptive(
        source, *tage, 10'000, [&](uint64_t nextEpoch) {
            if (nextEpoch == 2) {
                HintBundle empty;
                EXPECT_TRUE(store.propose(empty, 1.0, 0.0));
            }
            return consultant.refresh(nextEpoch);
        });

    EXPECT_EQ(stats.perEpoch.size(), 3u);
    EXPECT_EQ(stats.predictorSwaps, 1u);
    EXPECT_EQ(consultant.deployedEpoch(), 1u);

    uint64_t conditionals = 0, mispredicts = 0;
    for (const PredictorRunStats &epoch : stats.perEpoch) {
        conditionals += epoch.conditionals;
        mispredicts += epoch.mispredicts;
    }
    EXPECT_EQ(conditionals, stats.total.conditionals);
    EXPECT_EQ(mispredicts, stats.total.mispredicts);
}

// --------------------------------------------------------------------
// whisperd end to end: a one-tenant TenantRouter over a directory
// --------------------------------------------------------------------

TEST(OneTenantRouter, TrainsDeploysAndReportsFromQueue)
{
    namespace fs = std::filesystem;
    fs::path dir = "/tmp/whisper_test_router_dir";
    fs::remove_all(dir);
    fs::create_directories(dir);

    TenantRouterConfig cfg;
    cfg.chunkRecords = 15'000;
    cfg.epochChunks = 2;
    cfg.trainWorkers = 2;
    cfg.tageBudgetKB = 64;
    cfg.profilePolicy.maxHardBranches = 64;
    cfg.verbose = false;
    cfg.autoRegister = true;

    // Two files of 45k records: three 15k chunks each, routed
    // through offer() into the tenant's queue in name order.
    std::vector<BranchRecord> records = kafkaRecords(0, 90'000);
    BranchTrace t0("kafka", 0), t1("kafka", 0);
    for (size_t i = 0; i < records.size(); ++i)
        (i < 45'000 ? t0 : t1).append(records[i]);
    ASSERT_TRUE(t0.save((dir / "000_kafka.whrt").string()));
    ASSERT_TRUE(t1.save((dir / "001_kafka.whrt").string()));

    TenantRouter router(cfg, globalTruthTables());
    router.run(dir.string());
    fs::remove_all(dir);

    ASSERT_EQ(router.registry().size(), 1u);
    const Tenant *tenant = router.registry().find("kafka");
    ASSERT_NE(tenant, nullptr);
    ServiceMetrics m = router.metrics();
    EXPECT_GE(m.all().epochsRun, 2u);
    EXPECT_GE(tenant->store.accepted() + tenant->store.rejected(),
              2u);
    // Something must have been deployable on a stable stream.
    ASSERT_NE(tenant->store.current(), nullptr);
    EXPECT_GT(tenant->store.current()->bundle.hints.size(), 0u);
    EXPECT_EQ(m.chunksIngested, 6u);
    EXPECT_EQ(m.recordsIngested, records.size());
    EXPECT_EQ(m.filesIngested, 2u);
    EXPECT_EQ(m.corruptFiles, 0u);
    TenantMetrics tm = tenant->metrics();
    EXPECT_EQ(tm.chunksRouted, 6u);
    EXPECT_EQ(tm.chunksDropped, 0u);
}
