/**
 * @file
 * Integration tests: profiler, classifier, analyses, and the full
 * cross-input experiment pipeline on small traces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bp/simple_predictors.hh"
#include "bp/tage_scl.hh"
#include "branchnet/branchnet_predictor.hh"
#include "core/whisper_predictor.hh"
#include "rombf/rombf_predictor.hh"
#include "service/chunk_profiler.hh"
#include "sim/analysis.hh"
#include "trace/branch_trace.hh"
#include "sim/classifier.hh"
#include "sim/experiment.hh"
#include "util/crc32.hh"
#include "util/rng.hh"

#include "static_predictor.hh"
#include "step_reference.hh"

using namespace whisper;

namespace
{

ExperimentConfig
smallConfig()
{
    ExperimentConfig cfg;
    cfg.trainRecords = 300'000;
    cfg.testRecords = 250'000;
    cfg.profile.maxHardBranches = 512;
    return cfg;
}

} // namespace

TEST(Runner, CountsConditionalsOnly)
{
    const AppConfig &app = appByName("kafka");
    AppWorkload trace(app, 0, 50000);
    StaticPredictor pred(true);
    auto stats = runPredictor(trace, pred);
    EXPECT_GT(stats.conditionals, 30000u);
    EXPECT_GT(stats.instructions, stats.conditionals);
    EXPECT_GT(stats.mispredicts, 0u);
    EXPECT_LT(stats.accuracy(), 1.0);
}

TEST(Runner, WarmupExcludesEarlyStats)
{
    const AppConfig &app = appByName("kafka");
    AppWorkload trace(app, 0, 50000);
    IdealPredictor ideal;
    auto all = runPredictor(trace, ideal, 0.0);
    auto half = runPredictor(trace, ideal, 0.5);
    EXPECT_LT(half.instructions, all.instructions);
    EXPECT_GT(half.warmupInstructions, 0u);
    EXPECT_NEAR(static_cast<double>(half.instructions) /
                    (half.instructions + half.warmupInstructions),
                0.5, 0.05);
}

// ---------------------------------------------------------------
// Golden regression snapshots: exact integer counts for two catalog
// workloads. The workload generators replay deterministically
// (tools_pipeline.sh), so these are stable until someone changes
// the predictor or the generator — which is exactly what this test
// is meant to catch.
// ---------------------------------------------------------------

namespace
{

struct Golden
{
    const char *app;
    uint32_t input;
    uint64_t records;
    uint64_t conditionals;
    uint64_t mispredicts;
    uint64_t instructions;
};

// TAGE-SC-L 64KB, stats warm-up fraction 0.5.
constexpr Golden kGoldens[] = {
    {"mysql", 0, 120000, 54686, 5110, 540547},
    {"kafka", 0, 120000, 55445, 1746, 539827},
};

// The test's display name comes from this, so it must not print the
// `app` pointer: gtest's default dumps the struct's bytes, which ASLR
// changes on every run.
void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.app << "_i" << g.input;
}

} // namespace

class GoldenSnapshot : public ::testing::TestWithParam<Golden>
{
};

TEST_P(GoldenSnapshot, SerialMatchesTheSnapshot)
{
    const Golden &g = GetParam();
    AppWorkload trace(appByName(g.app), g.input, g.records);
    auto pred = makeTage(64);
    PredictorRunStats stats = runPredictor(trace, *pred, 0.5);
    EXPECT_EQ(stats.conditionals, g.conditionals) << g.app;
    EXPECT_EQ(stats.mispredicts, g.mispredicts) << g.app;
    EXPECT_EQ(stats.instructions, g.instructions) << g.app;
}

INSTANTIATE_TEST_SUITE_P(CatalogWorkloads, GoldenSnapshot,
                         ::testing::ValuesIn(kGoldens));

// ---------------------------------------------------------------
// TAGE-SC-L golden grid: the ends and the baseline of the Fig. 21
// size sweep (8KB, 64KB, 1MB) and 8MB, which like the 4MB MTAGE
// stand-in uses the 3000-bit history, with the statistical corrector
// and loop predictor each on and off, on two catalog workloads.
// Exact counts, so any change to a prediction in any configuration
// fails here.
// ---------------------------------------------------------------

namespace
{

struct TageGolden
{
    const char *app;
    unsigned kb;
    bool useSc;
    bool useLoop;
    uint64_t conditionals;
    uint64_t mispredicts;
};

// Input 0, 60k records, stats warm-up fraction 0.5.
constexpr TageGolden kTageGoldens[] = {
    {"mysql", 8, true, true, 27489, 3756},
    {"mysql", 8, false, true, 27489, 3666},
    {"mysql", 8, true, false, 27489, 3756},
    {"mysql", 8, false, false, 27489, 3666},
    {"mysql", 64, true, true, 27489, 3085},
    {"mysql", 64, false, true, 27489, 3497},
    {"mysql", 64, true, false, 27489, 3061},
    {"mysql", 64, false, false, 27489, 3491},
    {"mysql", 1024, true, true, 27489, 2920},
    {"mysql", 1024, false, true, 27489, 3374},
    {"mysql", 1024, true, false, 27489, 2896},
    {"mysql", 1024, false, false, 27489, 3357},
    {"mysql", 8192, true, true, 27489, 3169},
    {"mysql", 8192, false, true, 27489, 3355},
    {"mysql", 8192, true, false, 27489, 3151},
    {"mysql", 8192, false, false, 27489, 3336},
    {"finagle-http", 8, true, true, 27562, 672},
    {"finagle-http", 8, false, true, 27562, 700},
    {"finagle-http", 8, true, false, 27562, 662},
    {"finagle-http", 8, false, false, 27562, 698},
    {"finagle-http", 64, true, true, 27562, 477},
    {"finagle-http", 64, false, true, 27562, 627},
    {"finagle-http", 64, true, false, 27562, 451},
    {"finagle-http", 64, false, false, 27562, 602},
    {"finagle-http", 1024, true, true, 27562, 508},
    {"finagle-http", 1024, false, true, 27562, 590},
    {"finagle-http", 1024, true, false, 27562, 497},
    {"finagle-http", 1024, false, false, 27562, 579},
    {"finagle-http", 8192, true, true, 27562, 548},
    {"finagle-http", 8192, false, true, 27562, 621},
    {"finagle-http", 8192, true, false, 27562, 537},
    {"finagle-http", 8192, false, false, 27562, 610},
};

void
PrintTo(const TageGolden &g, std::ostream *os)
{
    std::string app = g.app;
    std::replace(app.begin(), app.end(), '-', '_');
    *os << app << "_" << g.kb << "kb" << (g.useSc ? "" : "_nosc")
        << (g.useLoop ? "" : "_noloop");
}

} // namespace

class TageSclGolden : public ::testing::TestWithParam<TageGolden>
{
};

TEST_P(TageSclGolden, MatchesTheSnapshot)
{
    const TageGolden &g = GetParam();
    TageSclConfig cfg = TageSclConfig::forBudgetKB(g.kb);
    cfg.useSc = g.useSc;
    cfg.useLoop = g.useLoop;
    TageScl pred(cfg);
    AppWorkload trace(appByName(g.app), 0, 60000);
    PredictorRunStats stats = runPredictor(trace, pred, 0.5);
    EXPECT_EQ(stats.conditionals, g.conditionals);
    EXPECT_EQ(stats.mispredicts, g.mispredicts);
}

INSTANTIATE_TEST_SUITE_P(BudgetsAndComponents, TageSclGolden,
                         ::testing::ValuesIn(kTageGoldens));

TEST(WhisperTageGolden, HintedUpdatesMatchTheSnapshot)
{
    // Hinted branches update TAGE-SC-L with allocate=false, a path
    // the plain grid never takes.
    ExperimentConfig cfg = smallConfig();
    const AppConfig &app = appByName("mysql");
    BranchProfile profile = profileApp(app, 0, cfg);
    WhisperBuild build = trainWhisper(app, 0, profile, cfg);
    auto pred = makeWhisperPredictor(cfg, build);
    AppWorkload trace(app, 0, 60000);
    PredictorRunStats stats = runPredictor(trace, *pred, 0.5);
    const auto &whisper = static_cast<const WhisperPredictor &>(*pred);
    EXPECT_EQ(build.hints.size(), 124u);
    EXPECT_EQ(whisper.hintPredictions(), 5782u);
    EXPECT_EQ(stats.conditionals, 27489u);
    EXPECT_EQ(stats.mispredicts, 2794u);
}

// ---------------------------------------------------------------
// Block stepping: step() over blocks of any size, mixed with
// one-record step() calls, predicts and trains exactly as the
// per-record references of step_reference.hh do.
// ---------------------------------------------------------------

namespace
{

/**
 * Drive @p block and @p ref over @p records: @p block through step()
 * in random-size blocks (0, 1, around and above TageScl::kBlock and
 * kStepBlock) with some one-record blocks in between, @p ref one
 * record at a time through its step(record, allocate). Random
 * records carry noAllocate. Every record's miss flag must agree.
 * @p between runs after each block with its number.
 */
template <typename Ref>
void
expectBlockEqualsPerRecord(BranchPredictor &block, Ref &ref,
                           std::span<const BranchRecord> records,
                           uint64_t seed,
                           const std::function<void(size_t)> &between = {})
{
    const size_t k = TageScl::kBlock;
    const std::vector<size_t> sizes = {0,       1,       2,     7,
                                       k - 1,   k,       k + 1, 2 * k + 3,
                                       kStepBlock - 1,   kStepBlock,
                                       kStepBlock + 1,   1000};
    Rng rng(seed);
    std::vector<uint8_t> miss, noAllocate;
    size_t blocks = 0;
    for (size_t i = 0; i < records.size();) {
        size_t left = records.size() - i;
        if (rng.nextBool(0.1)) {
            size_t n = std::min<size_t>(1 + rng.nextBelow(4), left);
            for (size_t r = i; r < i + n; ++r)
                ASSERT_EQ(stepRecord(block, records[r]),
                          ref.step(records[r]))
                    << "per-record step at " << r;
            i += n;
            continue;
        }
        size_t n = std::min(sizes[rng.nextBelow(sizes.size())], left);
        bool withNoAllocate = rng.nextBool(0.3);
        noAllocate.resize(n);
        for (auto &a : noAllocate)
            a = withNoAllocate && rng.nextBool(0.2);
        miss.assign(n, 0xAA);
        block.step(records.subspan(i, n), miss.data(),
                   withNoAllocate ? noAllocate.data() : nullptr);
        for (size_t r = 0; r < n; ++r)
            ASSERT_EQ(miss[r] != 0, ref.step(records[i + r], !noAllocate[r]))
                << "block of " << n << " at record " << i + r;
        i += n;
        if (between)
            between(blocks);
        ++blocks;
    }
}

} // namespace

TEST(BlockStep, TageSclMatchesPerRecordStepping)
{
    AppWorkload workload(appByName("mysql"), 1, 200'000);
    BranchTrace trace("mysql", 1);
    trace.fill(workload, 200'000);
    for (unsigned kb : {8u, 64u, 1024u}) {
        SCOPED_TRACE(kb);
        TageScl block(TageSclConfig::forBudgetKB(kb));
        TageSclReference ref(TageSclConfig::forBudgetKB(kb));
        expectBlockEqualsPerRecord(block, ref, trace.records(), kb);
        EXPECT_EQ(block.lastProvider(), ref.tage.lastProvider());
    }
}

TEST(BlockStep, WhisperMatchesPerRecordStepping)
{
    ExperimentConfig cfg = smallConfig();
    const AppConfig &app = appByName("mysql");
    BranchProfile profile = profileApp(app, 0, cfg);
    WhisperBuild build = trainWhisper(app, 0, profile, cfg);
    ASSERT_GT(build.hints.size(), 0u);
    // A second deployment: every other hint and its placements.
    std::vector<TrainedHint> half;
    std::vector<HintPlacement> halfPlacements;
    for (size_t h = 0; h < build.hints.size(); h += 2)
        half.push_back(build.hints[h]);
    for (const HintPlacement &pl : build.placements)
        for (const TrainedHint &h : half)
            if (h.pc == pl.branchPc)
                halfPlacements.push_back(pl);

    AppWorkload workload(app, 1, 200'000);
    BranchTrace trace(app.name, 1);
    trace.fill(workload, 200'000);
    auto blockPred = makeWhisperPredictor(cfg, build);
    auto &block = static_cast<WhisperPredictor &>(*blockPred);
    WhisperReference ref(TageSclConfig::forBudgetKB(cfg.tageBudgetKB),
                         cfg.whisper, globalTruthTables(), build.hints,
                         build.placements);
    // Redeploy between some blocks, alternating the two bundles.
    bool full = true;
    auto redeploy = [&](size_t b) {
        if (b % 97 != 96)
            return;
        full = !full;
        const auto &hints = full ? build.hints : half;
        const auto &pls = full ? build.placements : halfPlacements;
        block.replaceHints(hints, pls);
        ref.replaceHints(hints, pls);
    };
    expectBlockEqualsPerRecord(block, ref, trace.records(), 28, redeploy);

    EXPECT_GT(block.hintPredictions(), 0u);
    EXPECT_EQ(block.hintPredictions(), ref.hintPredictions);
    EXPECT_EQ(block.hintCorrect(), ref.hintCorrect);
    EXPECT_EQ(block.dynamicHintInstructions(), ref.dynamicHints);
    const HintBuffer &a = block.hintBuffer(), &b = ref.buffer;
    EXPECT_EQ(a.hits(), b.hits());
    EXPECT_EQ(a.misses(), b.misses());
    EXPECT_EQ(a.insertions(), b.insertions());
    EXPECT_EQ(a.refreshes(), b.refreshes());
    EXPECT_EQ(a.evictions(), b.evictions());
    EXPECT_GT(a.evictions(), 0u);
    EXPECT_EQ(a.lruOrder(), b.lruOrder());
}

TEST(BlockStep, RombfMatchesPerRecordStepping)
{
    ExperimentConfig cfg = smallConfig();
    const AppConfig &app = appByName("mysql");
    BranchProfile profile = profileApp(app, 0, cfg);
    AppWorkload workload(app, 1, 200'000);
    BranchTrace trace(app.name, 1);
    trace.fill(workload, 200'000);
    for (unsigned bits : {4u, 8u}) {
        SCOPED_TRACE(bits);
        RombfTrainer trainer(bits);
        std::vector<RombfHint> hints = trainer.train(profile);
        ASSERT_GT(hints.size(), 0u);
        RombfPredictor block(makeTage(cfg.tageBudgetKB), trainer, hints);
        RombfReference ref(TageSclConfig::forBudgetKB(cfg.tageBudgetKB),
                           trainer, hints);
        expectBlockEqualsPerRecord(block, ref, trace.records(), 40 + bits);
        EXPECT_GT(block.hintPredictions(), 0u);
        EXPECT_EQ(block.hintPredictions(), ref.hintPredictions);
        EXPECT_EQ(block.hintCorrect(), ref.hintCorrect);
    }
}

TEST(BlockStep, BranchNetMatchesPerRecordStepping)
{
    ExperimentConfig cfg = smallConfig();
    const AppConfig &app = appByName("mysql");
    BranchNetSampleStore store;
    BranchProfile profile = profileApp(app, 0, cfg, &store);
    std::vector<BranchNetDeployment> models =
        BranchNetTrainer(8 * 1024).train(profile, store);
    ASSERT_GT(models.size(), 0u);

    AppWorkload workload(app, 1, 200'000);
    BranchTrace trace(app.name, 1);
    trace.fill(workload, 200'000);
    BranchNetPredictor block(makeTage(cfg.tageBudgetKB), models, "bn");
    BranchNetReference ref(TageSclConfig::forBudgetKB(cfg.tageBudgetKB),
                           models);
    expectBlockEqualsPerRecord(block, ref, trace.records(), 53);
    EXPECT_GT(block.cnnPredictions(), 0u);
    EXPECT_EQ(block.cnnPredictions(), ref.cnnPredictions);
    EXPECT_EQ(block.cnnCorrect(), ref.cnnCorrect);
}

TEST(Profiler, CollectsEntriesAndHardTables)
{
    ExperimentConfig cfg = smallConfig();
    const AppConfig &app = appByName("cassandra");
    BranchProfile profile = profileApp(app, 0, cfg);

    EXPECT_GT(profile.numBranches(), 1000u);
    EXPECT_GT(profile.numHardBranches(), 20u);
    EXPECT_LE(profile.numHardBranches(),
              cfg.profile.maxHardBranches);
    EXPECT_GT(profile.totalMispredicts, 0u);

    for (const auto *e : profile.hardBranches()) {
        ASSERT_EQ(e->byLength.size(), profile.lengths().size());
        // Tables must actually hold samples.
        EXPECT_GT(e->byLength[0].totalSamples(), 0u);
        // Every length table of a branch holds the same samples.
        EXPECT_EQ(e->byLength[0].totalSamples(),
                  e->byLength[5].totalSamples());
        EXPECT_EQ(e->raw8.totalSamples(),
                  e->byLength[0].totalSamples());
        break; // the heaviest one suffices
    }
}

TEST(Profiler, HardSelectionRespectsThresholds)
{
    ExperimentConfig cfg = smallConfig();
    const AppConfig &app = appByName("tomcat");
    BranchProfile profile = profileApp(app, 0, cfg);
    for (const auto *e : profile.hardBranches()) {
        EXPECT_GE(e->baselineMispredicts,
                  cfg.whisper.minMispredictions);
        EXPECT_LE(e->baselineAccuracy(), cfg.profile.maxAccuracy);
    }
}

namespace
{

/**
 * The three-pass profiler collectProfile replaced, kept as its
 * reference: pass 2 finds each conditional's entry in the profile's
 * unordered_map and pushes a BranchNet token whether or not a store
 * is attached.
 */
BranchProfile
referenceProfile(BranchSource &trace, BranchPredictor &baseline,
                 const WhisperConfig &cfg, const ProfileOptions &opt)
{
    BranchProfile profile(cfg);
    trace.rewind();
    BranchRecord rec;
    uint64_t totalRecords = 0;
    while (trace.next(rec))
        ++totalRecords;
    uint64_t warmupRecords = static_cast<uint64_t>(
        opt.statsWarmupFraction * totalRecords);

    trace.rewind();
    uint64_t seen = 0;
    while (trace.next(rec)) {
        bool miss = stepRecord(baseline, rec);
        if (++seen > warmupRecords)
            profile.count(rec, miss);
    }

    std::vector<BranchProfileEntry *> candidates;
    for (auto &[pc, e] : profile.entries()) {
        if (e.baselineMispredicts >= cfg.minMispredictions &&
            e.baselineAccuracy() <= opt.maxAccuracy) {
            candidates.push_back(&e);
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const BranchProfileEntry *a,
                 const BranchProfileEntry *b) {
                  if (a->baselineMispredicts !=
                      b->baselineMispredicts)
                      return a->baselineMispredicts >
                             b->baselineMispredicts;
                  return a->pc < b->pc;
              });
    if (candidates.size() > opt.maxHardBranches)
        candidates.resize(opt.maxHardBranches);
    std::vector<uint64_t> hardPcs;
    for (auto *e : candidates) {
        profile.markHard(e->pc);
        hardPcs.push_back(e->pc);
    }
    if (opt.branchNetStore)
        opt.branchNetStore->setTracked(hardPcs);

    GlobalHistory history = sampleHistory(cfg);
    TokenHistory tokens;
    trace.rewind();
    seen = 0;
    while (trace.next(rec)) {
        bool counting = ++seen > warmupRecords;
        if (!rec.isConditional())
            continue;
        auto it = profile.entries().find(rec.pc);
        BranchProfileEntry *e =
            counting && it != profile.entries().end() ? &it->second
                                                      : nullptr;
        if (e && e->hard) {
            e->sample(rec.taken, history);
            if (opt.branchNetStore) {
                BranchNetSample sample;
                sample.tokens = tokens.snapshot();
                sample.taken = rec.taken;
                opt.branchNetStore->record(rec.pc, sample);
            }
        }
        history.push(rec.taken);
        tokens.push(rec.pc, rec.taken);
    }
    return profile;
}

} // namespace

TEST(Profiler, MatchesReferenceProfile)
{
    ExperimentConfig cfg;
    for (const char *name : {"mysql", "finagle-http"}) {
        SCOPED_TRACE(name);
        AppWorkload trace(appByName(name), 0, 200'000);
        auto tage = makeTage(64);
        auto refTage = makeTage(64);
        BranchProfile profile =
            collectProfile(trace, *tage, cfg.whisper, cfg.profile);
        BranchProfile reference = referenceProfile(
            trace, *refTage, cfg.whisper, cfg.profile);
        EXPECT_GT(profile.numHardBranches(), 0u);
        EXPECT_TRUE(profile == reference);

        // With a BranchNet store attached, its samples match too
        // (the cap is above any branch's execution count).
        BranchNetSampleStore store(1u << 20), refStore(1u << 20);
        ProfileOptions opt = cfg.profile;
        opt.branchNetStore = &store;
        tage = makeTage(64);
        profile = collectProfile(trace, *tage, cfg.whisper, opt);
        opt.branchNetStore = &refStore;
        refTage = makeTage(64);
        reference =
            referenceProfile(trace, *refTage, cfg.whisper, opt);
        EXPECT_TRUE(profile == reference);
        ASSERT_EQ(store.numBranches(), refStore.numBranches());
        for (const BranchProfileEntry *e : reference.hardBranches()) {
            const auto *got = store.find(e->pc);
            const auto *want = refStore.find(e->pc);
            ASSERT_NE(got, nullptr);
            ASSERT_NE(want, nullptr);
            ASSERT_EQ(got->size(), want->size());
            EXPECT_FALSE(want->empty());
            for (size_t i = 0; i < want->size(); ++i) {
                EXPECT_EQ((*got)[i].tokens, (*want)[i].tokens);
                EXPECT_EQ((*got)[i].taken, (*want)[i].taken);
            }
        }
    }
}

TEST(Profiler, KafkaProfileMatchesThePinnedCrc)
{
    // whisper_train's profile of the tools pipeline's training trace
    // (kafka input 0, 150k records, 64KB TAGE-SC-L, 2048 hard
    // branches at most), pinned by a CRC-32 over the three totals,
    // then each branch in PC order: its PC, executions, taken count,
    // baseline mispredictions and hard flag, and for a hard branch
    // every sample table's taken and not-taken counts. Any drift in
    // either profiling pass changes it.
    ExperimentConfig cfg;
    cfg.profile.maxHardBranches = 2048;
    BranchTrace trace;
    AppWorkload workload(appByName("kafka"), 0, 150'000);
    trace.fill(workload, 150'000);
    TraceSource source(trace);
    auto tage = makeTage(64);
    const BranchProfile profile =
        collectProfile(source, *tage, cfg.whisper, cfg.profile);

    uint32_t crc = 0;
    auto add = [&crc](const void *data, size_t bytes) {
        crc = crc32(data, bytes, crc);
    };
    auto addTable = [&add](const HashedSampleTable &t) {
        add(t.taken.data(), t.taken.size() * sizeof(uint32_t));
        add(t.notTaken.data(), t.notTaken.size() * sizeof(uint32_t));
    };
    add(&profile.totalInstructions, sizeof(uint64_t));
    add(&profile.totalConditionals, sizeof(uint64_t));
    add(&profile.totalMispredicts, sizeof(uint64_t));
    std::vector<const BranchProfileEntry *> byPc;
    for (const auto &[pc, e] : profile.entries())
        byPc.push_back(&e);
    std::sort(byPc.begin(), byPc.end(),
              [](const auto *a, const auto *b) { return a->pc < b->pc; });
    for (const BranchProfileEntry *e : byPc) {
        const uint64_t counts[] = {e->pc, e->executions, e->takenCount,
                                   e->baselineMispredicts};
        const uint8_t hard = e->hard;
        add(counts, sizeof counts);
        add(&hard, 1);
        if (!e->hard)
            continue;
        for (const HashedSampleTable &t : e->byLength)
            addTable(t);
        addTable(e->raw4);
        addTable(e->raw8);
    }
    EXPECT_EQ(profile.numBranches(), 3584u);
    EXPECT_EQ(profile.numHardBranches(), 19u);
    EXPECT_EQ(crc, 1609008105u);
}

TEST(Profiler, OfflineAndStreamingProfilesCountAlike)
{
    // Both profilers run the same count step over the same records:
    // collectProfile's warm-up fraction, expressed as records, is the
    // ChunkProfiler's statsWarmupRecords.
    ExperimentConfig cfg;
    std::vector<BranchRecord> records;
    AppWorkload workload(appByName("mysql"), 0, 200'000);
    BranchRecord rec;
    while (workload.next(rec))
        records.push_back(rec);

    TraceSource source(records);
    auto offlineTage = makeTage(64);
    BranchProfile offline =
        collectProfile(source, *offlineTage, cfg.whisper, cfg.profile);

    ChunkProfiler::Options opt;
    opt.statsWarmupRecords = static_cast<uint64_t>(
        cfg.profile.statsWarmupFraction * records.size());
    ChunkProfiler streaming(cfg.whisper, makeTage(64), opt);
    streaming.profileChunk(records);
    const BranchProfile &online = streaming.profile();

    EXPECT_EQ(offline.totalInstructions, online.totalInstructions);
    EXPECT_EQ(offline.totalConditionals, online.totalConditionals);
    EXPECT_EQ(offline.totalMispredicts, online.totalMispredicts);
    EXPECT_EQ(offline.numBranches(), online.numBranches());
    for (const auto &[pc, e] : offline.entries()) {
        ASSERT_TRUE(online.entries().contains(pc))
            << "pc 0x" << std::hex << pc;
        const BranchProfileEntry *o = &online.entries().at(pc);
        EXPECT_EQ(e.executions, o->executions);
        EXPECT_EQ(e.takenCount, o->takenCount);
        EXPECT_EQ(e.baselineMispredicts, o->baselineMispredicts);
    }
}

TEST(Classifier, CapacityDominatesDataCenterApps)
{
    // The paper's Fig. 3 finding: capacity misses dominate.
    const AppConfig &app = appByName("mysql");
    AppWorkload trace(app, 0, 400000);
    auto tage = makeTage(64);
    auto breakdown = classifyMispredictions(trace, *tage);
    EXPECT_GT(breakdown.total, 1000u);
    double capacity =
        breakdown.fraction(MispredictClass::Capacity);
    EXPECT_GT(capacity,
              breakdown.fraction(MispredictClass::Compulsory));
    EXPECT_GT(capacity,
              breakdown.fraction(MispredictClass::Conflict));
    double sum = 0;
    for (auto c :
         {MispredictClass::Compulsory, MispredictClass::Capacity,
          MispredictClass::Conflict,
          MispredictClass::ConditionalOnData})
        sum += breakdown.fraction(c);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Classifier, IdealPredictorHasNoMispredicts)
{
    const AppConfig &app = appByName("kafka");
    AppWorkload trace(app, 0, 50000);
    IdealPredictor ideal;
    auto breakdown = classifyMispredictions(trace, ideal);
    EXPECT_EQ(breakdown.total, 0u);
}

TEST(Analysis, MispredictCdfSpreadVsConcentrated)
{
    // Fig. 5: data center apps spread mispredictions across many
    // branches; SPEC-like apps concentrate them.
    auto cdfTop50 = [](const std::string &name) {
        AppWorkload trace(appByName(name), 0, 400000);
        auto tage = makeTage(64);
        auto hist = mispredictsPerBranch(trace, *tage);
        return hist.topFraction(50);
    };
    double dc = cdfTop50("mysql");
    double spec = cdfTop50("leela");
    EXPECT_LT(dc, spec);
    EXPECT_GT(spec, 0.35);
}

TEST(Analysis, HistoryLengthAttribution)
{
    ExperimentConfig cfg = smallConfig();
    const AppConfig &app = appByName("python");
    BranchProfile profile = profileApp(app, 0, cfg);
    auto hist = mispredictsByHistoryLength(profile);
    EXPECT_GT(hist.total(), 0u);
    // python's correlated branches start at series index 4
    // (length >= 26), so some mass must sit beyond the 9-16 bucket.
    double beyond16 = 0;
    for (size_t b = 2; b < hist.numBuckets(); ++b)
        beyond16 += hist.bucketFraction(b);
    EXPECT_GT(beyond16, 0.2);
}

TEST(Analysis, OpClassDistributionCoversExecutions)
{
    ExperimentConfig cfg = smallConfig();
    const AppConfig &app = appByName("mysql");
    BranchProfile profile = profileApp(app, 0, cfg);
    WhisperBuild build = trainWhisper(app, 0, profile, cfg);
    auto dist = opClassDistribution(profile, build.hints);
    EXPECT_GT(dist.total, 0u);
    // Strongly biased branches exist in every app.
    EXPECT_GT(dist.fraction(OpClass::AlwaysTaken), 0.05);
    double sum = 0;
    for (unsigned c = 0; c < 7; ++c)
        sum += dist.fraction(static_cast<OpClass>(c));
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Experiment, WhisperBeatsBaselineCrossInput)
{
    // The headline effect (Fig. 13) on one app. This one needs a
    // denser profile than the other tests: thin sample tables leave
    // too few hints to measure a reduction reliably.
    ExperimentConfig cfg = smallConfig();
    cfg.trainRecords = 1'000'000;
    cfg.testRecords = 800'000;
    cfg.profile.maxHardBranches = 2048;
    const AppConfig &app = appByName("mysql");
    BranchProfile profile = profileApp(app, 0, cfg);
    WhisperBuild build = trainWhisper(app, 0, profile, cfg);
    EXPECT_GT(build.hints.size(), 50u);
    EXPECT_EQ(build.placements.size(), build.hints.size());
    EXPECT_GT(build.overhead.dynamicIncreasePct, 0.0);

    auto base = makeTage(cfg.tageBudgetKB);
    auto s0 = evalApp(app, 1, cfg, *base, 0.5);
    auto wp = makeWhisperPredictor(cfg, build);
    auto s1 = evalApp(app, 1, cfg, *wp, 0.5);
    EXPECT_GT(reductionPercent(s0, s1), 5.0);
}

TEST(Experiment, RombfHelpsButLessThanWhisper)
{
    ExperimentConfig cfg = smallConfig();
    const AppConfig &app = appByName("mysql");
    BranchProfile profile = profileApp(app, 0, cfg);
    WhisperBuild build = trainWhisper(app, 0, profile, cfg);

    auto base = makeTage(cfg.tageBudgetKB);
    auto s0 = evalApp(app, 1, cfg, *base, 0.5);

    auto rombf = makeRombfPredictor(8, profile, cfg);
    auto sR = evalApp(app, 1, cfg, *rombf, 0.5);

    auto wp = makeWhisperPredictor(cfg, build);
    auto sW = evalApp(app, 1, cfg, *wp, 0.5);

    EXPECT_GT(reductionPercent(s0, sW), reductionPercent(s0, sR));
}

TEST(Experiment, IdealBeatsEverything)
{
    ExperimentConfig cfg = smallConfig();
    const AppConfig &app = appByName("drupal");
    auto base = makeTage(cfg.tageBudgetKB);
    auto s0 = evalApp(app, 1, cfg, *base, 0.5);
    IdealPredictor ideal;
    auto sI = evalApp(app, 1, cfg, ideal, 0.5);
    EXPECT_EQ(sI.mispredicts, 0u);
    EXPECT_GT(s0.mispredicts, 0u);
}

TEST(Experiment, MtageReducesCapacityMisses)
{
    ExperimentConfig cfg = smallConfig();
    const AppConfig &app = appByName("clang");
    auto base = makeTage(cfg.tageBudgetKB);
    auto s0 = evalApp(app, 1, cfg, *base, 0.5);
    auto mtage = makeMtage(cfg);
    auto s1 = evalApp(app, 1, cfg, *mtage, 0.5);
    EXPECT_GT(reductionPercent(s0, s1), 10.0);
}

TEST(Experiment, MergedProfilesCoverMoreBranches)
{
    // Fig. 18 mechanism: merging input profiles grows coverage.
    ExperimentConfig cfg = smallConfig();
    const AppConfig &app = appByName("wordpress");
    BranchProfile p0 = profileApp(app, 0, cfg);
    size_t solo = p0.numHardBranches();
    BranchProfile p1 = profileApp(app, 2, cfg);
    p0.mergeFrom(p1);
    EXPECT_GE(p0.numHardBranches(), solo);
    EXPECT_GT(p0.totalInstructions, p1.totalInstructions);
}

TEST(Experiment, PipelineSpeedupFromBetterPrediction)
{
    // Fig. 1 mechanism at small scale: the ideal direction
    // predictor must yield higher IPC than the 64KB baseline.
    ExperimentConfig cfg = smallConfig();
    const AppConfig &app = appByName("python");
    auto base = makeTage(cfg.tageBudgetKB);
    auto pBase = evalPipeline(app, 1, cfg, *base);
    IdealPredictor ideal;
    auto pIdeal = evalPipeline(app, 1, cfg, ideal);
    EXPECT_GT(pIdeal.ipc(), pBase.ipc());
    EXPECT_EQ(pIdeal.mispredicts, 0u);
    EXPECT_GT(pBase.squashCycles, 0.0);
}

TEST(TruthTableCacheSingleton, StableReference)
{
    const TruthTableCache &a = globalTruthTables();
    const TruthTableCache &b = globalTruthTables();
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.numInputs(), 8u);
}

namespace
{

/** Append one record to a trace. */
void
addRec(BranchTrace &t, uint64_t pc, bool taken,
       BranchKind kind = BranchKind::Conditional)
{
    BranchRecord rec;
    rec.pc = pc;
    rec.taken = taken;
    rec.kind = kind;
    rec.instGap = 4;
    t.append(rec);
}

} // namespace

TEST(ClassifierUnit, FirstReferenceIsCompulsory)
{
    // One branch, executed once, mispredicted by a static-NT
    // predictor: exactly one compulsory miss.
    BranchTrace t("unit", 0);
    addRec(t, 0x100, true);
    TraceSource src(t);
    StaticPredictor nt(false);
    auto b = classifyMispredictions(src, nt);
    EXPECT_EQ(b.total, 1u);
    EXPECT_EQ(b.counts[static_cast<size_t>(
                  MispredictClass::Compulsory)],
              1u);
}

TEST(ClassifierUnit, InconsistentSubstreamIsDataDependent)
{
    // Branch B executes in a *constant* history context (a long run
    // of always-taken A's precedes it every time) but resolves in
    // alternating directions: its substream recurs with mixed
    // outcomes -> conditional-on-data.
    BranchTrace t("unit", 0);
    Rng rng(3);
    for (int round = 0; round < 60; ++round) {
        for (int i = 0; i < 40; ++i)
            addRec(t, 0xA00, true);
        addRec(t, 0xB00, round % 2 == 0);
    }
    TraceSource src(t);
    StaticPredictor taken(true);
    auto b = classifyMispredictions(src, taken);
    // B mispredicts on every odd round (static-taken vs not-taken);
    // after warm-up those misses classify as conditional-on-data.
    EXPECT_GT(b.counts[static_cast<size_t>(
                  MispredictClass::ConditionalOnData)],
              15u);
}

TEST(ClassifierUnit, FreshContextsAreCapacity)
{
    // Branch C executes under a different history context every
    // time (a varying run-length of A's precedes it): each
    // occurrence after the first is a known-PC/new-substream miss,
    // the capacity signature.
    BranchTrace t("unit", 0);
    Rng rng(9);
    for (int round = 0; round < 80; ++round) {
        // Vary the context with a pseudo-random prefix pattern.
        for (int i = 0; i < 30; ++i)
            addRec(t, 0xA00 + 16 * (i % 3), rng.nextBool(0.5));
        addRec(t, 0xC00, false);
    }
    TraceSource src(t);
    StaticPredictor taken(true);
    auto b = classifyMispredictions(src, taken);
    uint64_t capacity =
        b.counts[static_cast<size_t>(MispredictClass::Capacity)];
    EXPECT_GT(capacity, 30u);
}

TEST(ClassifierUnit, FractionsSumToOne)
{
    BranchTrace t("unit", 0);
    Rng rng(5);
    for (int i = 0; i < 5000; ++i)
        addRec(t, 0x100 + 16 * (i % 37), rng.nextBool(0.6));
    TraceSource src(t);
    StaticPredictor nt(false);
    auto b = classifyMispredictions(src, nt);
    ASSERT_GT(b.total, 0u);
    uint64_t sum = 0;
    for (auto c : b.counts)
        sum += c;
    EXPECT_EQ(sum, b.total);
}
