/**
 * @file
 * Integration tests: profiler, classifier, analyses, and the full
 * cross-input experiment pipeline on small traces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "bp/simple_predictors.hh"
#include "bp/tage_scl.hh"
#include "core/whisper_predictor.hh"
#include "service/chunk_profiler.hh"
#include "sim/analysis.hh"
#include "trace/branch_trace.hh"
#include "sim/classifier.hh"
#include "sim/experiment.hh"
#include "util/rng.hh"

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
    BranchProfile online = streaming.profileChunk(records);

    EXPECT_EQ(offline.totalInstructions, online.totalInstructions);
    EXPECT_EQ(offline.totalConditionals, online.totalConditionals);
    EXPECT_EQ(offline.totalMispredicts, online.totalMispredicts);
    EXPECT_EQ(offline.numBranches(), online.numBranches());
    for (const auto &[pc, e] : offline.entries()) {
        const BranchProfileEntry *o = online.find(pc);
        ASSERT_NE(o, nullptr) << "pc 0x" << std::hex << pc;
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
