/**
 * @file
 * Scenario-diversity stress suite (registered under the `drift.`
 * ctest prefix): DriftSpec parsing, drifting/adversarial AppWorkload
 * semantics, CBP-style foreign-trace import, and — the headline —
 * an end-to-end adaptation harness around whisperd's own epoch
 * step (trainEpochStep) asserting concrete recovery contracts:
 *
 *  - after a phase change, retraining + validated redeployment pulls
 *    the per-epoch mispredict rate back to within a stated bound of
 *    the pre-drift epoch;
 *  - adversarial decorrelation (correlated profiling prefix, then
 *    coin flips) triggers validation-gated rejection instead of
 *    deploying a regressing bundle, and the online predictor never
 *    does materially worse than plain TAGE on the decorrelated tail.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "service/chunk_profiler.hh"
#include "service/hint_store.hh"
#include "service/tenant_router.hh"
#include "core/whisper_trainer.hh"
#include "sim/experiment.hh"
#include "trace/branch_trace.hh"
#include "trace/cbp_reader.hh"
#include "workloads/app_workload.hh"

using namespace whisper;

namespace
{

/** Small custom app for the cheap semantic tests. */
AppConfig
smallApp()
{
    AppConfig app;
    app.name = "drift-unit";
    app.seed = 77;
    app.numRegions = 60;
    app.minBranchesPerRegion = 4;
    app.maxBranchesPerRegion = 12;
    app.numRequestTypes = 40;
    app.requestLenMin = 3;
    app.requestLenMax = 8;
    app.wBiased = 0.45;
    app.wLoop = 0.05;
    app.wShortHistory = 0.25;
    app.wHashedHistory = 0.20;
    app.wRandom = 0.05;
    app.maxCorrelationIdx = 8;
    return app;
}

std::vector<BranchRecord>
collect(BranchSource &src, uint64_t limit = ~0ULL)
{
    std::vector<BranchRecord> out;
    BranchRecord rec;
    while (out.size() < limit && src.next(rec))
        out.push_back(rec);
    return out;
}

std::vector<BranchRecord>
genDrift(const AppConfig &app, uint32_t input, uint64_t records,
         const DriftSpec &drift)
{
    AppWorkload workload(app, input, records, drift);
    return collect(workload);
}

::testing::AssertionResult
sameRecords(const std::vector<BranchRecord> &a,
            const std::vector<BranchRecord> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "size " << a.size() << " vs " << b.size();
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].pc != b[i].pc || a[i].target != b[i].target ||
            a[i].kind != b[i].kind || a[i].taken != b[i].taken ||
            a[i].instGap != b[i].instGap)
            return ::testing::AssertionFailure()
                   << "record " << i << " differs";
    }
    return ::testing::AssertionSuccess();
}

double
epochRate(const AdaptiveRunStats &stats, size_t epoch)
{
    const PredictorRunStats &ep = stats.perEpoch[epoch];
    return ep.conditionals
               ? static_cast<double>(ep.mispredicts) /
                     static_cast<double>(ep.conditionals)
               : 0.0;
}

/** One epoch step of the online loop and the epoch it ran at. */
struct Proposal
{
    uint64_t epoch;
    EpochOutcome outcome;
};
using ProposalLog = std::vector<Proposal>;

/**
 * The drift harness around whisperd's epoch step (trainEpochStep):
 * at every @p trainEvery epoch boundary, profile the most recent
 * @p historyWindows windows with a FRESH streaming profiler (a
 * cumulative profile would dilute post-drift statistics with
 * pre-drift history), then run the step: train on that profile,
 * place brhints over those windows, validate candidate vs incumbent
 * on the newest window and propose to the store with @p margin. The
 * fleet predictor is the consultant-managed Whisper-over-TAGE,
 * swapped in place on every accepted deployment.
 *
 * @p trainPrune and @p warmStart switch the step's sparse-correlation
 * screen and its warm start (with the cold fallback), as whisperd's
 * --train-prune and --warm-start do.
 */
AdaptiveRunStats
runOnlineWhisperd(const std::vector<BranchRecord> &stream,
                  uint64_t window, unsigned trainEvery,
                  unsigned historyWindows, double margin,
                  const ExperimentConfig &cfg, HintStore &store,
                  ProposalLog *proposals = nullptr,
                  bool trainPrune = false, bool warmStart = false)
{
    TenantRouterConfig step;
    step.trainWorkers = 2;
    step.tageBudgetKB = cfg.tageBudgetKB;
    step.acceptMargin = margin;
    step.whisper = cfg.whisper;
    step.injector = cfg.injector;
    step.trainPrune = trainPrune;
    step.warmStart = warmStart;
    HintStoreConsultant consultant(
        store, cfg.whisper, globalTruthTables(),
        [&] { return makeTage(cfg.tageBudgetKB); });

    auto onEpoch = [&](uint64_t nextEpoch) -> BranchPredictor * {
        if (nextEpoch % trainEvery == 0) {
            size_t to =
                std::min<size_t>(stream.size(), nextEpoch * window);
            size_t span = std::min<size_t>(
                to, static_cast<size_t>(historyWindows) * window);
            std::vector<BranchRecord> recent(
                stream.begin() + (to - span), stream.begin() + to);

            ChunkProfiler::Options opt;
            opt.maxHardBranches = cfg.profile.maxHardBranches;
            opt.statsWarmupRecords = window / 2;
            ChunkProfiler profiler(cfg.whisper,
                                   makeTage(cfg.tageBudgetKB), opt);
            profiler.profileChunk(recent);
            if (profiler.profile().numBranches() > 0) {
                size_t newestSpan = std::min<size_t>(to, window);
                std::vector<BranchRecord> newest(
                    stream.begin() + (to - newestSpan),
                    stream.begin() + to);
                EpochOutcome out = trainEpochStep(
                    step, globalTruthTables(), profiler.profile(),
                    recent, newest, store);
                if (proposals)
                    proposals->push_back({nextEpoch, out});
            }
        }
        return consultant.refresh(nextEpoch);
    };

    TraceSource src(stream);
    return runPredictorAdaptive(src, consultant.predictor(), window,
                                onEpoch);
}

} // namespace

// --------------------------------------------------------------------
// DriftSpec parsing
// --------------------------------------------------------------------

TEST(Spec, ParsesPhaseSpec)
{
    DriftSpec spec;
    std::string error;
    ASSERT_TRUE(parseDriftSpec(
        "phase:period=50000,phases=3,intensity=0.4,seed=9", &spec,
        &error))
        << error;
    EXPECT_EQ(spec.kind, DriftKind::Phase);
    EXPECT_EQ(spec.periodRecords, 50'000u);
    EXPECT_EQ(spec.phases, 3u);
    EXPECT_DOUBLE_EQ(spec.intensity, 0.4);
    EXPECT_EQ(spec.seed, 9u);
    EXPECT_TRUE(spec.active());
}

TEST(Spec, ParsesAdversarialWithDefaults)
{
    DriftSpec spec;
    std::string error;
    ASSERT_TRUE(parseDriftSpec("adversarial:period=1000", &spec,
                               &error))
        << error;
    EXPECT_EQ(spec.kind, DriftKind::Adversarial);
    EXPECT_EQ(spec.periodRecords, 1'000u);
    EXPECT_DOUBLE_EQ(spec.decorrelate, 1.0);

    ASSERT_TRUE(parseDriftSpec("adversarial:period=1000,frac=0.25",
                               &spec, &error))
        << error;
    EXPECT_DOUBLE_EQ(spec.decorrelate, 0.25);

    ASSERT_TRUE(parseDriftSpec("none", &spec, &error)) << error;
    EXPECT_FALSE(spec.active());
}

TEST(Spec, RejectsMalformedSpecs)
{
    DriftSpec spec;
    std::string error;
    const char *bad[] = {
        "wobble:period=5",         // unknown kind
        "phase",                   // active kind without a period
        "phase:period=0",          // zero period
        "phase:period=5,phases=0", // zero phases
        "phase:period=5,bogus=1",  // unknown key
        "phase:period=x",          // non-numeric value
        "phase:intensity=1.5",     // out-of-range fraction
        "phase:period",            // missing '='
    };
    for (const char *s : bad) {
        error.clear();
        EXPECT_FALSE(parseDriftSpec(s, &spec, &error)) << s;
        EXPECT_FALSE(error.empty()) << s;
    }
}

TEST(Spec, DescribeRoundTrips)
{
    for (const char *s :
         {"none", "phase:period=100,phases=2,intensity=0.3,seed=1",
          "gradual:period=64,phases=5,intensity=1,seed=0",
          "adversarial:period=9,frac=0.5,seed=3"}) {
        DriftSpec spec;
        std::string error;
        ASSERT_TRUE(parseDriftSpec(s, &spec, &error)) << error;
        DriftSpec reparsed;
        ASSERT_TRUE(parseDriftSpec(describeDriftSpec(spec),
                                   &reparsed, &error))
            << error;
        EXPECT_EQ(reparsed.kind, spec.kind) << s;
        EXPECT_EQ(reparsed.periodRecords, spec.periodRecords) << s;
        EXPECT_EQ(reparsed.phases, spec.phases) << s;
        EXPECT_DOUBLE_EQ(reparsed.intensity, spec.intensity) << s;
        EXPECT_DOUBLE_EQ(reparsed.decorrelate, spec.decorrelate)
            << s;
        EXPECT_EQ(reparsed.seed, spec.seed) << s;
    }
}

// --------------------------------------------------------------------
// Drifting workload semantics
// --------------------------------------------------------------------

TEST(Workload, NoneSpecMatchesBaseExactly)
{
    AppConfig app = smallApp();
    const uint64_t n = 40'000;
    AppWorkload base(app, 1, n);
    AppWorkload none(app, 1, n, DriftSpec{});
    EXPECT_TRUE(sameRecords(collect(base), collect(none)));
}

TEST(Workload, DriftingStreamIsDeterministicAndRewindable)
{
    AppConfig app = smallApp();
    DriftSpec drift;
    drift.kind = DriftKind::Phase;
    drift.periodRecords = 10'000;
    drift.phases = 3;
    drift.intensity = 0.6;
    const uint64_t n = 45'000;

    AppWorkload a(app, 0, n, drift);
    std::vector<BranchRecord> first = collect(a);
    a.rewind();
    std::vector<BranchRecord> second = collect(a);
    EXPECT_TRUE(sameRecords(first, second));

    AppWorkload b(app, 0, n, drift);
    EXPECT_TRUE(sameRecords(first, collect(b)));
}

TEST(Workload, PhaseZeroPrefixMatchesBase)
{
    AppConfig app = smallApp();
    DriftSpec drift;
    drift.kind = DriftKind::Phase;
    drift.periodRecords = 15'000;
    drift.phases = 2;
    drift.intensity = 0.8;
    const uint64_t n = 45'000;

    std::vector<BranchRecord> base = genDrift(app, 0, n, DriftSpec{});
    std::vector<BranchRecord> drifted = genDrift(app, 0, n, drift);

    // Phase 0 IS the base view: identical until the first boundary.
    std::vector<BranchRecord> basePrefix(
        base.begin(), base.begin() + drift.periodRecords);
    std::vector<BranchRecord> driftPrefix(
        drifted.begin(), drifted.begin() + drift.periodRecords);
    EXPECT_TRUE(sameRecords(basePrefix, driftPrefix));
    // ...and genuinely different afterwards.
    EXPECT_FALSE(sameRecords(base, drifted));
}

TEST(Workload, PhaseCyclesBackToBaseView)
{
    AppConfig app = smallApp();
    DriftSpec drift;
    drift.kind = DriftKind::Phase;
    drift.periodRecords = 10'000;
    drift.phases = 2;
    drift.intensity = 0.9;

    AppWorkload base(app, 0, 50'000);
    AppWorkload drifted(app, 0, 50'000, drift);

    // Drive into the middle of the rotated phase: some dynamic site
    // state must differ from base.
    collect(drifted, 15'000);
    const auto &bs = base.sites();
    const auto &ds = drifted.sites();
    ASSERT_EQ(bs.size(), ds.size());
    size_t differing = 0;
    for (size_t i = 0; i < bs.size(); ++i) {
        if (bs[i].param != ds[i].param ||
            bs[i].noise != ds[i].noise ||
            bs[i].formula.encoding() != ds[i].formula.encoding())
            ++differing;
    }
    EXPECT_GT(differing, 0u);

    // Drive into the third segment (phase 2 % 2 == 0): the base
    // view must be re-installed exactly.
    collect(drifted, 6'000); // now past record 21000
    for (size_t i = 0; i < bs.size(); ++i) {
        ASSERT_EQ(bs[i].param, drifted.sites()[i].param) << i;
        ASSERT_EQ(bs[i].noise, drifted.sites()[i].noise) << i;
        ASSERT_EQ(bs[i].formula.encoding(),
                  drifted.sites()[i].formula.encoding())
            << i;
    }
}

TEST(Workload, GradualFirstStepMatchesBaseThenMorphs)
{
    AppConfig app = smallApp();
    DriftSpec drift;
    drift.kind = DriftKind::Gradual;
    drift.periodRecords = 32'000; // 1000 records per blend step
    drift.phases = 2;
    drift.intensity = 0.7;
    const uint64_t n = 40'000;

    std::vector<BranchRecord> base = genDrift(app, 0, n, DriftSpec{});
    std::vector<BranchRecord> drifted = genDrift(app, 0, n, drift);

    // Blend step 0 is alpha=0, i.e. exactly phase 0 == base.
    uint64_t step = drift.periodRecords / 32;
    std::vector<BranchRecord> basePrefix(base.begin(),
                                         base.begin() + step);
    std::vector<BranchRecord> driftPrefix(drifted.begin(),
                                          drifted.begin() + step);
    EXPECT_TRUE(sameRecords(basePrefix, driftPrefix));
    EXPECT_FALSE(sameRecords(base, drifted));
}

TEST(Workload, GradualKeepsDynamicsInRangeAndStructureFixed)
{
    AppConfig app = smallApp();
    DriftSpec drift;
    drift.kind = DriftKind::Gradual;
    drift.periodRecords = 8'000;
    drift.phases = 4;
    drift.intensity = 1.0;

    AppWorkload base(app, 0, 1);
    AppWorkload drifted(app, 0, 64'000, drift);
    for (int leg = 0; leg < 8; ++leg) {
        collect(drifted, 8'000);
        const auto &bs = base.sites();
        const auto &ds = drifted.sites();
        ASSERT_EQ(bs.size(), ds.size());
        for (size_t i = 0; i < ds.size(); ++i) {
            // Dynamic view stays sane at every blend step...
            EXPECT_GE(ds[i].param, 0.0) << i;
            EXPECT_LE(ds[i].param, 1.0) << i;
            EXPECT_GE(ds[i].noise, 0.0) << i;
            EXPECT_LE(ds[i].noise, 0.5) << i;
            // ...and the static structure never moves.
            EXPECT_EQ(ds[i].pc, bs[i].pc) << i;
            EXPECT_EQ(ds[i].kind, bs[i].kind) << i;
            EXPECT_EQ(ds[i].loopPeriod, bs[i].loopPeriod) << i;
            EXPECT_EQ(ds[i].histLen, bs[i].histLen) << i;
        }
    }
}

TEST(Workload, AdversarialPrefixMatchesBaseAndFracZeroIsInert)
{
    AppConfig app = smallApp();
    DriftSpec drift;
    drift.kind = DriftKind::Adversarial;
    drift.periodRecords = 20'000;
    const uint64_t n = 40'000;

    std::vector<BranchRecord> base = genDrift(app, 0, n, DriftSpec{});
    std::vector<BranchRecord> adv = genDrift(app, 0, n, drift);
    std::vector<BranchRecord> basePrefix(
        base.begin(), base.begin() + drift.periodRecords);
    std::vector<BranchRecord> advPrefix(
        adv.begin(), adv.begin() + drift.periodRecords);
    EXPECT_TRUE(sameRecords(basePrefix, advPrefix));
    EXPECT_FALSE(sameRecords(base, adv));

    // frac=0 selects no site: the whole stream is the base stream.
    drift.decorrelate = 0.0;
    EXPECT_TRUE(sameRecords(base, genDrift(app, 0, n, drift)));
}

TEST(Workload, AdversarialDecorrelationDegradesTage)
{
    const AppConfig &app = appByName("kafka");
    DriftSpec drift;
    drift.kind = DriftKind::Adversarial;
    drift.periodRecords = 120'000;
    drift.decorrelate = 1.0;
    const uint64_t n = 240'000, window = 60'000;

    std::vector<BranchRecord> base = genDrift(app, 0, n, DriftSpec{});
    std::vector<BranchRecord> adv = genDrift(app, 0, n, drift);

    auto runTage = [&](const std::vector<BranchRecord> &stream) {
        auto tage = makeTage(64);
        TraceSource src(stream);
        return runPredictorAdaptive(src, *tage, window, nullptr);
    };
    AdaptiveRunStats baseRun = runTage(base);
    AdaptiveRunStats advRun = runTage(adv);
    ASSERT_EQ(baseRun.perEpoch.size(), 4u);
    ASSERT_EQ(advRun.perEpoch.size(), 4u);

    // Identical prefix -> identical predictor trajectory there.
    EXPECT_EQ(advRun.perEpoch[0].mispredicts,
              baseRun.perEpoch[0].mispredicts);
    EXPECT_EQ(advRun.perEpoch[1].mispredicts,
              baseRun.perEpoch[1].mispredicts);
    // Decorrelated tail: even an online-adapting TAGE must lose
    // clearly measurable accuracy on coin-flip traffic.
    EXPECT_GT(epochRate(advRun, 3), epochRate(baseRun, 3) + 0.02);
}

// --------------------------------------------------------------------
// CBP-style foreign-trace import
// --------------------------------------------------------------------

TEST(Cbp, RoundTripPreservesRecordsAndMetadata)
{
    AppConfig app = smallApp();
    AppWorkload workload(app, 2, 5'000);
    BranchTrace trace("drift-unit", 2);
    trace.fill(workload, 5'000);

    std::string path = ::testing::TempDir() + "drift_rt.cbp";
    ASSERT_TRUE(saveCbpTrace(trace, path));

    BranchTrace loaded;
    IoStatus st = loadCbpTrace(path, &loaded);
    ASSERT_TRUE(st) << st.message;
    EXPECT_EQ(loaded.app(), trace.app());
    EXPECT_EQ(loaded.inputId(), trace.inputId());
    ASSERT_EQ(loaded.size(), trace.size());
    EXPECT_EQ(loaded.instructions(), trace.instructions());
    EXPECT_EQ(loaded.conditionals(), trace.conditionals());
    for (size_t i = 0; i < trace.size(); ++i) {
        ASSERT_EQ(loaded[i].pc, trace[i].pc) << i;
        ASSERT_EQ(loaded[i].target, trace[i].target) << i;
        ASSERT_EQ(loaded[i].kind, trace[i].kind) << i;
        ASSERT_EQ(loaded[i].taken, trace[i].taken) << i;
        ASSERT_EQ(loaded[i].instGap, trace[i].instGap) << i;
    }
    std::remove(path.c_str());
}

TEST(Cbp, FileSourceStreamsBehindBranchSource)
{
    AppConfig app = smallApp();
    AppWorkload workload(app, 0, 3'000);
    BranchTrace trace("drift-unit", 0);
    trace.fill(workload, 3'000);
    std::string path = ::testing::TempDir() + "drift_src.cbp";
    ASSERT_TRUE(saveCbpTrace(trace, path));

    CbpFileSource source(path);
    ASSERT_TRUE(source.status()) << source.status().message;
    std::vector<BranchRecord> streamed = collect(source);
    ASSERT_TRUE(source.status()) << source.status().message;
    EXPECT_EQ(source.app(), "drift-unit");

    std::vector<BranchRecord> expected(trace.begin(), trace.end());
    EXPECT_TRUE(sameRecords(streamed, expected));

    // Multi-pass consumers rewind the file.
    source.rewind();
    EXPECT_TRUE(sameRecords(collect(source), expected));
    std::remove(path.c_str());
}

TEST(Cbp, MinimalTwoColumnFormatImportsWithDefaults)
{
    std::string path = ::testing::TempDir() + "drift_min.cbp";
    {
        std::ofstream out(path);
        out << "# a hand-written foreign trace\n"
            << "0x4000a0 1\n"
            << "4000b0 0\n"
            << "4000a0 T\n"
            << "4000c0 N\n";
    }
    BranchTrace trace;
    IoStatus st = loadCbpTrace(path, &trace);
    ASSERT_TRUE(st) << st.message;
    ASSERT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace[0].pc, 0x4000a0u);
    EXPECT_TRUE(trace[0].taken);
    EXPECT_EQ(trace[0].target, 0x4000a4u); // pc + 4 default
    EXPECT_EQ(trace[0].kind, BranchKind::Conditional);
    EXPECT_FALSE(trace[1].taken);
    EXPECT_TRUE(trace[2].taken);
    EXPECT_FALSE(trace[3].taken);
    EXPECT_EQ(trace.conditionals(), 4u);
    std::remove(path.c_str());
}

TEST(Cbp, DistinguishesMissingFromMalformed)
{
    BranchTrace trace;
    IoStatus missing =
        loadCbpTrace(::testing::TempDir() + "no_such.cbp", &trace);
    EXPECT_TRUE(missing.missing()) << missing.message;

    std::string path = ::testing::TempDir() + "drift_bad.cbp";
    {
        std::ofstream out(path);
        out << "4000a0 1\n"
            << "not-a-pc 1\n";
    }
    IoStatus corrupt = loadCbpTrace(path, &trace);
    EXPECT_TRUE(corrupt.corrupt());
    EXPECT_NE(corrupt.message.find("line 2"), std::string::npos)
        << corrupt.message;

    CbpFileSource source(path);
    BranchRecord rec;
    EXPECT_TRUE(source.next(rec)); // line 1 parses
    EXPECT_FALSE(source.next(rec));
    EXPECT_TRUE(source.status().corrupt());
    std::remove(path.c_str());
}

// --------------------------------------------------------------------
// End-to-end adaptation contracts (the headline)
// --------------------------------------------------------------------

TEST(Recovery, RedeployRestoresAccuracyAfterPhaseChange)
{
    ExperimentConfig cfg;
    cfg.profile.maxHardBranches = 256;

    const AppConfig &app = appByName("kafka");
    DriftSpec drift;
    drift.kind = DriftKind::Phase;
    drift.periodRecords = 120'000;
    drift.phases = 2;
    drift.intensity = 0.7;
    const uint64_t total = 480'000, window = 30'000;
    // Epoch layout: 0-3 phase 0, 4-7 phase 1, 8-11 phase 0,
    // 12-15 phase 1; retraining every 2 epochs on the last 2
    // windows.

    std::vector<BranchRecord> stream =
        genDrift(app, 0, total, drift);

    HintStore store;
    AdaptiveRunStats online = runOnlineWhisperd(
        stream, window, /*trainEvery=*/2, /*historyWindows=*/2,
        /*margin=*/0.0, cfg, store);

    ASSERT_EQ(online.perEpoch.size(), 16u);
    // The service must actually deploy (initially, and again after
    // the drift). Deployments are in-place hint swaps on the warm
    // consultant-managed predictor, so predictorSwaps stays 0.
    EXPECT_GE(store.accepted(), 2u);
    EXPECT_EQ(online.predictorSwaps, 0u);

    double preDrift = epochRate(online, 3);
    // Contract 1: the phase change visibly hurts first (stale
    // behavior right after the boundary)...
    double spike = std::max(epochRate(online, 4),
                            epochRate(online, 5));
    EXPECT_GT(spike, preDrift);
    // Contract 2: ...and by the end of the drifted segment,
    // retraining + redeployment has pulled the epoch mispredict
    // rate back to within 2 points of the pre-drift epoch.
    EXPECT_LE(epochRate(online, 7), preDrift + 0.02);
    // Contract 3: returning to the original phase recovers to
    // within 1 point of the original epoch rate.
    EXPECT_LE(epochRate(online, 11), preDrift + 0.01);
}

TEST(Recovery, WarmStartDoesNotSlowRecoveryAfterDrift)
{
    // The warm-start leg of the recovery contract: with pruning and
    // warm seeding enabled (whisperd's production defaults), the
    // adaptive loop must recover from the same phase change within
    // the SAME bounds as the cold loop above. The branch-level gates
    // re-validate every seed on the fresh post-drift profile, so a
    // decorrelated seed falls through to the cold search instead of
    // pinning the service to a stale formula.
    ExperimentConfig cfg;
    cfg.profile.maxHardBranches = 256;

    const AppConfig &app = appByName("kafka");
    DriftSpec drift;
    drift.kind = DriftKind::Phase;
    drift.periodRecords = 120'000;
    drift.phases = 2;
    drift.intensity = 0.7;
    const uint64_t total = 480'000, window = 30'000;

    std::vector<BranchRecord> stream =
        genDrift(app, 0, total, drift);

    HintStore store;
    ProposalLog proposals;
    AdaptiveRunStats online = runOnlineWhisperd(
        stream, window, /*trainEvery=*/2, /*historyWindows=*/2,
        /*margin=*/0.0, cfg, store, &proposals, /*trainPrune=*/true,
        /*warmStart=*/true);

    ASSERT_EQ(online.perEpoch.size(), 16u);
    EXPECT_GE(store.accepted(), 2u);
    // The warm path must actually engage across the run, and the
    // accounting must balance.
    TrainingStats totals;
    uint64_t warmFallbacks = 0;
    for (const Proposal &p : proposals) {
        const TrainingStats &t = p.outcome.training;
        totals.branchesConsidered += t.branchesConsidered;
        totals.warmHits += t.warmHits;
        totals.coldSearches += t.coldSearches;
        warmFallbacks += p.outcome.warmFallback;
    }
    EXPECT_GT(totals.warmHits, 0u);
    EXPECT_EQ(totals.warmHits + totals.coldSearches,
              totals.branchesConsidered);
    // As in whisperd, a warm candidate that loses to the incumbent
    // on its holdout is retrained cold; the phase change makes at
    // least one do so.
    EXPECT_GE(warmFallbacks, 1u);

    double preDrift = epochRate(online, 3);
    // Post-redeploy recovery within the cold loop's bounds: +0.02
    // by the end of the drifted segment, +0.01 once the original
    // phase returns.
    EXPECT_LE(epochRate(online, 7), preDrift + 0.02);
    EXPECT_LE(epochRate(online, 11), preDrift + 0.01);
}

TEST(Recovery, AdversarialDecorrelationRejectsInsteadOfDeploying)
{
    ExperimentConfig cfg;
    cfg.profile.maxHardBranches = 256;

    const AppConfig &app = appByName("kafka");
    DriftSpec drift;
    drift.kind = DriftKind::Adversarial;
    drift.periodRecords = 270'000;
    drift.decorrelate = 1.0;
    const uint64_t total = 360'000, window = 30'000;
    // Epochs 0-8: correlated profiling prefix; epochs 9-11:
    // decorrelated tail. The epoch-10 retraining window straddles
    // the boundary: its candidate carries hints learned from the
    // stale correlated half but is validated on decorrelated
    // traffic — exactly the bundle the gate must turn away.

    std::vector<BranchRecord> stream =
        genDrift(app, 0, total, drift);

    HintStore store;
    ProposalLog proposals;
    AdaptiveRunStats online = runOnlineWhisperd(
        stream, window, /*trainEvery=*/2, /*historyWindows=*/2,
        /*margin=*/0.002, cfg, store, &proposals);

    ASSERT_EQ(online.perEpoch.size(), 12u);
    // Deployment happened while the stream was correlated...
    bool acceptedInPrefix = false;
    for (const auto &p : proposals)
        if (p.outcome.accepted && p.epoch <= 9)
            acceptedInPrefix = true;
    EXPECT_TRUE(acceptedInPrefix);
    // ...and no accepted deployment ever regressed its validation
    // window: the post-drift accepts are hint-retracting bundles
    // that beat the stale incumbent on decorrelated traffic, which
    // is adaptation, not a bad deploy.
    for (const auto &p : proposals) {
        if (p.outcome.accepted) {
            EXPECT_GT(p.outcome.candidate.accuracy(),
                      p.outcome.incumbent.accuracy())
                << "epoch " << p.epoch;
        }
    }

    // Rollback-on-regression, provoked directly: retrain a bundle
    // purely on the correlated prefix (the regressing deploy an
    // unguarded service would push) and offer it against a
    // decorrelated validation window. The gate must turn it away.
    std::vector<BranchRecord> prefixRecent(
        stream.begin() + (drift.periodRecords - 2 * window),
        stream.begin() + drift.periodRecords);
    ChunkProfiler::Options opt;
    opt.maxHardBranches = cfg.profile.maxHardBranches;
    opt.statsWarmupRecords = window / 2;
    ChunkProfiler profiler(cfg.whisper, makeTage(cfg.tageBudgetKB),
                           opt);
    profiler.profileChunk(prefixRecent);
    const BranchProfile &staleProfile = profiler.profile();
    ASSERT_GT(staleProfile.numBranches(), 0u);
    WhisperTrainer trainer(cfg.whisper, globalTruthTables());
    HintInjector injector(cfg.injector);
    HintBundle stale;
    stale.hints = trainer.train(staleProfile, nullptr, nullptr, 2);
    TraceSource placeSrc(prefixRecent);
    stale.placements = injector.place(placeSrc, stale.hints);

    std::vector<BranchRecord> tailWindow(stream.end() - window,
                                         stream.end());
    auto evalOnTail = [&](const HintBundle *bundle) {
        TraceSource src(tailWindow);
        auto pred = makeBundlePredictor(cfg.tageBudgetKB, cfg.whisper,
                                        globalTruthTables(), bundle);
        return runPredictor(src, *pred).accuracy();
    };
    HintStore::Snapshot incumbent = store.current();
    ASSERT_TRUE(incumbent);
    double incAcc = evalOnTail(&incumbent->bundle);
    double staleAcc = evalOnTail(&stale);
    uint64_t rejectedBefore = store.rejected();
    uint64_t epochBefore = store.epoch();
    EXPECT_FALSE(store.propose(std::move(stale), staleAcc, incAcc,
                               /*margin=*/0.002));
    EXPECT_EQ(store.rejected(), rejectedBefore + 1);
    EXPECT_EQ(store.epoch(), epochBefore); // fleet bundle untouched

    // Not-worse contract: on the decorrelated tail the online
    // predictor (TAGE + whatever hints survived validation) may not
    // do materially worse than plain TAGE.
    auto tage = makeTage(cfg.tageBudgetKB);
    TraceSource tageSrc(stream);
    AdaptiveRunStats tageRun =
        runPredictorAdaptive(tageSrc, *tage, window, nullptr);
    EXPECT_LE(epochRate(online, 11),
              epochRate(tageRun, 11) + 0.01);
}
