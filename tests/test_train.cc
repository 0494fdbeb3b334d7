/**
 * @file
 * Training-quality harness for the sparse-correlation screen and
 * warm-started retraining (ctest prefix: train., also run under
 * TSan by CI's train-smoke leg).
 *
 * The contract under test: pruning and warm-starting are *search
 * accelerations* — they may skip provably-weaker candidates but must
 * not cost accuracy beyond a hair (differential bound vs the full
 * scan), must never drop a perfectly correlated history position,
 * must stay deterministic, and must degrade to the cold search the
 * moment a seed stops fitting the fresh profile.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/correlation_screen.hh"
#include "core/whisper_trainer.hh"
#include "sim/experiment.hh"
#include "util/rng.hh"

using namespace whisper;

namespace
{

/** Reduced-scale experiment shared by the app-level tests. */
ExperimentConfig
smallConfig()
{
    ExperimentConfig cfg;
    cfg.trainRecords = 400'000;
    cfg.profile.maxHardBranches = 128;
    return cfg;
}

/**
 * Expected post-training mispredict rate over the profile's hard
 * branches: covered branches improve from the baseline to the
 * hint's expected count, uncovered ones keep the baseline.
 */
double
expectedHardRate(const BranchProfile &profile,
                 const TrainingStats &stats)
{
    uint64_t execs = 0, baseline = 0;
    for (const BranchProfileEntry *e : profile.hardBranches()) {
        execs += e->executions;
        baseline += e->baselineMispredicts;
    }
    if (execs == 0)
        return 0.0;
    uint64_t improved =
        stats.coveredMispredicts - stats.expectedRemaining;
    return static_cast<double>(baseline - improved) /
           static_cast<double>(execs);
}

/** Synthetic hard-branch entry with one empty table per length. */
BranchProfileEntry
syntheticEntry(size_t numLengths)
{
    BranchProfileEntry e;
    e.pc = 0x4000;
    e.hard = true;
    e.byLength.assign(numLengths, HashedSampleTable(8));
    return e;
}

} // namespace

// ---------------------------------------------------------------
// Differential: pruned search vs the paper's full scan.
// ---------------------------------------------------------------

TEST(Prune, WithinBoundOfFullSearchOnApps)
{
    // ISSUE bound: screening may cost at most +0.005 expected
    // mispredict rate vs the exhaustive length x formula scan,
    // while actually shrinking the search.
    ExperimentConfig cfg = smallConfig();
    for (const char *name : {"mysql", "cassandra", "finagle-http"}) {
        BranchProfile profile =
            profileApp(appByName(name), 0, cfg);

        WhisperTrainer full(cfg.whisper, globalTruthTables());
        TrainingStats fullStats;
        full.train(profile, nullptr, &fullStats);

        WhisperTrainer pruned(cfg.whisper, globalTruthTables());
        pruned.setScreen(ScreenConfig{});
        TrainingStats prunedStats;
        pruned.train(profile, nullptr, &prunedStats);

        double fullRate = expectedHardRate(profile, fullStats);
        double prunedRate = expectedHardRate(profile, prunedStats);
        EXPECT_LE(prunedRate, fullRate + 0.005) << name;
        // The screen must actually prune (otherwise it is a no-op
        // with extra steps).
        EXPECT_LT(prunedStats.formulasScored,
                  fullStats.formulasScored) << name;
        EXPECT_GT(prunedStats.hintsEmitted, 0u) << name;
    }
}

// ---------------------------------------------------------------
// Warm-started retraining on a stationary workload.
// ---------------------------------------------------------------

TEST(Warm, SecondEpochNoWorseThanColdOnStationaryTrace)
{
    // Epoch 1 on input 0 produces the seeds; epoch 2 retrains the
    // same app's input 1 warm vs cold. Stationary traffic: the warm
    // epoch must match cold-epoch accuracy (within the differential
    // bound) while scoring far fewer formulas.
    ExperimentConfig cfg = smallConfig();
    const AppConfig &app = appByName("mysql");
    BranchProfile epoch1 = profileApp(app, 0, cfg);
    BranchProfile epoch2 = profileApp(app, 1, cfg);

    WhisperTrainer trainer(cfg.whisper, globalTruthTables());
    trainer.setScreen(ScreenConfig{});
    std::vector<TrainedHint> seeds = trainer.train(epoch1);
    ASSERT_FALSE(seeds.empty());

    TrainingStats cold, warm;
    trainer.train(epoch2, nullptr, &cold);
    trainer.train(epoch2, &seeds, &warm);

    EXPECT_LE(expectedHardRate(epoch2, warm),
              expectedHardRate(epoch2, cold) + 0.005);
    // The warm path must engage and pay off: deterministic speed
    // proxy is the scored-formula count, not wall time. (The full-
    // scale speedup claim lives in bench_train; at this reduced
    // scale we require a >20% cut.)
    EXPECT_GT(warm.warmHits, 0u);
    EXPECT_LT(warm.formulasScored, cold.formulasScored * 4 / 5);
    // Accounting invariant: every considered branch either hit warm
    // or ran the cold search.
    EXPECT_EQ(warm.warmHits + warm.coldSearches,
              warm.branchesConsidered);
    EXPECT_EQ(cold.warmHits, 0u);
    EXPECT_EQ(cold.coldSearches, cold.branchesConsidered);
}

TEST(Warm, DeterministicUnderFixedSeeds)
{
    ExperimentConfig cfg = smallConfig();
    const AppConfig &app = appByName("cassandra");
    BranchProfile epoch1 = profileApp(app, 0, cfg);
    BranchProfile epoch2 = profileApp(app, 1, cfg);

    auto run = [&](TrainingStats &stats) {
        WhisperTrainer trainer(cfg.whisper, globalTruthTables());
        trainer.setScreen(ScreenConfig{});
        std::vector<TrainedHint> seeds = trainer.train(epoch1);
        return trainer.train(epoch2, &seeds, &stats);
    };
    TrainingStats s1, s2;
    std::vector<TrainedHint> a = run(s1);
    std::vector<TrainedHint> b = run(s2);
    EXPECT_EQ(a, b);
    EXPECT_EQ(s1.formulasScored, s2.formulasScored);
    EXPECT_EQ(s1.warmHits, s2.warmHits);
    EXPECT_EQ(s1.coldSearches, s2.coldSearches);
}

TEST(Warm, PoolIsBitIdenticalToSerialForAnyWorkerCount)
{
    ExperimentConfig cfg = smallConfig();
    const AppConfig &app = appByName("finagle-http");
    BranchProfile epoch1 = profileApp(app, 0, cfg);
    BranchProfile epoch2 = profileApp(app, 1, cfg);

    WhisperTrainer trainer(cfg.whisper, globalTruthTables());
    trainer.setScreen(ScreenConfig{});
    std::vector<TrainedHint> seeds = trainer.train(epoch1);

    TrainingStats serialStats;
    std::vector<TrainedHint> serial =
        trainer.train(epoch2, &seeds, &serialStats);

    for (unsigned workers : {1u, 4u}) {
        TrainingStats stats;
        std::vector<TrainedHint> hints =
            trainer.train(epoch2, &seeds, &stats, workers);
        EXPECT_EQ(hints, serial) << workers << " workers";
        EXPECT_EQ(stats.formulasScored,
                  serialStats.formulasScored) << workers;
        EXPECT_EQ(stats.warmHits, serialStats.warmHits)
            << workers;
        EXPECT_EQ(stats.coldSearches, serialStats.coldSearches)
            << workers;
        EXPECT_EQ(stats.warmHits + stats.coldSearches,
                  stats.branchesConsidered) << workers;
    }
}

// ---------------------------------------------------------------
// Warm mechanics on synthetic branches.
// ---------------------------------------------------------------

TEST(Warm, StationarySeedShortCircuitsTheSearch)
{
    // A branch whose outcomes follow a planted formula: the cold
    // search finds it; reseeding the same branch must hit warm,
    // score only the tiny neighborhood, and be at least as good.
    const std::vector<unsigned> lengths = {8, 16};
    BranchProfileEntry entry = syntheticEntry(lengths.size());
    BoolFormula planted(0x2A51, 8);
    for (unsigned k = 0; k < 256; ++k) {
        bool taken = planted.evaluate(static_cast<uint8_t>(k));
        entry.byLength[0].record(static_cast<uint8_t>(k), taken);
        for (int rep = 0; rep < 9; ++rep)
            entry.byLength[0].record(static_cast<uint8_t>(k), taken);
        entry.executions += 10;
        entry.takenCount += taken ? 10 : 0;
    }
    entry.baselineMispredicts = 600;

    WhisperConfig wcfg;
    WhisperTrainer trainer(wcfg, globalTruthTables());
    trainer.setCandidateFraction(1.0); // planted formula findable

    TrainedHint coldHint;
    BranchTrainOutcome coldOut;
    ASSERT_TRUE(trainer.trainBranchSeeded(entry, lengths, nullptr,
                                          coldHint, &coldOut));
    EXPECT_FALSE(coldOut.warmHit);
    ASSERT_EQ(coldHint.hint.bias, HintBias::Formula);
    EXPECT_EQ(coldHint.expectedMispredicts, 0u);

    TrainedHint warmHint;
    BranchTrainOutcome warmOut;
    ASSERT_TRUE(trainer.trainBranchSeeded(
        entry, lengths, &coldHint, warmHint, &warmOut));
    EXPECT_TRUE(warmOut.warmHit);
    EXPECT_LE(warmHint.expectedMispredicts,
              coldHint.expectedMispredicts);
    // Neighborhood: 17 encodings per populated length vs the full
    // 32768-encoding scan the cold path paid.
    EXPECT_LE(warmOut.scored, 17u * lengths.size());
    EXPECT_LT(warmOut.scored, coldOut.scored / 100);
}

TEST(Warm, StaleSeedFallsThroughToColdSearch)
{
    // Fresh tables carry no signal (both outcomes equally likely at
    // every key): neither the warm seed nor the cold search can
    // clear the emission gates, and the outcome must record a cold
    // search, not a warm hit — a decorrelated branch never inherits
    // its stale formula.
    const std::vector<unsigned> lengths = {8, 16};
    BranchProfileEntry entry = syntheticEntry(lengths.size());
    for (unsigned k = 0; k < 256; ++k) {
        for (int rep = 0; rep < 4; ++rep) {
            entry.byLength[0].record(static_cast<uint8_t>(k), true);
            entry.byLength[0].record(static_cast<uint8_t>(k), false);
        }
        entry.executions += 8;
        entry.takenCount += 4;
    }
    entry.baselineMispredicts = 100; // unbeatable on balanced data

    WhisperConfig wcfg;
    WhisperTrainer trainer(wcfg, globalTruthTables());
    TrainedHint stale;
    stale.pc = entry.pc;
    stale.hint.bias = HintBias::Formula;
    stale.hint.formula = 0x2A51;
    stale.expectedMispredicts = 10;  // trained quality it will
    stale.profiledMispredicts = 600; // not retain on fresh tables

    TrainedHint out;
    BranchTrainOutcome outcome;
    EXPECT_FALSE(trainer.trainBranchSeeded(entry, lengths, &stale,
                                           out, &outcome));
    EXPECT_FALSE(outcome.warmHit);
    // The warm neighborhood was scored, then the cold search ran.
    EXPECT_GT(outcome.scored, 17u * lengths.size());
}

TEST(Warm, DegradedSeedStillPassingGatesRetrainsCold)
{
    // The branch drifted: a quarter of the keys went coin-flip, so
    // the planted formula now mispredicts 25% of executions — still
    // comfortably inside the emission gates (25% < 85% of bias),
    // but far off the near-zero quality the seed was deployed with.
    // The retention check must send it to the cold search instead
    // of warm-hitting at degraded quality.
    const std::vector<unsigned> lengths = {8, 16};
    BranchProfileEntry entry = syntheticEntry(lengths.size());
    BoolFormula planted(0x2A51, 8);
    for (unsigned k = 0; k < 256; ++k) {
        bool correlated = (k % 4) != 0;
        for (int rep = 0; rep < 10; ++rep) {
            bool taken = correlated
                ? planted.evaluate(static_cast<uint8_t>(k))
                : (rep % 2 == 0);
            entry.byLength[0].record(static_cast<uint8_t>(k), taken);
            entry.takenCount += taken ? 1 : 0;
        }
        entry.executions += 10;
    }
    entry.baselineMispredicts = 600;

    WhisperConfig wcfg;
    WhisperTrainer trainer(wcfg, globalTruthTables());
    trainer.setCandidateFraction(1.0); // planted formula findable
    TrainedHint seed;
    seed.pc = entry.pc;
    seed.hint.bias = HintBias::Formula;
    seed.hint.formula = 0x2A51;
    seed.expectedMispredicts = 0;    // deployed as a perfect formula
    seed.profiledMispredicts = 600;

    TrainedHint out;
    BranchTrainOutcome outcome;
    ASSERT_TRUE(trainer.trainBranchSeeded(entry, lengths, &seed,
                                          out, &outcome));
    EXPECT_FALSE(outcome.warmHit);
    EXPECT_GT(outcome.scored, 17u * lengths.size());
    // The cold result can be no worse than the drifted seed's
    // floor: the 64 coin-flip keys cost any formula 5 each.
    EXPECT_LE(out.expectedMispredicts, 64u * 5u);
}

// ---------------------------------------------------------------
// Property: screening never drops a perfectly correlated position.
// ---------------------------------------------------------------

TEST(ScreenProperty, PerfectlyCorrelatedPositionAlwaysSurvives)
{
    // Randomized: one length's table is decided entirely by one key
    // bit; every other length gets deterministic-per-key noise whose
    // oracle headroom *ties* the perfect length's gain, so survival
    // must come from the perfect-correlation guarantee, not from
    // gain ranking — even under a budget far smaller than the
    // series.
    const std::vector<unsigned> lengths = {8, 11, 15, 22, 31, 44};
    for (uint64_t seed = 0; seed < 20; ++seed) {
        Rng rng(1000 + seed);
        unsigned perfectIdx =
            static_cast<unsigned>(rng.nextBelow(lengths.size()));
        unsigned perfectBit = static_cast<unsigned>(rng.nextBelow(8));

        BranchProfileEntry entry = syntheticEntry(lengths.size());
        for (unsigned idx = 0; idx < lengths.size(); ++idx) {
            for (unsigned k = 0; k < 256; ++k) {
                bool taken = idx == perfectIdx
                    ? ((k >> perfectBit) & 1) != 0
                    : rng.nextBool(0.5);
                for (int rep = 0; rep < 4; ++rep)
                    entry.byLength[idx].record(
                        static_cast<uint8_t>(k), taken);
            }
        }
        entry.executions = 1024;
        entry.takenCount = 512;

        ScreenConfig cfg;
        cfg.maxLengths = 2;
        BranchScreen scr =
            CorrelationScreen(cfg).screenBranch(entry, lengths);

        bool lengthKept = false;
        for (unsigned idx : scr.lengthIdx)
            lengthKept = lengthKept || idx == perfectIdx;
        EXPECT_TRUE(lengthKept)
            << "seed " << seed << ": perfect length " << perfectIdx
            << " pruned";
        EXPECT_TRUE(scr.inputMask & (1u << perfectBit))
            << "seed " << seed << ": perfect bit " << perfectBit
            << " masked";
    }
}

TEST(ScreenProperty, DisabledScreenIsAPassthrough)
{
    const std::vector<unsigned> lengths = {8, 16, 32};
    BranchProfileEntry entry = syntheticEntry(lengths.size());
    ScreenConfig off;
    off.enabled = false;
    BranchScreen scr =
        CorrelationScreen(off).screenBranch(entry, lengths);
    EXPECT_EQ(scr.lengthIdx, (std::vector<unsigned>{0, 1, 2}));
    EXPECT_EQ(scr.inputMask, 0xFF);
}

// ---------------------------------------------------------------
// The support mask the candidate filter relies on.
// ---------------------------------------------------------------

TEST(SupportMask, MatchesBruteForce)
{
    auto bruteForce = [](const BoolFormula &f) {
        unsigned n = f.numInputs();
        uint8_t expect = 0;
        for (unsigned bit = 0; bit < n; ++bit) {
            for (unsigned v = 0; v < (1u << n); ++v) {
                if (v & (1u << bit))
                    continue;
                if (f.evaluate(static_cast<uint8_t>(v)) !=
                    f.evaluate(static_cast<uint8_t>(v | (1u << bit)))) {
                    expect |= static_cast<uint8_t>(1u << bit);
                    break;
                }
            }
        }
        return expect;
    };

    // Every 2- and 4-input encoding, then a sample of 8-input ones.
    for (unsigned n : {2u, 4u}) {
        TruthTableCache cache(n);
        for (uint32_t enc = 0; enc < BoolFormula::encodingCount(n);
             ++enc) {
            auto e = static_cast<uint16_t>(enc);
            EXPECT_EQ(cache.supportMask(e),
                      bruteForce(BoolFormula(e, n)))
                << "n " << n << " enc " << enc;
        }
    }
    const TruthTableCache &cache = globalTruthTables();
    Rng rng(77);
    for (int trial = 0; trial < 100; ++trial) {
        uint16_t enc = static_cast<uint16_t>(rng.nextBelow(32768));
        EXPECT_EQ(cache.supportMask(enc),
                  bruteForce(BoolFormula(enc, 8)))
            << "enc " << enc;
    }
}
