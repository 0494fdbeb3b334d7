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
#include "core/whisper_io.hh"
#include "core/whisper_trainer.hh"
#include "screen_reference.hh"
#include "service/chunk_profiler.hh"
#include "sim/experiment.hh"
#include "util/rng.hh"
#include "workloads/app_workload.hh"

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
        trainer.train(epoch2, &seeds, &serialStats, 1);

    for (unsigned workers : {2u, 4u}) {
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

namespace
{

/** The bytes a bundle of @p hints journals as. */
std::vector<unsigned char>
hintBytes(const std::vector<TrainedHint> &hints)
{
    VersionedHintBundle b;
    b.bundle.hints = hints;
    return encodeVersionedBundle(b);
}

} // namespace

TEST(Pool, DefaultWidthEqualsOneWorkerOnApps)
{
    // whisper_train and the offline flow train at the default width
    // (one worker per hardware thread): it must change no output.
    ExperimentConfig cfg = smallConfig();
    WhisperTrainer trainer(cfg.whisper, globalTruthTables());
    for (const char *name : {"mysql", "finagle-http"}) {
        SCOPED_TRACE(name);
        BranchProfile profile = profileApp(appByName(name), 0, cfg);
        TrainingStats one, wide;
        std::vector<TrainedHint> serial =
            trainer.train(profile, nullptr, &one, 1);
        std::vector<TrainedHint> hints = trainer.train(profile, nullptr, &wide);
        ASSERT_FALSE(serial.empty());
        EXPECT_EQ(hintBytes(hints), hintBytes(serial));
        EXPECT_EQ(hints, serial);
        EXPECT_EQ(wide.branchesConsidered, one.branchesConsidered);
        EXPECT_EQ(wide.hintsEmitted, one.hintsEmitted);
        EXPECT_EQ(wide.formulasScored, one.formulasScored);
        EXPECT_EQ(wide.coveredMispredicts, one.coveredMispredicts);
        EXPECT_EQ(wide.expectedRemaining, one.expectedRemaining);
        EXPECT_EQ(wide.warmHits, one.warmHits);
        EXPECT_EQ(wide.coldSearches, one.coldSearches);
        EXPECT_EQ(wide.branchesDegraded, one.branchesDegraded);
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
// Differential: the one-pass screen against the per-bit scan it
// replaced (tests/screen_reference.hh), exact on every output.
// ---------------------------------------------------------------

namespace
{

void
expectSameScreen(const ScreenConfig &cfg, const BranchProfileEntry &entry,
                 const std::vector<unsigned> &lengths,
                 const std::string &what)
{
    BranchScreen got = CorrelationScreen(cfg).screenBranch(entry, lengths);
    BranchScreen want =
        screen_reference::screenBranch(cfg, entry, lengths);
    EXPECT_EQ(got.lengthIdx, want.lengthIdx) << what;
    EXPECT_EQ(got.inputMask, want.inputMask) << what;
}

/** An entry of @p numLengths tables of @p width key bits. */
BranchProfileEntry
entryOfWidth(size_t numLengths, unsigned width)
{
    BranchProfileEntry e;
    e.hard = true;
    e.byLength.assign(numLengths, HashedSampleTable(width));
    return e;
}

/** Fill @p table from one of several sample regimes. */
void
fillRandomTable(HashedSampleTable &table, Rng &rng)
{
    unsigned keys = static_cast<unsigned>(table.taken.size());
    switch (rng.nextBelow(5)) {
    case 0: // empty
        break;
    case 1: { // a few samples: oracle 0 is common
        unsigned n = static_cast<unsigned>(rng.nextBelow(12));
        for (unsigned i = 0; i < n; ++i)
            table.record(static_cast<unsigned>(rng.nextBelow(keys)),
                         rng.nextBool(0.5));
        break;
    }
    case 2: { // dense noise around a random bias
        double p = rng.nextDouble();
        for (unsigned i = 0; i < 4 * keys; ++i)
            table.record(static_cast<unsigned>(rng.nextBelow(keys)),
                         rng.nextBool(p));
        break;
    }
    case 3: { // one key bit decides, with optional noise
        unsigned bit = static_cast<unsigned>(
            rng.nextBelow(std::countr_zero(table.taken.size())));
        double noise = rng.nextBool(0.5) ? 0.0 : 0.05;
        for (unsigned i = 0; i < 2 * keys; ++i) {
            unsigned key = static_cast<unsigned>(rng.nextBelow(keys));
            bool taken = ((key >> bit) & 1) != rng.nextBool(noise);
            table.record(key, taken);
        }
        break;
    }
    default: { // every key pure, outcomes arbitrary
        for (unsigned key = 0; key < keys; ++key) {
            if (rng.nextBool(0.3))
                continue;
            bool taken = rng.nextBool(0.5);
            unsigned n = 1 + static_cast<unsigned>(rng.nextBelow(5));
            for (unsigned i = 0; i < n; ++i)
                table.record(key, taken);
        }
        break;
    }
    }
}

ScreenConfig
randomScreenConfig(Rng &rng)
{
    static const double kFractions[] = {0.0, 1.0 / 64.0, 0.25, 1.0};
    ScreenConfig cfg;
    cfg.maxLengths = static_cast<unsigned>(rng.nextBelow(7));
    cfg.minBits = static_cast<unsigned>(rng.nextBelow(9));
    cfg.bitKeepFraction = kFractions[rng.nextBelow(4)];
    return cfg;
}

} // namespace

TEST(ScreenDifferential, RandomTables)
{
    Rng rng(2024);
    for (int trial = 0; trial < 600; ++trial) {
        unsigned width = 4 + 2 * static_cast<unsigned>(rng.nextBelow(3));
        size_t n = 1 + rng.nextBelow(16);
        std::vector<unsigned> lengths(n);
        for (unsigned &len : lengths)
            len = 4 + static_cast<unsigned>(rng.nextBelow(8));
        BranchProfileEntry entry = entryOfWidth(n, width);
        for (HashedSampleTable &t : entry.byLength)
            fillRandomTable(t, rng);
        ScreenConfig cfg =
            trial % 3 == 0 ? ScreenConfig{} : randomScreenConfig(rng);
        expectSameScreen(cfg, entry, lengths,
                         "trial " + std::to_string(trial));
    }
}

TEST(ScreenDifferential, AdversarialTables)
{
    const ScreenConfig cfg;
    ScreenConfig tight;
    tight.maxLengths = 1;
    tight.minBits = 0;

    // No lengths, empty tables, tables without samples.
    expectSameScreen(cfg, BranchProfileEntry{}, {}, "no lengths");
    BranchProfileEntry empty;
    empty.byLength.resize(3);
    expectSameScreen(cfg, empty, {8, 16, 32}, "empty tables");
    expectSameScreen(cfg, entryOfWidth(3, 8), {8, 16, 32},
                     "no samples");

    for (unsigned width : {4u, 6u, 8u}) {
        std::string w = "width " + std::to_string(width) + ": ";
        unsigned keys = 1u << width;

        // A single key, seen one way and both ways.
        for (bool both : {false, true}) {
            BranchProfileEntry e = entryOfWidth(2, width);
            e.byLength[1].record(keys - 1, true);
            if (both)
                e.byLength[1].record(keys - 1, false);
            for (const ScreenConfig &c : {cfg, tight})
                expectSameScreen(c, e, {8, 16},
                                 w + "single key, both=" +
                                     std::to_string(both));
        }

        // A perfect bit at each position, on dense and on two-key
        // tables, behind a noisy length that outranks nothing.
        for (unsigned bit = 0; bit < width; ++bit) {
            for (bool dense : {true, false}) {
                BranchProfileEntry e = entryOfWidth(3, width);
                Rng rng(bit * 2 + dense);
                for (unsigned k = 0; k < keys; ++k)
                    e.byLength[0].record(k, rng.nextBool(0.5));
                if (dense) {
                    for (unsigned k = 0; k < keys; ++k)
                        e.byLength[2].record(k, (k >> bit) & 1);
                } else {
                    e.byLength[2].record(0, false);
                    e.byLength[2].record(1u << bit, true);
                }
                for (const ScreenConfig &c : {cfg, tight})
                    expectSameScreen(c, e, {8, 16, 32},
                                     w + "perfect bit " +
                                         std::to_string(bit));
            }
        }

        // Oracle-0 tables with no perfect bit: the outcome is the
        // XOR of two key bits, or constant.
        for (unsigned a = 0; a < width; ++a)
            for (unsigned b = a + 1; b < width; ++b) {
                BranchProfileEntry e = entryOfWidth(2, width);
                for (unsigned k = 0; k < keys; ++k)
                    e.byLength[1].record(k, ((k >> a) ^ (k >> b)) & 1);
                e.byLength[0].record(3, true);
                expectSameScreen(tight, e, {8, 16},
                                 w + "xor " + std::to_string(a) + "," +
                                     std::to_string(b));
            }
        BranchProfileEntry constant = entryOfWidth(2, width);
        for (unsigned k = 0; k < keys; ++k)
            constant.byLength[1].record(k, true);
        expectSameScreen(cfg, constant, {8, 16}, w + "constant");
    }

    // Duplicate lengths: only the first index of a value counts,
    // even when a later copy holds the better table.
    BranchProfileEntry dup = entryOfWidth(5, 8);
    Rng rng(5);
    for (unsigned k = 0; k < 256; ++k) {
        dup.byLength[0].record(k, rng.nextBool(0.5));
        dup.byLength[1].record(k, (k >> 3) & 1);
        dup.byLength[3].record(k, rng.nextBool(0.3));
        dup.byLength[4].record(k, (k >> 5) & 1);
    }
    for (const ScreenConfig &c : {cfg, tight})
        expectSameScreen(c, dup, {8, 8, 8, 16, 16}, "duplicates");

    // Mixed widths in one entry: bits above a narrow table's keys.
    BranchProfileEntry mixed;
    mixed.byLength = {HashedSampleTable(4), HashedSampleTable(8),
                      HashedSampleTable(6)};
    for (unsigned k = 0; k < 256; ++k) {
        mixed.byLength[0].record(k % 16, rng.nextBool(0.7));
        mixed.byLength[1].record(k, rng.nextBool(0.5));
        mixed.byLength[2].record(k % 64, (k >> 2) & 1);
    }
    for (const ScreenConfig &c : {cfg, tight})
        expectSameScreen(c, mixed, {8, 16, 32}, "mixed widths");
}

TEST(ScreenDifferential, EveryHardBranchOfChunkProfiledApps)
{
    // The tables whisperd screens: a ChunkProfiler's running profile
    // over 350k records, in the service's 50k-record chunks.
    WhisperConfig wcfg;
    size_t branches = 0;
    for (const char *name : {"mysql", "clang", "kafka", "finagle-http"}) {
        ChunkProfiler profiler(wcfg, makeTage(64));
        AppWorkload workload(appByName(name), 0, 350'000);
        std::vector<BranchRecord> chunk;
        BranchRecord rec;
        while (workload.next(rec)) {
            chunk.push_back(rec);
            if (chunk.size() == 50'000) {
                profiler.profileChunk(chunk);
                chunk.clear();
            }
        }
        if (!chunk.empty())
            profiler.profileChunk(chunk);

        const BranchProfile &profile = profiler.profile();
        ASSERT_GT(profile.numHardBranches(), 0u) << name;
        for (const BranchProfileEntry *e : profile.hardBranches()) {
            expectSameScreen(ScreenConfig{}, *e, profile.lengths(),
                             std::string(name) + " pc " +
                                 std::to_string(e->pc));
            ++branches;
        }
    }
    EXPECT_GT(branches, 400u);
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
