/**
 * @file
 * Differential harness for the shard-parallel simulation engine
 * (sim/sharded_runner) and the clone() contract it rests on:
 * serial-vs-sharded equivalence, determinism across repeated runs
 * and job counts, golden mispredict snapshots for two catalog
 * workloads, per-predictor clone-then-predict checks, and a
 * many-small-windows stress test meant to run under TSan.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bp/perceptron.hh"
#include "bp/simple_predictors.hh"
#include "branchnet/branchnet_predictor.hh"
#include "core/static_profile.hh"
#include "core/whisper_predictor.hh"
#include "rombf/rombf_predictor.hh"
#include "sim/experiment.hh"
#include "sim/sharded_runner.hh"
#include "util/rng.hh"
#include "workloads/app_workload.hh"

using namespace whisper;

namespace
{

/** BranchSource view over a record vector. */
class VecSource : public BranchSource
{
  public:
    explicit VecSource(const std::vector<BranchRecord> &records)
        : records_(records)
    {
    }

    bool
    next(BranchRecord &rec) override
    {
        if (pos_ >= records_.size())
            return false;
        rec = records_[pos_++];
        return true;
    }

    void rewind() override { pos_ = 0; }

  private:
    const std::vector<BranchRecord> &records_;
    size_t pos_ = 0;
};

std::vector<BranchRecord>
materialize(const char *appName, uint32_t input, uint64_t n)
{
    AppWorkload workload(appByName(appName), input, n);
    std::vector<BranchRecord> records;
    records.reserve(n);
    BranchRecord rec;
    while (workload.next(rec))
        records.push_back(rec);
    return records;
}

/** Synthetic stream from the repo RNG: fixed seed, no wall clock. */
std::vector<BranchRecord>
randomTrace(uint64_t seed, uint64_t n)
{
    Rng rng(seed);
    std::vector<BranchRecord> records;
    records.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
        BranchRecord rec;
        rec.pc = 0x1000 + 16 * rng.nextBelow(97);
        rec.kind = rng.nextBool(0.85) ? BranchKind::Conditional
                                      : BranchKind::Unconditional;
        // Mix of biased and history-correlated outcomes.
        bool correlated = (i % 7) < 3;
        rec.taken = correlated ? (i % 2 == 0) : rng.nextBool(0.7);
        rec.instGap = static_cast<uint8_t>(1 + rng.nextBelow(12));
        records.push_back(rec);
    }
    return records;
}

void
expectStatsEq(const PredictorRunStats &a, const PredictorRunStats &b,
              const char *what)
{
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.conditionals, b.conditionals) << what;
    EXPECT_EQ(a.mispredicts, b.mispredicts) << what;
    EXPECT_EQ(a.warmupInstructions, b.warmupInstructions) << what;
}

ShardedRunConfig
exactConfig(unsigned jobs, uint64_t window, double statsWarmup = 0.0)
{
    ShardedRunConfig cfg;
    cfg.jobs = jobs;
    cfg.windowRecords = window;
    cfg.warmupRecords = ShardedRunConfig::kFullPrefix;
    cfg.statsWarmupFraction = statsWarmup;
    return cfg;
}

ShardedRunConfig
boundedConfig(unsigned jobs, uint64_t window, uint64_t warm)
{
    ShardedRunConfig cfg;
    cfg.jobs = jobs;
    cfg.windowRecords = window;
    cfg.warmupRecords = warm;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------
// Serial-vs-sharded equivalence (full-prefix warm-up).
// ---------------------------------------------------------------

TEST(ShardedEquivalence, FullPrefixMatchesSerialAcrossJobCounts)
{
    auto records = materialize("kafka", 0, 60000);
    auto proto = makeTage(16);

    VecSource src(records);
    PredictorRunStats serial = runPredictor(src, *proto, 0.5);
    // The prototype was mutated by the serial run; shard from a
    // fresh one so every path starts from reset state.
    auto fresh = makeTage(16);

    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        auto run = runPredictorSharded(records, *fresh,
                                       exactConfig(jobs, 15000, 0.5));
        expectStatsEq(run.total, serial,
                      ("jobs=" + std::to_string(jobs)).c_str());
        // The merge is exactly the sum of the per-window slots.
        PredictorRunStats sum;
        for (const auto &w : run.perWindow) {
            sum.instructions += w.instructions;
            sum.conditionals += w.conditionals;
            sum.mispredicts += w.mispredicts;
            sum.warmupInstructions += w.warmupInstructions;
        }
        expectStatsEq(sum, run.total, "per-window sum");
        EXPECT_EQ(run.perWindow.size(), 4u);
        EXPECT_EQ(run.timing.perShard.size(), 4u);
    }
}

TEST(ShardedEquivalence, SingleWindowJobs1IsTheSerialRun)
{
    auto records = materialize("mysql", 1, 20000);
    GsharePredictor serial;
    VecSource src(records);
    PredictorRunStats want = runPredictor(src, serial, 0.0);

    GsharePredictor proto;
    auto run = runPredictorSharded(
        records, proto, exactConfig(1, records.size() + 1));
    expectStatsEq(run.total, want, "single window");
    EXPECT_EQ(run.perWindow.size(), 1u);
    EXPECT_EQ(run.timing.jobs, 1u);
}

TEST(ShardedEquivalence, StatsWarmupFractionMatchesSerial)
{
    auto records = materialize("tomcat", 0, 40000);
    PerceptronPredictor serial;
    VecSource src(records);
    PredictorRunStats want = runPredictor(src, serial, 0.3);

    PerceptronPredictor proto;
    auto run = runPredictorSharded(records, proto,
                                   exactConfig(4, 9000, 0.3));
    expectStatsEq(run.total, want, "warmup 0.3");
    EXPECT_GT(run.total.warmupInstructions, 0u);
}

// ---------------------------------------------------------------
// Determinism: job count and repeated runs never change the stats.
// ---------------------------------------------------------------

TEST(ShardedDeterminism, BoundedWarmupIndependentOfJobCount)
{
    auto records = materialize("kafka", 0, 50000);
    auto proto = makeTage(16);

    auto reference = runPredictorSharded(
        records, *proto, boundedConfig(1, 10000, 5000));
    for (unsigned jobs : {2u, 4u, 8u}) {
        auto run = runPredictorSharded(
            records, *proto, boundedConfig(jobs, 10000, 5000));
        expectStatsEq(run.total, reference.total,
                      ("jobs=" + std::to_string(jobs)).c_str());
        ASSERT_EQ(run.perWindow.size(),
                  reference.perWindow.size());
        for (size_t w = 0; w < run.perWindow.size(); ++w)
            expectStatsEq(run.perWindow[w], reference.perWindow[w],
                          ("window " + std::to_string(w)).c_str());
    }
}

TEST(ShardedDeterminism, RepeatedRunsAreBitIdentical)
{
    // Timing fields may differ between runs; the statistics must
    // not — they never read a clock.
    auto records = randomTrace(1234, 30000);
    auto proto = makeTage(8);
    auto cfg = boundedConfig(4, 3000, 1500);

    auto first = runPredictorSharded(records, *proto, cfg);
    auto second = runPredictorSharded(records, *proto, cfg);
    expectStatsEq(first.total, second.total, "repeat total");
    ASSERT_EQ(first.perWindow.size(), second.perWindow.size());
    for (size_t w = 0; w < first.perWindow.size(); ++w)
        expectStatsEq(first.perWindow[w], second.perWindow[w],
                      ("window " + std::to_string(w)).c_str());
}

TEST(ShardedDeterminism, PrototypeIsLeftUntouched)
{
    auto records = materialize("kafka", 0, 20000);
    GsharePredictor proto, witness;
    runPredictorSharded(records, proto, boundedConfig(4, 5000, 1000));

    // The prototype still predicts exactly like a fresh predictor.
    for (const auto &rec : records) {
        if (!rec.isConditional())
            continue;
        ASSERT_EQ(proto.predict(rec.pc, rec.taken),
                  witness.predict(rec.pc, rec.taken));
        proto.update(rec.pc, rec.taken, rec.taken);
        witness.update(rec.pc, rec.taken, rec.taken);
    }
}

// ---------------------------------------------------------------
// Edge cases.
// ---------------------------------------------------------------

TEST(ShardedEdge, EmptyStream)
{
    std::vector<BranchRecord> empty;
    GsharePredictor proto;
    auto run = runPredictorSharded(empty, proto,
                                   boundedConfig(4, 1000, 100));
    EXPECT_EQ(run.total.instructions, 0u);
    EXPECT_EQ(run.total.conditionals, 0u);
    EXPECT_EQ(run.perWindow.size(), 0u);
}

TEST(ShardedEdge, PartialLastWindow)
{
    // 7 windows of 3000 plus a 2000-record tail.
    auto records = materialize("drupal", 0, 23000);
    BimodalPredictor serial, proto;
    VecSource src(records);
    PredictorRunStats want = runPredictor(src, serial, 0.0);
    auto run = runPredictorSharded(records, proto,
                                   exactConfig(4, 3000));
    expectStatsEq(run.total, want, "partial tail");
    EXPECT_EQ(run.perWindow.size(), 8u);
}

// ---------------------------------------------------------------
// Adaptive sharded runs mirror runPredictorAdaptive.
// ---------------------------------------------------------------

TEST(ShardedAdaptive, FullPrefixMatchesSerialAdaptive)
{
    auto records = materialize("kafka", 0, 40000);

    auto serialPred = makeTage(16);
    VecSource src(records);
    AdaptiveRunStats serial = runPredictorAdaptive(
        src, *serialPred, 10000,
        [](uint64_t) -> BranchPredictor * { return nullptr; });

    auto proto = makeTage(16);
    ShardedRunConfig cfg;
    cfg.jobs = 4;
    cfg.warmupRecords = ShardedRunConfig::kFullPrefix;
    auto sharded = runPredictorAdaptiveSharded(records, *proto,
                                               10000, nullptr, cfg);

    expectStatsEq(sharded.stats.total, serial.total, "adaptive");
    ASSERT_EQ(sharded.stats.perEpoch.size(),
              serial.perEpoch.size());
    for (size_t e = 0; e < serial.perEpoch.size(); ++e)
        expectStatsEq(sharded.stats.perEpoch[e], serial.perEpoch[e],
                      ("epoch " + std::to_string(e)).c_str());
    EXPECT_EQ(sharded.stats.predictorSwaps, serial.predictorSwaps);
    EXPECT_EQ(sharded.stats.predictorSwaps, 0u);
}

TEST(ShardedAdaptive, RefreshSeesTheSerialEpochSequence)
{
    auto records = materialize("mysql", 0, 25000);
    GsharePredictor a;
    BimodalPredictor b;

    std::vector<uint64_t> serialCalls, shardedCalls;
    auto hook = [&b](std::vector<uint64_t> &calls) {
        return [&b, &calls](uint64_t nextEpoch) -> BranchPredictor * {
            calls.push_back(nextEpoch);
            return nextEpoch == 2 ? &b : nullptr;
        };
    };

    GsharePredictor serialInit;
    VecSource src(records);
    AdaptiveRunStats serial = runPredictorAdaptive(
        src, serialInit, 5000, hook(serialCalls));

    ShardedRunConfig cfg;
    cfg.jobs = 4;
    cfg.warmupRecords = ShardedRunConfig::kFullPrefix;
    auto sharded = runPredictorAdaptiveSharded(records, a, 5000,
                                               hook(shardedCalls),
                                               cfg);

    EXPECT_EQ(shardedCalls, serialCalls);
    EXPECT_EQ(sharded.stats.predictorSwaps, serial.predictorSwaps);
    EXPECT_EQ(sharded.stats.predictorSwaps, 1u);
    EXPECT_EQ(sharded.stats.perEpoch.size(),
              serial.perEpoch.size());

    // With a swap the carry-over state is approximated; the
    // approximation itself must still be job-count independent.
    auto again = runPredictorAdaptiveSharded(records, a, 5000,
                                             hook(shardedCalls),
                                             exactConfig(1, 5000));
    expectStatsEq(again.stats.total, sharded.stats.total,
                  "swap determinism");
}

// ---------------------------------------------------------------
// Golden regression snapshots: exact integer mispredict counts for
// two catalog workloads, checked on the serial engine and on the
// sharded engine in exact mode. The workload generators assert
// deterministic replay (tools_pipeline.sh), so these are stable
// until someone changes the predictor or the generator — which is
// exactly what this test is meant to catch.
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

TEST_P(GoldenSnapshot, SerialAndShardedMatchTheSnapshot)
{
    const Golden &g = GetParam();
    auto records = materialize(g.app, g.input, g.records);

    auto serialPred = makeTage(64);
    VecSource src(records);
    PredictorRunStats serial = runPredictor(src, *serialPred, 0.5);
    EXPECT_EQ(serial.conditionals, g.conditionals) << g.app;
    EXPECT_EQ(serial.mispredicts, g.mispredicts) << g.app;
    EXPECT_EQ(serial.instructions, g.instructions) << g.app;

    auto proto = makeTage(64);
    auto sharded = runPredictorSharded(records, *proto,
                                       exactConfig(4, 30000, 0.5));
    expectStatsEq(sharded.total, serial, g.app);
}

INSTANTIATE_TEST_SUITE_P(CatalogWorkloads, GoldenSnapshot,
                         ::testing::ValuesIn(kGoldens));

// ---------------------------------------------------------------
// clone() contract: after cloning, original and clone make the same
// predictions on the same continuation, for every predictor type.
// ---------------------------------------------------------------

namespace
{

/** Drive @p pred over records[0, split), clone, then check that the
 * original and the clone stay in lockstep over [split, n). */
void
expectCloneTracksOriginal(BranchPredictor &pred,
                          const std::vector<BranchRecord> &records,
                          size_t split)
{
    ASSERT_LT(split, records.size());
    for (size_t i = 0; i < split; ++i) {
        const BranchRecord &rec = records[i];
        if (rec.isConditional()) {
            bool p = pred.predict(rec.pc, rec.taken);
            pred.update(rec.pc, rec.taken, p);
        }
        pred.onRecord(rec);
    }

    auto copy = pred.clone();
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(copy->name(), pred.name());
    EXPECT_EQ(copy->storageBits(), pred.storageBits());

    uint64_t conditionals = 0;
    for (size_t i = split; i < records.size(); ++i) {
        const BranchRecord &rec = records[i];
        if (rec.isConditional()) {
            bool po = pred.predict(rec.pc, rec.taken);
            bool pc = copy->predict(rec.pc, rec.taken);
            ASSERT_EQ(po, pc) << "record " << i;
            pred.update(rec.pc, rec.taken, po);
            copy->update(rec.pc, rec.taken, pc);
            ++conditionals;
        }
        pred.onRecord(rec);
        copy->onRecord(rec);
    }
    EXPECT_GT(conditionals, 0u);
}

} // namespace

TEST(CloneContract, StaticPredictor)
{
    auto records = materialize("kafka", 0, 4000);
    StaticPredictor pred(true);
    expectCloneTracksOriginal(pred, records, 2000);
}

TEST(CloneContract, IdealPredictor)
{
    auto records = materialize("kafka", 0, 4000);
    IdealPredictor pred;
    expectCloneTracksOriginal(pred, records, 2000);
}

TEST(CloneContract, BimodalPredictor)
{
    auto records = materialize("mysql", 0, 6000);
    BimodalPredictor pred;
    expectCloneTracksOriginal(pred, records, 3000);
}

TEST(CloneContract, GsharePredictor)
{
    auto records = materialize("mysql", 0, 6000);
    GsharePredictor pred;
    expectCloneTracksOriginal(pred, records, 3000);
}

TEST(CloneContract, PerceptronPredictor)
{
    auto records = materialize("tomcat", 0, 6000);
    PerceptronPredictor pred;
    expectCloneTracksOriginal(pred, records, 3000);
}

TEST(CloneContract, TageScl)
{
    auto records = materialize("kafka", 0, 8000);
    auto pred = makeTage(16);
    expectCloneTracksOriginal(*pred, records, 4000);
}

TEST(CloneContract, StaticProfilePredictor)
{
    BranchProfile profile{WhisperConfig{}};
    for (uint64_t pc : {0x40ull, 0x80ull, 0xC0ull}) {
        BranchProfileEntry &e = profile.entry(pc);
        e.executions = 10;
        e.takenCount = pc == 0x80 ? 2 : 9;
    }
    StaticProfilePredictor pred(profile);
    auto records = materialize("kafka", 0, 4000);
    expectCloneTracksOriginal(pred, records, 2000);
}

TEST(CloneContract, WhisperPredictor)
{
    // Handcrafted bundle: an always-taken hint and a formula hint,
    // both placed on predecessor 0xA00 so the hint buffer actually
    // fills and the clone must copy it (not alias it).
    std::vector<TrainedHint> hints(2);
    hints[0].pc = 0xB00;
    hints[0].hint.bias = HintBias::AlwaysTaken;
    hints[0].hint.pcPointer = BrHint::pcPointerFor(0xB00);
    hints[1].pc = 0xC00;
    hints[1].hint.bias = HintBias::Formula;
    hints[1].hint.formula = 0x5AC3;
    hints[1].hint.historyIdx = 1;
    hints[1].hint.pcPointer = BrHint::pcPointerFor(0xC00);

    std::vector<HintPlacement> placements(2);
    placements[0].branchPc = 0xB00;
    placements[0].predecessorPc = 0xA00;
    placements[1].branchPc = 0xC00;
    placements[1].predecessorPc = 0xA00;

    WhisperPredictor pred(makeTage(8), WhisperConfig{},
                          globalTruthTables(), hints, placements);

    // Stream where the predecessor fires before the hinted branches.
    Rng rng(77);
    std::vector<BranchRecord> records;
    for (int i = 0; i < 4000; ++i) {
        BranchRecord rec;
        rec.instGap = 3;
        switch (i % 4) {
        case 0:
            rec.pc = 0xA00;
            rec.kind = BranchKind::Unconditional;
            rec.taken = true;
            break;
        case 1:
            rec.pc = 0xB00;
            rec.kind = BranchKind::Conditional;
            rec.taken = rng.nextBool(0.9);
            break;
        case 2:
            rec.pc = 0xC00;
            rec.kind = BranchKind::Conditional;
            rec.taken = rng.nextBool(0.5);
            break;
        default:
            rec.pc = 0xD00 + 16 * rng.nextBelow(5);
            rec.kind = BranchKind::Conditional;
            rec.taken = rng.nextBool(0.6);
            break;
        }
        records.push_back(rec);
    }
    expectCloneTracksOriginal(pred, records, 2000);
    EXPECT_GT(pred.hintPredictions(), 0u);
}

TEST(CloneContract, RombfPredictor)
{
    RombfTrainer trainer(4);
    std::vector<RombfHint> hints(2);
    hints[0].pc = 0x1000;
    hints[0].tableIdx = 0;
    hints[1].pc = 0x1010;
    hints[1].tableIdx = -1;
    hints[1].biasTaken = true;

    RombfPredictor pred(makeTage(8), trainer, hints);
    auto records = randomTrace(9, 4000);
    expectCloneTracksOriginal(pred, records, 2000);
}

TEST(CloneContract, BranchNetPredictor)
{
    BranchNetPredictor pred(makeTage(8), {}, "unit");
    auto records = materialize("kafka", 0, 4000);
    expectCloneTracksOriginal(pred, records, 2000);
}

// ---------------------------------------------------------------
// Stress: many small windows on many threads. Run this binary under
// ThreadSanitizer (-DWHISPER_SANITIZE=thread) — the CI matrix does.
// ---------------------------------------------------------------

TEST(ShardedStress, ManySmallWindowsStayDeterministic)
{
    auto records = randomTrace(42, 40000);
    auto proto = makeTage(8);
    auto cfg = boundedConfig(8, 1000, 500); // 40 windows, 8 threads

    auto first = runPredictorSharded(records, *proto, cfg);
    auto second = runPredictorSharded(records, *proto, cfg);
    EXPECT_EQ(first.perWindow.size(), 40u);
    expectStatsEq(first.total, second.total, "stress repeat");
    for (size_t w = 0; w < first.perWindow.size(); ++w)
        expectStatsEq(first.perWindow[w], second.perWindow[w],
                      ("window " + std::to_string(w)).c_str());

    // Every window was evaluated and accounted exactly once.
    uint64_t records_seen = 0;
    for (const auto &t : first.timing.perShard)
        records_seen += t.records;
    EXPECT_EQ(records_seen, records.size());
}
