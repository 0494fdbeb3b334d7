/**
 * @file
 * Unit tests for src/bp: the fixed-direction and ideal reference
 * predictors, and TAGE-SC-L learning behaviour.
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <vector>

#include "bp/simple_predictors.hh"
#include "bp/tage_scl.hh"
#include "util/rng.hh"

#include "static_predictor.hh"

using namespace whisper;

namespace
{

BranchRecord
conditional(uint64_t pc, bool taken)
{
    BranchRecord rec;
    rec.pc = pc;
    rec.kind = BranchKind::Conditional;
    rec.taken = taken;
    return rec;
}

/**
 * Step @p predictor through @p n conditionals, outcomes from
 * @p oracle, over @p numPcs rotating PCs; returns the misprediction
 * rate over the second half (first half = warm-up).
 */
double
missRate(BranchPredictor &p,
         const std::function<bool(int, uint64_t)> &oracle, int n,
         int numPcs = 7)
{
    std::vector<BranchRecord> records;
    for (int i = 0; i < n; ++i) {
        uint64_t pc = 0x40A010 + (i % numPcs) * 144;
        records.push_back(conditional(pc, oracle(i, pc)));
    }
    std::vector<uint8_t> miss(records.size());
    p.step(records, miss.data());
    int misses = 0;
    for (int i = n / 2; i < n; ++i)
        misses += miss[i];
    return static_cast<double>(misses) / (n - n / 2);
}

} // namespace

TEST(StaticPredictor, FixedDirection)
{
    StaticPredictor taken(true), notTaken(false);
    const BranchRecord notTakenRec = conditional(0x10, false);
    const BranchRecord takenRec = conditional(0x10, true);
    uint8_t miss = 0;
    taken.step({&notTakenRec, 1}, &miss);
    EXPECT_TRUE(miss);
    notTaken.step({&takenRec, 1}, &miss);
    EXPECT_TRUE(miss);

    // A short span: only conditionals against the direction miss.
    BranchRecord call;
    call.pc = 0x20;
    call.kind = BranchKind::Call;
    call.taken = true;
    const std::array<BranchRecord, 3> span = {takenRec, notTakenRec, call};
    std::array<uint8_t, 3> misses;
    notTaken.step(span, misses.data());
    EXPECT_EQ(misses, (std::array<uint8_t, 3>{1, 0, 0}));
}

TEST(IdealPredictor, AlwaysCorrect)
{
    IdealPredictor p;
    auto oracle = [](int i, uint64_t) { return (i * 7) % 3 == 0; };
    EXPECT_DOUBLE_EQ(missRate(p, oracle, 1000), 0.0);
    const BranchRecord rec = conditional(0x10, true);
    uint8_t miss = 1;
    p.step({&rec, 1}, &miss);
    EXPECT_FALSE(miss);
}

TEST(TageScl, ConfigScalesWithBudget)
{
    auto c8 = TageSclConfig::forBudgetKB(8);
    auto c64 = TageSclConfig::forBudgetKB(64);
    auto c1024 = TageSclConfig::forBudgetKB(1024);
    EXPECT_LT(c8.logTagged, c64.logTagged);
    EXPECT_LT(c64.logTagged, c1024.logTagged);
    EXPECT_EQ(c64.logTagged + 4, c1024.logTagged);

    TageScl t8(c8), t64(c64), t1024(c1024);
    EXPECT_LT(t8.storageBits(), t64.storageBits());
    EXPECT_LT(t64.storageBits(), t1024.storageBits());
    // The nominal budget should be within 2x of the reported bits.
    EXPECT_NEAR(static_cast<double>(t64.storageBits()) / 8 / 1024,
                64.0, 32.0);
}

TEST(TageScl, LearnsBias)
{
    TageScl p(TageSclConfig::forBudgetKB(64));
    auto oracle = [](int, uint64_t pc) { return (pc >> 4) % 3 != 0; };
    EXPECT_LT(missRate(p, oracle, 20000), 0.01);
}

TEST(TageScl, LearnsGlobalPattern)
{
    TageScl p(TageSclConfig::forBudgetKB(64));
    auto oracle = [](int i, uint64_t) { return i % 4 == 0; };
    EXPECT_LT(missRate(p, oracle, 100000), 0.005);
}

TEST(TageScl, LearnsLongCorrelation)
{
    TageScl p(TageSclConfig::forBudgetKB(64));
    // Outcome repeats the direction seen 100 conditional branches
    // earlier — needs long-history tables.
    static bool hist[1 << 20];
    auto oracle = [](int i, uint64_t) {
        bool t = i < 100 ? (i % 3 == 0) : hist[i - 100];
        if (i % 17 == 0)
            t = !t;
        hist[i] = t;
        return t;
    };
    EXPECT_LT(missRate(p, oracle, 300000), 0.02);
}

TEST(TageScl, LearnsLoopTripCount)
{
    TageScl p(TageSclConfig::forBudgetKB(64));
    auto oracle = [](int i, uint64_t) { return (i % 10) != 9; };
    EXPECT_LT(missRate(p, oracle, 100000, 1), 0.002);
}

TEST(TageScl, RandomStaysNearChance)
{
    TageScl p(TageSclConfig::forBudgetKB(64));
    Rng rng(99);
    auto oracle = [&](int, uint64_t) { return rng.nextBool(0.5); };
    double mr = missRate(p, oracle, 50000);
    EXPECT_GT(mr, 0.45);
    EXPECT_LT(mr, 0.55);
}

TEST(TageScl, BiasedRandomApproachesBiasRate)
{
    TageScl p(TageSclConfig::forBudgetKB(64));
    Rng rng(123);
    auto oracle = [&](int, uint64_t) { return rng.nextBool(0.85); };
    // The best any predictor can do is ~15% misses.
    double mr = missRate(p, oracle, 50000);
    EXPECT_LT(mr, 0.20);
    EXPECT_GT(mr, 0.10);
}

TEST(TageScl, BiggerBudgetNeverMuchWorse)
{
    // Capacity stress: many PCs with distinct patterns. The 1MB
    // predictor must beat the 8KB one clearly.
    auto oracle = [](int i, uint64_t pc) {
        return ((i / 3) ^ (pc >> 4)) % 5 < 2;
    };
    TageScl small(TageSclConfig::forBudgetKB(8));
    TageScl large(TageSclConfig::forBudgetKB(1024));
    double mrSmall = missRate(small, oracle, 200000, 4000);
    double mrLarge = missRate(large, oracle, 200000, 4000);
    EXPECT_LT(mrLarge, mrSmall);
}

TEST(TageScl, NoAllocFreezesLearning)
{
    // With allocation suppressed the tagged tables stay empty, so a
    // pattern branch keeps mispredicting (bimodal can't learn it).
    TageSclConfig cfg = TageSclConfig::forBudgetKB(64);
    cfg.useLoop = false;
    cfg.useSc = false;
    TageScl p(cfg);
    int miss = 0;
    for (int i = 0; i < 20000; ++i) {
        bool taken = i % 2 == 0;
        bool pred = p.predict(0x5000);
        p.update(0x5000, taken, /*allocate=*/false);
        if (i > 10000 && pred != taken)
            ++miss;
    }
    EXPECT_GT(miss, 3000);
}

TEST(TageScl, ProviderAttribution)
{
    TageScl p(TageSclConfig::forBudgetKB(64));
    // Cold predictor: first prediction must come from the bimodal.
    p.predict(0x9000);
    EXPECT_EQ(p.lastProvider(), TageScl::Provider::Bimodal);
}
