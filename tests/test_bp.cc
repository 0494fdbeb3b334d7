/**
 * @file
 * Unit tests for src/bp: simple predictors, perceptron, and
 * TAGE-SC-L learning behaviour.
 */

#include <gtest/gtest.h>

#include <functional>

#include "bp/perceptron.hh"
#include "bp/simple_predictors.hh"
#include "bp/tage_scl.hh"
#include "util/rng.hh"

using namespace whisper;

namespace
{

/**
 * Drive @p predictor with outcomes from @p oracle for @p n branches
 * over @p numPcs rotating PCs; returns the misprediction rate over
 * the second half (first half = warm-up).
 */
double
missRate(BranchPredictor &p,
         const std::function<bool(int, uint64_t)> &oracle, int n,
         int numPcs = 7)
{
    int miss = 0, counted = 0;
    for (int i = 0; i < n; ++i) {
        uint64_t pc = 0x40A010 + (i % numPcs) * 144;
        bool taken = oracle(i, pc);
        bool pred = p.predict(pc, taken);
        p.update(pc, taken, pred);
        if (i >= n / 2) {
            ++counted;
            if (pred != taken)
                ++miss;
        }
    }
    return static_cast<double>(miss) / counted;
}

} // namespace

TEST(StaticPredictor, FixedDirection)
{
    StaticPredictor taken(true), notTaken(false);
    EXPECT_TRUE(taken.predict(0x10, false));
    EXPECT_FALSE(notTaken.predict(0x10, true));
}

TEST(IdealPredictor, AlwaysCorrect)
{
    IdealPredictor p;
    auto oracle = [](int i, uint64_t) { return (i * 7) % 3 == 0; };
    EXPECT_DOUBLE_EQ(missRate(p, oracle, 1000), 0.0);
}

TEST(Bimodal, LearnsBias)
{
    BimodalPredictor p(14);
    auto oracle = [](int, uint64_t pc) { return (pc >> 4) & 1; };
    EXPECT_LT(missRate(p, oracle, 4000), 0.01);
}

TEST(Bimodal, CannotLearnPattern)
{
    BimodalPredictor p(14);
    auto oracle = [](int i, uint64_t) { return i % 2 == 0; };
    // Alternating outcomes defeat a 2-bit counter.
    EXPECT_GT(missRate(p, oracle, 4000), 0.3);
}

TEST(Gshare, LearnsShortPattern)
{
    GsharePredictor p(16, 12);
    auto oracle = [](int i, uint64_t) { return i % 4 == 0; };
    EXPECT_LT(missRate(p, oracle, 40000), 0.02);
}

TEST(Perceptron, LearnsLinearlySeparable)
{
    PerceptronPredictor p;
    // Outcome equals the direction 3 branches ago: linearly
    // separable in history, classic perceptron win.
    static bool hist[1 << 20];
    auto oracle = [](int i, uint64_t) {
        bool t = i < 3 ? true : hist[i - 3];
        if (i % 11 == 0)
            t = !t;
        hist[i] = t;
        return t;
    };
    EXPECT_LT(missRate(p, oracle, 60000), 0.12);
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
        bool pred = p.predict(0x5000, taken);
        p.update(0x5000, taken, pred, /*allocate=*/false);
        if (i > 10000 && pred != taken)
            ++miss;
    }
    EXPECT_GT(miss, 3000);
}

TEST(TageScl, ProviderAttribution)
{
    TageScl p(TageSclConfig::forBudgetKB(64));
    // Cold predictor: first prediction must come from the bimodal.
    p.predict(0x9000, true);
    EXPECT_EQ(p.lastProvider(), TageScl::Provider::Bimodal);
    EXPECT_EQ(p.lastProviderHistLen(), 0u);
}
