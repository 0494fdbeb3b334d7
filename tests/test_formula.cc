/**
 * @file
 * Unit + property tests for the extended-ROMBF formula machinery
 * (core/formula, core/formula_trainer, core/history_hash).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/correlation_screen.hh"
#include "core/formula.hh"
#include "core/formula_gates.hh"
#include "core/formula_trainer.hh"
#include "core/history_hash.hh"
#include "sim/experiment.hh"
#include "util/rng.hh"

using namespace whisper;

TEST(BoolOp, SingleUnitTruthTables)
{
    // Fig. 8: the four single-unit operations, applied bitwise to
    // the four (a, b) rows a = 0b1100, b = 0b1010.
    const uint64_t a = 0xC, b = 0xA, rows = 0xF;
    EXPECT_EQ(applyBoolOp(BoolOp::And, a, b) & rows, 0x8u);
    EXPECT_EQ(applyBoolOp(BoolOp::Or, a, b) & rows, 0xEu);
    // a -> b: false only on row (1, 0).
    EXPECT_EQ(applyBoolOp(BoolOp::Impl, a, b) & rows, 0xBu);
    // converse non-implication !a & b: true only on row (0, 1).
    EXPECT_EQ(applyBoolOp(BoolOp::Cnimpl, a, b) & rows, 0x2u);
}

TEST(BoolFormula, EncodingWidths)
{
    // 7 nodes * 2 bits + 1 inversion bit = the brhint's 15-bit field.
    EXPECT_EQ(BoolFormula::encodingBits(8), 15u);
    EXPECT_EQ(BoolFormula::encodingCount(8), 32768u);
    EXPECT_EQ(BoolFormula::encodingBits(4), 7u);
    EXPECT_EQ(BoolFormula::encodingBits(2), 3u);
}

TEST(BoolFormula, AllAndTree)
{
    // All nodes AND, no inversion: true only when all 8 bits set.
    BoolFormula f(0, 8);
    EXPECT_TRUE(f.evaluate(0xFF));
    EXPECT_FALSE(f.evaluate(0xFE));
    EXPECT_FALSE(f.evaluate(0x00));
    EXPECT_TRUE(f.isMonotone());
}

TEST(BoolFormula, AllOrTree)
{
    // All nodes OR: op bits 01 per node -> 0b01010101010101.
    uint16_t enc = 0;
    for (unsigned n = 0; n < 7; ++n)
        enc |= 1u << (2 * n);
    BoolFormula f(enc, 8);
    EXPECT_FALSE(f.evaluate(0x00));
    for (unsigned b = 0; b < 8; ++b)
        EXPECT_TRUE(f.evaluate(1u << b)) << b;
    EXPECT_TRUE(f.isMonotone());
}

TEST(BoolFormula, InversionBit)
{
    uint16_t inv = 1u << 14;
    BoolFormula f(inv, 8); // NOT(all-and)
    EXPECT_FALSE(f.evaluate(0xFF));
    EXPECT_TRUE(f.evaluate(0x00));
    EXPECT_TRUE(f.inverted());
    EXPECT_FALSE(f.isMonotone());
}

TEST(BoolFormula, NodeOpDecoding)
{
    // Node 3 = Impl (encoding 2 at bits 6-7).
    uint16_t enc = 2u << 6;
    BoolFormula f(enc, 8);
    EXPECT_EQ(f.nodeOp(3), BoolOp::Impl);
    EXPECT_EQ(f.nodeOp(0), BoolOp::And);
    EXPECT_FALSE(f.isMonotone());
}

TEST(BoolFormula, TruthTableMatchesEvaluate)
{
    // Every encoding at every arity, input by input; bits past 2^n
    // stay zero.
    for (unsigned n : {2u, 4u, 8u}) {
        for (uint32_t enc = 0; enc < BoolFormula::encodingCount(n);
             ++enc) {
            BoolFormula f(static_cast<uint16_t>(enc), n);
            TruthTable tt = f.truthTable();
            for (unsigned v = 0; v < 256; ++v) {
                bool viaTable = (tt[v / 64] >> (v % 64)) & 1;
                bool expect = v < (1u << n) &&
                              f.evaluate(static_cast<uint8_t>(v));
                ASSERT_EQ(viaTable, expect)
                    << "n=" << n << " enc=" << enc << " v=" << v;
            }
        }
    }
}

TEST(BoolFormula, TreeFormulasAreNeverConstant)
{
    // Read-once trees over distinct leaves cannot compute a constant
    // function; Whisper handles always/never via the Bias field.
    Rng rng(7);
    for (int trial = 0; trial < 200; ++trial) {
        uint16_t enc = static_cast<uint16_t>(rng.nextBelow(32768));
        BoolFormula f(enc, 8);
        bool value = false;
        EXPECT_FALSE(f.isConstant(value)) << enc;
    }
}

TEST(BoolFormula, ClassifyRootFamilies)
{
    // classify() keys on the root node (node 6 for 8 inputs).
    auto mk = [](BoolOp root, bool invert) {
        uint16_t enc = static_cast<uint16_t>(root) << 12;
        if (invert)
            enc |= 1u << 14;
        return BoolFormula(enc, 8);
    };
    EXPECT_EQ(mk(BoolOp::And, false).classify(), OpClass::And);
    EXPECT_EQ(mk(BoolOp::Or, false).classify(), OpClass::Or);
    EXPECT_EQ(mk(BoolOp::Impl, false).classify(), OpClass::Impl);
    EXPECT_EQ(mk(BoolOp::Cnimpl, false).classify(), OpClass::Cnimpl);
    EXPECT_EQ(mk(BoolOp::And, true).classify(), OpClass::Others);
}

TEST(BoolFormula, FourInputVariant)
{
    // 4-input tree: nodes (b0,b1),(b2,b3),root.
    BoolFormula allAnd(0, 4);
    EXPECT_TRUE(allAnd.evaluate(0x0F));
    EXPECT_FALSE(allAnd.evaluate(0x07));
}

TEST(BoolFormula, ToStringRendersOps)
{
    BoolFormula f(0, 8);
    std::string s = f.toString();
    EXPECT_NE(s.find("b0"), std::string::npos);
    EXPECT_NE(s.find("&"), std::string::npos);
}

TEST(GateDelay, PaperNumbers)
{
    // Paper SIII-C: 3 single-unit levels * 5 + final mux 4 = 19.
    EXPECT_EQ(formulaGateDelay(8), 19u);
    EXPECT_EQ(formulaGateDelay(2), 9u);
    EXPECT_EQ(formulaGateDelay(4), 14u);
}

TEST(GeometricLengths, PaperSeries)
{
    // a=8, N=1024, m=16 -> 8, 11, 15, ..., 1024 (paper SIII-A).
    auto lengths = geometricLengths(8, 1024, 16);
    ASSERT_EQ(lengths.size(), 16u);
    EXPECT_EQ(lengths.front(), 8u);
    EXPECT_EQ(lengths[1], 11u);
    EXPECT_EQ(lengths[2], 15u);
    EXPECT_EQ(lengths.back(), 1024u);
    for (size_t i = 1; i < lengths.size(); ++i)
        EXPECT_GT(lengths[i], lengths[i - 1]);
}

TEST(GeometricLengths, RatioApproximatelyGeometric)
{
    auto lengths = geometricLengths(8, 1024, 16);
    double r = std::pow(1024.0 / 8.0, 1.0 / 15.0);
    for (size_t i = 1; i + 1 < lengths.size(); ++i) {
        double ratio = static_cast<double>(lengths[i + 1]) / lengths[i];
        EXPECT_NEAR(ratio, r, 0.25) << i;
    }
}

// Regression: when m is large relative to N-a, the rounded geometric
// series used to go non-monotone past N in the tail (e.g. a=1, N=4,
// m=8 produced ... 4, 5, 6, 4). The series must stay strictly
// increasing, stay within [a, N], and end exactly at N, even if that
// means fewer than m entries.
TEST(GeometricLengths, DegenerateTailStaysMonotone)
{
    auto lengths = geometricLengths(1, 4, 8);
    ASSERT_FALSE(lengths.empty());
    EXPECT_EQ(lengths.front(), 1u);
    EXPECT_EQ(lengths.back(), 4u);
    EXPECT_LE(lengths.size(), 8u);
    for (size_t i = 1; i < lengths.size(); ++i)
        EXPECT_GT(lengths[i], lengths[i - 1]) << i;
    EXPECT_EQ(lengths, (std::vector<unsigned>{1, 2, 3, 4}));
}

TEST(GeometricLengths, ClampedSeriesSweep)
{
    // Every (a, N, m) combination must produce a strictly increasing
    // series from a to N with at most m entries.
    for (unsigned a : {1u, 2u, 8u}) {
        for (unsigned n : {4u, 16u, 100u}) {
            if (n <= a)
                continue;
            for (unsigned m : {2u, 5u, 12u}) {
                auto lengths = geometricLengths(a, n, m);
                ASSERT_GE(lengths.size(), 2u)
                    << a << "," << n << "," << m;
                EXPECT_EQ(lengths.front(), a);
                EXPECT_EQ(lengths.back(), n);
                EXPECT_LE(lengths.size(), static_cast<size_t>(m));
                for (size_t i = 1; i < lengths.size(); ++i)
                    EXPECT_GT(lengths[i], lengths[i - 1])
                        << a << "," << n << "," << m << " @" << i;
            }
        }
    }
}

TEST(TruthTableCache, MatchesDirectEvaluation)
{
    for (unsigned n : {2u, 4u, 8u}) {
        TruthTableCache cache(n);
        for (uint32_t enc = 0; enc < BoolFormula::encodingCount(n);
             ++enc) {
            auto e = static_cast<uint16_t>(enc);
            BoolFormula f(e, n);
            for (unsigned v = 0; v < (1u << n); ++v) {
                auto in = static_cast<uint8_t>(v);
                ASSERT_EQ(cache.evaluate(e, in), f.evaluate(in))
                    << "n=" << n << " enc=" << enc << " v=" << v;
            }
        }
    }
}

TEST(FormulaCandidates, GlobalPermutationIsStable)
{
    FormulaCandidates a(8, 0.001, 1234);
    FormulaCandidates b(8, 0.001, 1234);
    EXPECT_EQ(a.encodings(), b.encodings());
    EXPECT_EQ(a.encodings().size(), 32u); // 0.1% of 32768
}

TEST(FormulaCandidates, FractionPrefixNesting)
{
    // A smaller fraction must be a prefix of a larger one (the
    // Fisher-Yates order is generated once and shared).
    FormulaCandidates c(8, 1.0, 99);
    auto small = c.withFraction(0.01);
    auto large = c.withFraction(0.1);
    ASSERT_LT(small.size(), large.size());
    for (size_t i = 0; i < small.size(); ++i)
        EXPECT_EQ(small[i], large[i]);
    EXPECT_EQ(c.withFraction(1.0).size(), 32768u);
}

// ---------------------------------------------------------------
// Reference models: Algorithm 1 one key and one candidate at a time.
// ---------------------------------------------------------------

namespace
{

/** Lines 5-11 of Algorithm 1, one bit test per key. */
uint64_t
referenceScore(const TruthTable &tt, const HashedSampleTable &samples)
{
    uint64_t t = 0;
    for (size_t k = 0; k < samples.taken.size(); ++k) {
        bool sat = (tt[k / 64] >> (k % 64)) & 1;
        t += sat ? samples.notTaken[k] : samples.taken[k];
    }
    return t;
}

/** findBooleanFormula over referenceScore. */
FormulaSearchResult
referenceSearch(const HashedSampleTable &samples,
                const std::vector<uint16_t> &candidates,
                const TruthTableCache &cache)
{
    FormulaSearchResult best;
    for (uint16_t enc : candidates) {
        uint64_t t = referenceScore(cache.table(enc), samples);
        ++best.explored;
        if (t < best.mispredicts) {
            best.mispredicts = t;
            best.formula = BoolFormula(enc, cache.numInputs());
            best.valid = true;
        }
        if (best.mispredicts == 0)
            break;
    }
    return best;
}

/** Random counts over 2^keyBits keys; @p huge puts them near 2^32. */
HashedSampleTable
randomTable(unsigned keyBits, Rng &rng, bool huge)
{
    HashedSampleTable t(keyBits);
    for (size_t k = 0; k < t.taken.size(); ++k) {
        auto draw = [&]() -> uint32_t {
            if (rng.nextBool(0.3))
                return 0;
            return huge ? 0xFFFFFFFFu -
                              static_cast<uint32_t>(rng.nextBelow(1000))
                        : static_cast<uint32_t>(rng.nextBelow(100));
        };
        t.taken[k] = draw();
        t.notTaken[k] = draw();
    }
    return t;
}

} // namespace

TEST(ScoreFormula, CountsMispredictions)
{
    // Table: key 0xFF taken 10 times; key 0x00 not-taken 5 times.
    HashedSampleTable t(8);
    t.taken[0xFF] = 10;
    t.notTaken[0x00] = 5;
    FormulaScorer scorer(t);

    // all-AND: predicts taken only on 0xFF -> 0 misses.
    EXPECT_EQ(scorer.score(BoolFormula(0, 8).truthTable()), 0u);

    // NOT(all-AND): wrong everywhere -> 15 misses.
    EXPECT_EQ(scorer.score(BoolFormula(1u << 14, 8).truthTable()),
              15u);
}

TEST(FormulaScorer, MatchesPerKeyReference)
{
    // Key spaces of hash widths 1, 4, 6 and 8 (bench_ablations'
    // sweep), small counts and counts near 2^32, scored on formula
    // truth tables and on arbitrary 256-bit tables.
    const TruthTableCache &cache8 = globalTruthTables();
    Rng rng(1701);
    for (unsigned keyBits : {1u, 4u, 6u, 8u}) {
        for (bool huge : {false, true}) {
            for (int trial = 0; trial < 8; ++trial) {
                HashedSampleTable t = randomTable(keyBits, rng, huge);
                FormulaScorer scorer(t);
                for (int i = 0; i < 200; ++i) {
                    TruthTable tt = cache8.table(
                        static_cast<uint16_t>(rng.nextBelow(32768)));
                    ASSERT_EQ(scorer.score(tt), referenceScore(tt, t))
                        << "keyBits=" << keyBits << " huge=" << huge;
                    for (auto &w : tt)
                        w = rng.next();
                    ASSERT_EQ(scorer.score(tt), referenceScore(tt, t))
                        << "keyBits=" << keyBits << " huge=" << huge;
                }
            }
        }
    }
}

TEST(FormulaScorer, ExactAtMaximumCounts)
{
    // 256 keys at UINT32_MAX: the worst case sums to 2^40 - 2^8,
    // which wraps any 32-bit accumulator.
    HashedSampleTable t(8);
    std::fill(t.taken.begin(), t.taken.end(), 0xFFFFFFFFu);
    std::fill(t.notTaken.begin(), t.notTaken.end(), 0xFFFFFFFFu);
    t.notTaken[3] = 0;
    FormulaScorer scorer(t);
    const uint64_t all = 256ull * 0xFFFFFFFFull;
    EXPECT_EQ(scorer.score(TruthTable{}), all);
    EXPECT_EQ(scorer.score({~0ull, ~0ull, ~0ull, ~0ull}),
              all - 0xFFFFFFFFull);
    EXPECT_EQ(scorer.score({1ull << 3, 0, 0, 0}), all - 0xFFFFFFFFull);
}

TEST(FindBooleanFormula, MatchesReferenceSearch)
{
    const TruthTableCache &cache = globalTruthTables();
    Rng rng(2718);
    for (int trial = 0; trial < 40; ++trial) {
        HashedSampleTable t = randomTable(8, rng, trial % 4 == 3);
        std::vector<uint16_t> candidates(1 + rng.nextBelow(600));
        for (auto &enc : candidates)
            enc = static_cast<uint16_t>(rng.nextBelow(32768));
        auto got = findBooleanFormula(t, candidates, cache);
        auto want = referenceSearch(t, candidates, cache);
        ASSERT_TRUE(got.valid);
        EXPECT_EQ(got.formula, want.formula) << "trial " << trial;
        EXPECT_EQ(got.mispredicts, want.mispredicts);
        EXPECT_EQ(got.explored, want.explored);
        EXPECT_EQ(got.explored, candidates.size());
    }
}

TEST(FindBooleanFormula, StopsAtZeroMispredictCandidateMidList)
{
    // A planted formula sits mid-list over noise-free samples: the
    // scan stops on it, having scored exactly its prefix.
    const TruthTableCache &cache = globalTruthTables();
    Rng rng(3141);
    for (int trial = 0; trial < 10; ++trial) {
        auto planted = static_cast<uint16_t>(rng.nextBelow(32768));
        HashedSampleTable t(8);
        for (unsigned k = 0; k < 256; ++k) {
            auto weight = static_cast<uint32_t>(1 + rng.nextBelow(20));
            if (cache.evaluate(planted, static_cast<uint8_t>(k)))
                t.taken[k] = weight;
            else
                t.notTaken[k] = weight;
        }
        std::vector<uint16_t> candidates(300);
        for (auto &enc : candidates)
            enc = static_cast<uint16_t>(rng.nextBelow(32768));
        size_t at = 50 + rng.nextBelow(200);
        candidates[at] = planted;
        auto got = findBooleanFormula(t, candidates, cache);
        auto want = referenceSearch(t, candidates, cache);
        ASSERT_TRUE(got.valid);
        EXPECT_EQ(got.mispredicts, 0u);
        EXPECT_EQ(got.formula, want.formula);
        EXPECT_EQ(got.explored, want.explored);
        EXPECT_LE(got.explored, at + 1);
    }
}

TEST(FindBooleanFormula, RecoversPlantedFormula)
{
    // Property: for a planted formula with noise-free samples,
    // Algorithm 1 over the full space returns a formula with zero
    // mispredictions.
    TruthTableCache cache(8);
    FormulaCandidates all(8, 1.0, 5);
    Rng rng(21);
    for (int trial = 0; trial < 5; ++trial) {
        uint16_t planted = static_cast<uint16_t>(rng.nextBelow(32768));
        BoolFormula f(planted, 8);
        HashedSampleTable t(8);
        for (unsigned k = 0; k < 256; ++k) {
            unsigned weight = 1 + (rng.nextBelow(20));
            if (f.evaluate(static_cast<uint8_t>(k)))
                t.taken[k] = weight;
            else
                t.notTaken[k] = weight;
        }
        auto res = findBooleanFormula(t, all.encodings(), cache);
        ASSERT_TRUE(res.valid);
        EXPECT_EQ(res.mispredicts, 0u) << "trial " << trial;
    }
}

TEST(FindBooleanFormula, RandomizedSubsetIsNearOptimal)
{
    // Property (paper SIII-B): scoring ~0.1% of formulas finds a
    // formula whose misprediction count is within a modest factor
    // of the exhaustive optimum on noisy data.
    TruthTableCache cache(8);
    FormulaCandidates c(8, 1.0, 7);
    Rng rng(31);

    BoolFormula planted(0x2A51, 8);
    HashedSampleTable t(8);
    for (unsigned k = 0; k < 256; ++k) {
        unsigned weight = 5 + rng.nextBelow(30);
        bool taken = planted.evaluate(static_cast<uint8_t>(k));
        if (rng.nextBool(0.08))
            taken = !taken; // noise
        if (taken)
            t.taken[k] = weight;
        else
            t.notTaken[k] = weight;
    }
    auto exhaustive = findBooleanFormula(t, c.withFraction(1.0), cache);
    auto randomized =
        findBooleanFormula(t, c.withFraction(0.01), cache);
    auto tiny = findBooleanFormula(t, c.withFraction(0.001), cache);
    ASSERT_TRUE(exhaustive.valid && randomized.valid && tiny.valid);
    EXPECT_LE(exhaustive.mispredicts, randomized.mispredicts);
    EXPECT_LE(randomized.mispredicts, tiny.mispredicts);
    // Near-optimality: a 1% sample stays within a small factor of
    // the exhaustive optimum (the full trainer additionally gets 16
    // history lengths and the bias fallback per branch).
    EXPECT_LE(randomized.mispredicts, 2 * exhaustive.mispredicts);
    EXPECT_GT(exhaustive.mispredicts, 0u); // noise floor exists
}

// ---------------------------------------------------------------
// Length dedup: the top-K budget counts *distinct* lengths, so a
// candidate series with duplicated values cannot eat the budget
// with copies of the same length.
// ---------------------------------------------------------------

TEST(DistinctLengths, FirstIndexPerValue)
{
    auto idx = CorrelationScreen::distinctLengthIndices(
        {4, 8, 8, 16});
    EXPECT_EQ(idx, (std::vector<unsigned>{0, 1, 3}));
    EXPECT_EQ(CorrelationScreen::distinctLengthIndices({7, 7, 7}),
              (std::vector<unsigned>{0}));
    EXPECT_TRUE(CorrelationScreen::distinctLengthIndices({}).empty());
}

TEST(DistinctLengths, BudgetCountsDistinctValues)
{
    // A series with duplicates: two branches of the search space
    // share length 8. The kept set must never contain two indices
    // referencing the same length value, and the maxLengths budget
    // must buy that many *distinct* lengths.
    std::vector<unsigned> lengths = {4, 8, 8, 16};
    BranchProfileEntry entry;
    entry.executions = 400;
    entry.takenCount = 200;
    entry.byLength.resize(lengths.size(), HashedSampleTable(8));
    Rng rng(91);
    for (auto &t : entry.byLength)
        for (unsigned k = 0; k < 64; ++k)
            t.record(static_cast<uint8_t>(rng.nextBelow(256)),
                     rng.nextBool(0.5));

    ScreenConfig cfg;
    cfg.maxLengths = 3;
    BranchScreen scr =
        CorrelationScreen(cfg).screenBranch(entry, lengths);
    ASSERT_FALSE(scr.lengthIdx.empty());
    EXPECT_LE(scr.lengthIdx.size(), 3u);
    std::set<unsigned> values;
    for (unsigned idx : scr.lengthIdx) {
        ASSERT_LT(idx, lengths.size());
        EXPECT_TRUE(values.insert(lengths[idx]).second)
            << "duplicate length " << lengths[idx];
    }
    // All three distinct values fit the budget of 3.
    EXPECT_EQ(values.size(), 3u);

    // Screening disabled: same dedup applies to the passthrough.
    ScreenConfig off;
    off.enabled = false;
    BranchScreen raw =
        CorrelationScreen(off).screenBranch(entry, lengths);
    EXPECT_EQ(raw.lengthIdx, (std::vector<unsigned>{0, 1, 3}));
}

TEST(HashedSampleTable, OracleAndMerge)
{
    HashedSampleTable a(4), b(4);
    a.record(3, true);
    a.record(3, false);
    a.record(3, true);
    b.record(3, false);
    EXPECT_EQ(a.oracleMispredicts(), 1u);
    a.addFrom(b);
    EXPECT_EQ(a.taken[3], 2u);
    EXPECT_EQ(a.notTaken[3], 2u);
    EXPECT_EQ(a.totalSamples(), 4u);
    EXPECT_EQ(a.oracleMispredicts(), 2u);
}

// ---------------------------------------------------------------
// Gate-level netlist (Figs. 8/9) vs the behavioural model.
// ---------------------------------------------------------------

TEST(FormulaNetlist, MatchesBehaviouralModelSampled)
{
    Rng rng(55);
    for (int trial = 0; trial < 40; ++trial) {
        uint16_t enc = static_cast<uint16_t>(rng.nextBelow(32768));
        BoolFormula f(enc, 8);
        FormulaNetlist net(f);
        for (unsigned v = 0; v < 256; ++v) {
            ASSERT_EQ(net.evaluate(static_cast<uint8_t>(v)),
                      f.evaluate(static_cast<uint8_t>(v)))
                << "enc=" << enc << " v=" << v;
        }
    }
}

TEST(FormulaNetlist, FourInputVariant)
{
    BoolFormula f(0x35, 4);
    FormulaNetlist net(f);
    for (unsigned v = 0; v < 16; ++v)
        EXPECT_EQ(net.evaluate(static_cast<uint8_t>(v)),
                  f.evaluate(static_cast<uint8_t>(v)));
}

TEST(FormulaNetlist, CriticalPathWithinPaperBound)
{
    // The paper counts 19 gate delays for 8 inputs using 3-gate
    // muxes; our primitive decomposition (NOT/AND/OR only, 4 gates
    // per 2:1 mux stage) costs at most 2x that bound.
    Rng rng(66);
    unsigned worst = 0;
    for (int trial = 0; trial < 64; ++trial) {
        uint16_t enc = static_cast<uint16_t>(rng.nextBelow(32768));
        FormulaNetlist net(BoolFormula(enc, 8));
        worst = std::max(worst, net.criticalPathDelay());
    }
    EXPECT_LE(worst, 2 * formulaGateDelay(8));
    EXPECT_GE(worst, formulaGateDelay(8) / 2);
}

TEST(FormulaNetlist, DepthGrowsLogarithmically)
{
    FormulaNetlist n2(BoolFormula(0, 2));
    FormulaNetlist n4(BoolFormula(0, 4));
    FormulaNetlist n8(BoolFormula(0, 8));
    EXPECT_LT(n2.criticalPathDelay(), n4.criticalPathDelay());
    EXPECT_LT(n4.criticalPathDelay(), n8.criticalPathDelay());
    // One extra tree level adds one single unit's delay, not a
    // doubling: depth is logarithmic in the input count.
    EXPECT_LT(n8.criticalPathDelay(),
              2u * n4.criticalPathDelay());
}

TEST(FormulaNetlist, GateCountIsLinearInInputs)
{
    FormulaNetlist n4(BoolFormula(0, 4));
    FormulaNetlist n8(BoolFormula(0, 8));
    // n inputs -> n-1 single units: gate count scales ~linearly.
    EXPECT_GT(n8.gateCount(), n4.gateCount());
    EXPECT_LT(n8.gateCount(), 3 * n4.gateCount());
}
