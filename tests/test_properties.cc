/**
 * @file
 * Parameterized property sweeps (TEST_P) across configuration
 * grids: folded-history correctness, formula-space invariants,
 * planted-correlation recovery at every candidate length, workload
 * determinism for every application, and cache/TAGE scaling laws.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "bp/simple_predictors.hh"
#include "bp/tage_scl.hh"
#include "core/formula_trainer.hh"
#include "core/whisper_trainer.hh"
#include "sim/experiment.hh"
#include "trace/global_history.hh"
#include "uarch/cache.hh"
#include "util/rng.hh"
#include "workloads/app_workload.hh"

using namespace whisper;

// ---------------------------------------------------------------
// Folded history equals the reference fold for any (length, width).
// ---------------------------------------------------------------

class FoldedHistoryProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(FoldedHistoryProperty, IncrementalEqualsReference)
{
    auto [length, width] = GetParam();
    GlobalHistory h(2048);
    size_t v = h.addFoldedView(length, width);
    Rng rng(length * 131 + width);
    for (int i = 0; i < 600; ++i) {
        h.push(rng.nextBool(0.37));
        std::vector<uint32_t> batch(h.numViews());
        h.foldedValues(batch.data());
        uint32_t want = h.foldedHash(length, width);
        ASSERT_EQ(h.foldedValue(v), want)
            << "len=" << length << " width=" << width << " i=" << i;
        ASSERT_EQ(batch[v], want)
            << "batched len=" << length << " width=" << width
            << " i=" << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    LengthWidthGrid, FoldedHistoryProperty,
    ::testing::Combine(::testing::Values(1u, 5u, 8u, 11, 26u, 64u,
                                         303u, 1024u),
                       ::testing::Values(4u, 8u, 11u, 16u, 24u, 32u,
                                         1u)));

// ---------------------------------------------------------------
// pushRun() equals the reference fold for every width 1..32, with
// view lengths up to the history's capacity.
// ---------------------------------------------------------------

class FoldedRunProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FoldedRunProperty, RunReadEqualsReference)
{
    const unsigned width = GetParam();
    GlobalHistory h(300);
    std::vector<unsigned> lengths = {1, 2, width, width + 1, 63, 64, 65,
                                     129, 256, h.capacity()};
    for (unsigned len : lengths)
        h.addFoldedView(len, width);
    const size_t nv = lengths.size();

    Rng rng(width * 7919 + 1);
    std::vector<uint8_t> bits;
    std::vector<uint32_t> out;
    uint64_t pushed = 0;
    while (pushed < 1200) {
        // Run lengths 0 .. 2 * kMaxRun + 1, and single push()es.
        size_t n = rng.nextBelow(2 * GlobalHistory::kMaxRun + 2);
        bits.resize(n);
        for (auto &b : bits)
            b = rng.nextBool(0.41);
        // The reference before each push, from a copy pushed bit by
        // bit.
        GlobalHistory ref = h;
        std::vector<uint32_t> want(nv * n);
        for (size_t j = 0; j < n; ++j) {
            for (size_t v = 0; v < nv; ++v)
                want[v * n + j] = ref.foldedHash(lengths[v], width);
            ref.push(bits[j]);
        }
        out.assign(nv * n, 0);
        h.pushRun(bits.data(), n, out.data(), n);
        ASSERT_EQ(out, want) << "width " << width << " at " << pushed;
        pushed += n;
        if (rng.nextBool(0.5)) {
            h.push(rng.nextBool(0.5));
            ++pushed;
        }
        for (size_t v = 0; v < nv; ++v)
            ASSERT_EQ(h.foldedValue(v), h.foldedHash(lengths[v], width))
                << "width " << width << " len " << lengths[v];
    }
}

INSTANTIATE_TEST_SUITE_P(EveryWidth, FoldedRunProperty,
                         ::testing::Range(1u, 33u));

// ---------------------------------------------------------------
// The whole geometric series behaves: every candidate length's
// planted formula is recovered by the trainer at that length.
// ---------------------------------------------------------------

class PlantedLengthProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PlantedLengthProperty, TrainerPicksThePlantedLength)
{
    unsigned lengthIdx = GetParam();
    WhisperConfig cfg;
    cfg.formulaFraction = 1.0;
    TruthTableCache cache(8);
    WhisperTrainer trainer(cfg, cache);

    BranchProfile profile(cfg);
    profile.markHard(0x40);
    BranchProfileEntry &e = profile.entry(0x40);
    BoolFormula f(0x5AC3, 8);
    Rng rng(lengthIdx + 1);
    for (int s = 0; s < 3000; ++s) {
        uint8_t hashed = static_cast<uint8_t>(rng.nextBelow(256));
        bool taken = f.evaluate(hashed);
        ++e.executions;
        if (taken)
            ++e.takenCount;
        for (size_t l = 0; l < e.byLength.size(); ++l) {
            e.byLength[l].record(
                l == lengthIdx
                    ? hashed
                    : static_cast<uint8_t>(rng.nextBelow(256)),
                taken);
        }
        e.raw4.record(rng.nextBelow(16), taken);
        e.raw8.record(rng.nextBelow(256), taken);
    }
    e.baselineMispredicts = 1000;

    TrainedHint hint;
    ASSERT_TRUE(trainer.trainBranchSeeded(e, profile.lengths(), nullptr,
                                          hint));
    EXPECT_EQ(hint.hint.historyIdx, lengthIdx);
    EXPECT_EQ(hint.expectedMispredicts, 0u);
    EXPECT_EQ(hint.historyLength, profile.lengths()[lengthIdx]);
}

INSTANTIATE_TEST_SUITE_P(AllSeriesIndices, PlantedLengthProperty,
                         ::testing::Range(0u, 16u));

// ---------------------------------------------------------------
// Monotone encodings (AND/OR ops, no inversion) compute monotone
// functions; this is the ROMBF-compatibility property of the
// extended formula encoding.
// ---------------------------------------------------------------

class MonotoneEncodingProperty
    : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MonotoneEncodingProperty, MonotoneEncodingsAreMonotone)
{
    // Map the 7-bit parameter to an AND/OR-only encoding.
    unsigned pattern = GetParam();
    uint16_t enc = 0;
    for (unsigned n = 0; n < 7; ++n)
        enc |= ((pattern >> n) & 1u) << (2 * n);
    BoolFormula f(enc, 8);
    ASSERT_TRUE(f.isMonotone());

    for (unsigned v = 0; v < 256; ++v) {
        bool fv = f.evaluate(static_cast<uint8_t>(v));
        for (unsigned b = 0; b < 8; ++b) {
            if (v & (1u << b))
                continue;
            bool fw = f.evaluate(static_cast<uint8_t>(v | (1u << b)));
            ASSERT_TRUE(!fv || fw)
                << "enc=" << enc << " v=" << v << " b=" << b;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllOpPatterns, MonotoneEncodingProperty,
                         ::testing::Range(0u, 128u));

// ---------------------------------------------------------------
// Every application model is deterministic, replays after rewind,
// and exposes a sane record mix.
// ---------------------------------------------------------------

class AppProperty : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AppProperty, DeterministicReplayAndMix)
{
    const AppConfig &app = appByName(GetParam());
    AppWorkload a(app, 1, 8000), b(app, 1, 8000);
    BranchRecord ra, rb;
    uint64_t conds = 0, total = 0;
    while (a.next(ra)) {
        ASSERT_TRUE(b.next(rb));
        ASSERT_EQ(ra.pc, rb.pc);
        ASSERT_EQ(ra.taken, rb.taken);
        ASSERT_EQ(static_cast<int>(ra.kind),
                  static_cast<int>(rb.kind));
        ++total;
        if (ra.isConditional())
            ++conds;
    }
    EXPECT_EQ(total, 8000u);
    // Conditional branches dominate the stream.
    EXPECT_GT(static_cast<double>(conds) / total, 0.6);
}

TEST_P(AppProperty, TageAccuracyInPlausibleBand)
{
    const AppConfig &app = appByName(GetParam());
    AppWorkload trace(app, 0, 250000);
    auto tage = makeTage(64);
    auto stats = runPredictor(trace, *tage, 0.4);
    // Sanity band: far better than chance, below perfection.
    EXPECT_GT(stats.accuracy(), 0.85) << app.name;
    EXPECT_LT(stats.accuracy(), 0.9999) << app.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllDataCenterApps, AppProperty,
    ::testing::Values("cassandra", "clang", "drupal",
                      "finagle-chirper", "finagle-http", "kafka",
                      "mediawiki", "mysql", "postgres", "python",
                      "tomcat", "wordpress"));

INSTANTIATE_TEST_SUITE_P(SomeSpecApps, AppProperty,
                         ::testing::Values("leela", "gcc", "xz"));

// ---------------------------------------------------------------
// Cache property: hit rate is monotone in capacity and in
// associativity for a fixed working set.
// ---------------------------------------------------------------

class CacheScalingProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CacheScalingProperty, MoreCapacityNeverHurtsMuch)
{
    auto [sizeKb, ways] = GetParam();
    Cache c(sizeKb * 1024ULL, ways);
    Cache c2(sizeKb * 2048ULL, ways);
    Rng rng(sizeKb * 7 + ways);
    uint64_t missSmall = 0, missLarge = 0;
    for (int i = 0; i < 30000; ++i) {
        uint64_t addr = rng.nextBelow(2048) * 64;
        missSmall += !c.access(addr);
        missLarge += !c2.access(addr);
    }
    EXPECT_LE(missLarge, missSmall + missSmall / 10);
}

INSTANTIATE_TEST_SUITE_P(
    SizeWaysGrid, CacheScalingProperty,
    ::testing::Combine(::testing::Values(8u, 32u, 64u),
                       ::testing::Values(2u, 8u, 16u)));

// ---------------------------------------------------------------
// TAGE budgets: storage strictly grows and accuracy on a capacity-
// stressing stream never degrades much with size.
// ---------------------------------------------------------------

class TageBudgetProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TageBudgetProperty, StorageMatchesBudgetClass)
{
    unsigned kb = GetParam();
    TageScl t(TageSclConfig::forBudgetKB(kb));
    double reportedKb =
        static_cast<double>(t.storageBits()) / 8.0 / 1024.0;
    EXPECT_GT(reportedKb, kb * 0.4) << kb;
    EXPECT_LT(reportedKb, kb * 2.2) << kb;
}

INSTANTIATE_TEST_SUITE_P(Budgets, TageBudgetProperty,
                         ::testing::Values(8u, 16u, 32u, 64u, 128u,
                                           256u, 512u, 1024u));
