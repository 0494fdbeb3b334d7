/**
 * @file
 * Unit tests for the ROMBF prior-work baseline.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/formula_trainer.hh"
#include "rombf/rombf_formula.hh"
#include "rombf/rombf_predictor.hh"
#include "rombf/rombf_trainer.hh"
#include "util/rng.hh"

#include "static_predictor.hh"
#include "step_reference.hh"

using namespace whisper;

TEST(RombfCount, RecurrenceValues)
{
    // T(n) = 2 * sum T(k)T(n-k): 1, 2, 8, 40, 224, 1344, 8448, 54912.
    EXPECT_EQ(rombfCount(1), 1u);
    EXPECT_EQ(rombfCount(2), 2u);
    EXPECT_EQ(rombfCount(3), 8u);
    EXPECT_EQ(rombfCount(4), 40u);
    EXPECT_EQ(rombfCount(8), 54912u);
}

TEST(RombfEnumeration, CountAndDedup)
{
    auto raw = enumerateRombf(4, /*dedupe=*/false);
    EXPECT_EQ(raw.enumerated, 40u);
    EXPECT_GE(raw.tables.size(), 30u); // includes structural dupes

    auto deduped = enumerateRombf(4, /*dedupe=*/true);
    EXPECT_LT(deduped.tables.size(), raw.tables.size());
    std::set<TruthTable> unique(deduped.tables.begin(),
                                deduped.tables.end());
    EXPECT_EQ(unique.size(), deduped.tables.size());
}

TEST(RombfEnumeration, AllTablesAreMonotone)
{
    // Property: every ROMBF is a monotone Boolean function — flipping
    // any input 0->1 never flips the output 1->0.
    auto e = enumerateRombf(4, true);
    for (const auto &tt : e.tables) {
        for (unsigned v = 0; v < 16; ++v) {
            bool fv = (tt[0] >> v) & 1;
            for (unsigned b = 0; b < 4; ++b) {
                if (v & (1u << b))
                    continue;
                unsigned w = v | (1u << b);
                bool fw = (tt[0] >> w) & 1;
                ASSERT_TRUE(!fv || fw) << "not monotone at " << v;
            }
        }
    }
}

TEST(RombfEnumeration, ContainsChainAndTree)
{
    // Both the balanced tree AND((b0&b1),(b2&b3)) and the chain
    // ((b0&b1)&b2)&b3 reduce to all-AND; OR similarly. Check the
    // canonical AND/OR of all four variables are present.
    auto e = enumerateRombf(4, true);
    TruthTable allAnd{}, allOr{};
    for (unsigned v = 0; v < 16; ++v) {
        if (v == 15)
            allAnd[0] |= 1ULL << v;
        if (v != 0)
            allOr[0] |= 1ULL << v;
    }
    bool sawAnd = false, sawOr = false;
    for (const auto &tt : e.tables) {
        sawAnd |= tt == allAnd;
        sawOr |= tt == allOr;
    }
    EXPECT_TRUE(sawAnd);
    EXPECT_TRUE(sawOr);
}

namespace
{

BranchProfile
plantedRombfProfile(const WhisperConfig &cfg)
{
    BranchProfile profile(cfg);
    profile.markHard(0x500);
    BranchProfileEntry &e = profile.entry(0x500);
    Rng rng(13);
    for (int s = 0; s < 3000; ++s) {
        unsigned h8 = static_cast<unsigned>(rng.nextBelow(256));
        // Planted read-once monotone function of the last 8 bits:
        // (b0&b1&b2&b3) | (b4&b5&b6&b7) — every variable used once.
        bool taken = ((h8 & 0x0F) == 0x0F) || ((h8 & 0xF0) == 0xF0);
        ++e.executions;
        if (taken)
            ++e.takenCount;
        e.raw8.record(h8, taken);
        e.raw4.record(h8 & 15, taken);
        for (auto &table : e.byLength)
            table.record(static_cast<unsigned>(rng.nextBelow(256)),
                         taken);
    }
    e.baselineMispredicts = 900;
    return profile;
}

} // namespace

TEST(RombfTrainer, RecoversMonotoneFunction)
{
    WhisperConfig cfg;
    BranchProfile profile = plantedRombfProfile(cfg);
    RombfTrainer trainer(8);
    RombfTrainingStats stats;
    auto hints = trainer.train(profile, &stats);
    ASSERT_EQ(hints.size(), 1u);
    EXPECT_GE(hints[0].tableIdx, 0);
    EXPECT_EQ(hints[0].expectedMispredicts, 0u);
    EXPECT_GT(stats.formulasScored, 0u);
}

TEST(RombfTrainer, FourBitCannotSeeUpperBits)
{
    // The planted function also depends on bits 4-7; the 4-bit
    // variant sees only the last 4 outcomes, so its best formula is
    // lossy.
    WhisperConfig cfg;
    BranchProfile profile = plantedRombfProfile(cfg);
    RombfTrainer t4(4), t8(8);
    auto h4 = t4.train(profile);
    auto h8 = t8.train(profile);
    ASSERT_EQ(h8.size(), 1u);
    uint64_t m4 = h4.empty() ? profile.entry(0x500).biasMispredicts()
                             : h4[0].expectedMispredicts;
    EXPECT_GT(m4, h8[0].expectedMispredicts);
}

TEST(RombfTrainer, SkipsWellPredictedBranches)
{
    WhisperConfig cfg;
    BranchProfile profile = plantedRombfProfile(cfg);
    profile.entry(0x500).baselineMispredicts = 2;
    RombfTrainer trainer(8);
    EXPECT_TRUE(trainer.train(profile).empty());
}

TEST(RombfPredictor, PredictsViaAnnotation)
{
    WhisperConfig cfg;
    BranchProfile profile = plantedRombfProfile(cfg);
    RombfTrainer trainer(8);
    auto hints = trainer.train(profile);
    ASSERT_EQ(hints.size(), 1u);

    RombfPredictor pred(std::make_unique<StaticPredictor>(false),
                        trainer, hints);

    // Drive history so the last 8 outcomes are all taken: planted
    // function fires.
    std::vector<BranchRecord> warm(8);
    for (BranchRecord &rec : warm) {
        rec.pc = 0x999;
        rec.taken = true;
    }
    std::vector<uint8_t> miss(warm.size());
    pred.step(warm, miss.data());
    EXPECT_TRUE(predictedDirection(pred, 0x500, true));
    EXPECT_EQ(pred.hintPredictions(), 1u);

    // Un-annotated branches fall through to the base predictor.
    EXPECT_FALSE(predictedDirection(pred, 0x777, true));
}

TEST(RombfPredictor, BiasAnnotation)
{
    WhisperConfig cfg;
    BranchProfile profile(cfg);
    profile.markHard(0x10);
    auto &e = profile.entry(0x10);
    e.executions = 1000;
    e.takenCount = 995;
    e.baselineMispredicts = 400;
    RombfTrainer trainer(8);
    auto hints = trainer.train(profile);
    ASSERT_EQ(hints.size(), 1u);
    EXPECT_LT(hints[0].tableIdx, 0);
    EXPECT_TRUE(hints[0].biasTaken);

    RombfPredictor pred(std::make_unique<StaticPredictor>(false),
                        trainer, hints);
    EXPECT_TRUE(predictedDirection(pred, 0x10, false));
}
