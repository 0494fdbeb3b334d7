/**
 * @file
 * Unit tests for the BranchNet baseline (model, trainer, hybrid).
 */

#include <gtest/gtest.h>

#include <memory>

#include "branchnet/branchnet_model.hh"
#include "branchnet/branchnet_predictor.hh"
#include "branchnet/branchnet_trainer.hh"
#include "util/rng.hh"

#include "static_predictor.hh"
#include "step_reference.hh"

using namespace whisper;

namespace
{

/**
 * Samples whose label is the majority direction within one pooling
 * window — the occurrence-count correlation a sum-pooled CNN is
 * built to capture (BranchNet's design point).
 */
std::vector<BranchNetSample>
positionalSamples(unsigned pool, int n, uint64_t seed)
{
    constexpr unsigned L = BranchNetGeometry::kPoolLen;
    Rng rng(seed);
    std::vector<BranchNetSample> samples(n);
    for (auto &s : samples) {
        for (auto &t : s.tokens)
            t = static_cast<uint8_t>(rng.nextBelow(128));
        unsigned takenCount = 0;
        for (unsigned i = 0; i < L; ++i)
            takenCount += s.tokens[(pool % BranchNetGeometry::kPools) *
                                       L + i] & 1;
        s.taken = takenCount >= L / 2;
    }
    return samples;
}

} // namespace

TEST(BranchNetToken, SevenBits)
{
    for (uint64_t pc : {0x10ULL, 0x123456ULL, 0xFFFF0ULL}) {
        EXPECT_LT(branchNetToken(pc, false), 128);
        EXPECT_EQ(branchNetToken(pc, true) & 1, 1);
        EXPECT_EQ(branchNetToken(pc, false) & 1, 0);
    }
}

TEST(BranchNetGeometry, ModelFitsPaperBand)
{
    // Paper: 256B-2KB of metadata per branch.
    EXPECT_GE(BranchNetGeometry::modelBytes(), 256u);
    EXPECT_LE(BranchNetGeometry::modelBytes(), 2048u);
}

TEST(BranchNetModel, LearnsOccurrenceCorrelation)
{
    auto samples = positionalSamples(2, 3000, 77);
    BranchNetModel model(1);
    double acc = model.train(samples, 6, 0.05);
    EXPECT_GT(acc, 0.85);
}

TEST(BranchNetModel, CannotLearnPureNoise)
{
    Rng rng(5);
    std::vector<BranchNetSample> samples(2000);
    for (auto &s : samples) {
        for (auto &t : s.tokens)
            t = static_cast<uint8_t>(rng.nextBelow(128));
        s.taken = rng.nextBool(0.5);
    }
    BranchNetModel model(1);
    double acc = model.train(samples, 3, 0.05);
    EXPECT_LT(acc, 0.75); // memorization is limited by capacity
}

TEST(BranchNetModel, ForwardIsDeterministic)
{
    auto samples = positionalSamples(10, 100, 9);
    BranchNetModel model(42);
    double p1 = model.forward(samples[0].tokens);
    double p2 = model.forward(samples[0].tokens);
    EXPECT_DOUBLE_EQ(p1, p2);
    EXPECT_GT(p1, 0.0);
    EXPECT_LT(p1, 1.0);
}

TEST(SampleStore, TracksOnlyRequestedPcs)
{
    BranchNetSampleStore store(4);
    store.setTracked({0x10, 0x20});
    BranchNetSample s{};
    store.record(0x10, s);
    store.record(0x30, s);
    EXPECT_NE(store.find(0x10), nullptr);
    EXPECT_EQ(store.find(0x10)->size(), 1u);
    EXPECT_EQ(store.find(0x30), nullptr);
    // A tracked PC without samples has an empty list.
    ASSERT_NE(store.find(0x20), nullptr);
    EXPECT_TRUE(store.find(0x20)->empty());
}

TEST(SampleStore, CapsSamples)
{
    BranchNetSampleStore store(3);
    store.setTracked({0x10});
    BranchNetSample s{};
    for (int i = 0; i < 10; ++i)
        store.record(0x10, s);
    EXPECT_EQ(store.find(0x10)->size(), 3u);
}

namespace
{

/** Profile + store with @p n hard branches, each CNN-learnable. */
void
makeLearnableSet(unsigned n, BranchProfile &profile,
                 BranchNetSampleStore &store)
{
    std::vector<uint64_t> pcs;
    for (unsigned i = 0; i < n; ++i)
        pcs.push_back(0x1000 + i * 16);
    store.setTracked(pcs);
    for (unsigned i = 0; i < n; ++i) {
        uint64_t pc = pcs[i];
        profile.markHard(pc);
        auto &e = profile.entry(pc);
        auto samples = positionalSamples(8 + i % 40, 300, 100 + i);
        for (const auto &s : samples) {
            store.record(pc, s);
            ++e.executions;
            if (s.taken)
                ++e.takenCount;
        }
        e.baselineMispredicts = 100 + n - i; // ranked by misses
    }
}

} // namespace

TEST(BranchNetTrainer, BudgetLimitsModels)
{
    WhisperConfig cfg;
    BranchProfile profile(cfg);
    BranchNetSampleStore store;
    makeLearnableSet(32, profile, store);

    uint64_t perModel = BranchNetGeometry::modelBytes();
    BranchNetTrainer small(8 * 1024);
    BranchNetTrainingStats stats;
    auto models = small.train(profile, store, &stats);
    EXPECT_LE(models.size(), 8 * 1024 / perModel);
    EXPECT_GT(models.size(), 0u);
    EXPECT_LE(stats.metadataBytes, 8 * 1024u);

    BranchNetTrainer unlimited(0, 64);
    auto all = unlimited.train(profile, store);
    EXPECT_GT(all.size(), models.size());
}

TEST(BranchNetTrainer, PrioritizesTopMispredictors)
{
    WhisperConfig cfg;
    BranchProfile profile(cfg);
    BranchNetSampleStore store;
    makeLearnableSet(16, profile, store);

    BranchNetTrainer tiny(2 * BranchNetGeometry::modelBytes());
    auto models = tiny.train(profile, store);
    ASSERT_EQ(models.size(), 2u);
    // Branch 0 has the most profiled mispredictions.
    EXPECT_EQ(models[0].pc, 0x1000u);
}

TEST(BranchNetPredictor, HybridRouting)
{
    WhisperConfig cfg;
    BranchProfile profile(cfg);
    BranchNetSampleStore store;
    makeLearnableSet(4, profile, store);
    BranchNetTrainer trainer(0, 8);
    auto models = trainer.train(profile, store);
    ASSERT_FALSE(models.empty());
    uint64_t covered = models[0].pc;

    BranchNetPredictor pred(std::make_unique<StaticPredictor>(true),
                            std::move(models), "test-bn");
    predictedDirection(pred, covered, true);
    EXPECT_EQ(pred.cnnPredictions(), 1u);

    // Uncovered branch -> base predictor (always true).
    EXPECT_TRUE(predictedDirection(pred, 0x9999, false));
    EXPECT_EQ(pred.cnnPredictions(), 1u);
}

TEST(TokenHistory, SnapshotOrder)
{
    TokenHistory th;
    for (int i = 0; i < 70; ++i)
        th.push(0x100 + i * 16, i % 2 == 0);
    auto snap = th.snapshot();
    // Last pushed token must be the newest (back of the snapshot).
    EXPECT_EQ(snap.back(), branchNetToken(0x100 + 69 * 16, false));
    EXPECT_EQ(snap[0], branchNetToken(0x100 + 6 * 16, true));
}
