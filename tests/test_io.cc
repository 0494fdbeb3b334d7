/**
 * @file
 * Round-trip tests for the profile / hint-bundle serialization.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/whisper_io.hh"
#include "sim/experiment.hh"
#include "util/rng.hh"

using namespace whisper;

namespace
{

BranchProfile
smallProfile()
{
    ExperimentConfig cfg;
    cfg.trainRecords = 120'000;
    cfg.profile.maxHardBranches = 64;
    return profileApp(appByName("kafka"), 0, cfg);
}

/**
 * Hand-written profile file with one hard branch: the header claims
 * @p hashWidth and every per-length table has @p keys entries (raw4
 * and raw8 are well formed). Returns its path.
 */
std::string
craftProfile(const char *name, unsigned hashWidth, uint64_t keys)
{
    std::string path =
        std::string("/tmp/whisper_test_crafted_") + name + ".bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    auto put = [f](auto v) { std::fwrite(&v, sizeof(v), 1, f); };
    auto table = [&](uint64_t n) {
        std::vector<uint32_t> counts(n, 1);
        for (int half = 0; half < 2; ++half) {
            put(n);
            std::fwrite(counts.data(), sizeof(uint32_t), n, f);
        }
    };
    WhisperConfig cfg;
    put(uint32_t{0x57485052}); // "WHPR"
    put(uint32_t{1});          // version
    put(cfg.minHistoryLength);
    put(cfg.maxHistoryLength);
    put(cfg.numHistoryLengths);
    put(hashWidth);
    put(uint64_t{1000}); // instructions
    put(uint64_t{100});  // conditionals
    put(uint64_t{10});   // mispredicts
    put(uint64_t{1});    // branches
    put(uint64_t{0x400000});
    put(uint64_t{100}); // executions
    put(uint64_t{50});  // taken
    put(uint64_t{10});  // baseline mispredicts
    put(uint8_t{1});    // hard
    for (size_t l = 0; l < geometricLengths(cfg).size(); ++l)
        table(keys);
    table(16);
    table(256);
    std::fclose(f);
    return path;
}

} // namespace

TEST(ProfileIo, CraftedWellFormedProfileLoads)
{
    // Control for the rejections below: the crafted layout itself
    // is accepted when its widths are consistent.
    std::string path = craftProfile("ok", 8, 256);
    BranchProfile p;
    EXPECT_TRUE(loadProfile(p, path).ok());
    std::remove(path.c_str());
    EXPECT_EQ(p.numHardBranches(), 1u);
}

TEST(ProfileIo, RejectsHashWidthBeyondShiftRange)
{
    // 1u << 40 would be undefined behaviour when marking the branch
    // hard; the header check must stop it first.
    std::string path = craftProfile("w40", 40, 256);
    BranchProfile p;
    EXPECT_TRUE(loadProfile(p, path).corrupt());
    std::remove(path.c_str());
}

TEST(ProfileIo, RejectsHashWidthWiderThanTruthTable)
{
    // Nine bits is 512 keys: more than a 256-bit truth table covers.
    std::string path = craftProfile("w9", 9, 512);
    BranchProfile p;
    EXPECT_TRUE(loadProfile(p, path).corrupt());
    std::remove(path.c_str());
}

TEST(ProfileIo, RejectsTableLengthNotMatchingHashWidth)
{
    std::string path = craftProfile("t1024", 8, 1024);
    BranchProfile p;
    EXPECT_TRUE(loadProfile(p, path).corrupt());
    std::remove(path.c_str());
}

TEST(ProfileIo, RoundTrip)
{
    BranchProfile original = smallProfile();
    std::string path = "/tmp/whisper_test_profile.bin";
    ASSERT_TRUE(saveProfile(original, path));

    BranchProfile loaded;
    ASSERT_TRUE(loadProfile(loaded, path).ok());
    std::remove(path.c_str());

    EXPECT_EQ(loaded.numBranches(), original.numBranches());
    EXPECT_EQ(loaded.numHardBranches(),
              original.numHardBranches());
    EXPECT_EQ(loaded.totalInstructions,
              original.totalInstructions);
    EXPECT_EQ(loaded.totalMispredicts, original.totalMispredicts);
    EXPECT_EQ(loaded.lengths(), original.lengths());

    for (const auto &[pc, e] : original.entries()) {
        ASSERT_TRUE(loaded.entries().contains(pc));
        const BranchProfileEntry *l = &loaded.entries().at(pc);
        EXPECT_EQ(l->executions, e.executions);
        EXPECT_EQ(l->takenCount, e.takenCount);
        EXPECT_EQ(l->baselineMispredicts, e.baselineMispredicts);
        EXPECT_EQ(l->hard, e.hard);
        if (e.hard) {
            for (size_t i = 0; i < e.byLength.size(); ++i) {
                EXPECT_EQ(l->byLength[i].taken, e.byLength[i].taken);
                EXPECT_EQ(l->byLength[i].notTaken,
                          e.byLength[i].notTaken);
            }
            EXPECT_EQ(l->raw8.taken, e.raw8.taken);
        }
    }
}

TEST(ProfileIo, LoadedProfileTrainsIdentically)
{
    // The serialized profile must drive the trainer to the exact
    // same hints as the in-memory one.
    BranchProfile original = smallProfile();
    std::string path = "/tmp/whisper_test_profile2.bin";
    ASSERT_TRUE(saveProfile(original, path));
    BranchProfile loaded;
    ASSERT_TRUE(loadProfile(loaded, path).ok());
    std::remove(path.c_str());

    WhisperConfig cfg;
    WhisperTrainer trainer(cfg, globalTruthTables());
    auto a = trainer.train(original);
    auto b = trainer.train(loaded);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pc, b[i].pc);
        EXPECT_EQ(a[i].hint, b[i].hint);
        EXPECT_EQ(a[i].expectedMispredicts,
                  b[i].expectedMispredicts);
    }
}

TEST(ProfileIo, RejectsGarbage)
{
    std::string path = "/tmp/whisper_test_garbage_profile.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("garbage garbage garbage", f);
    std::fclose(f);
    BranchProfile p;
    EXPECT_TRUE(loadProfile(p, path).corrupt());
    std::remove(path.c_str());
}

TEST(ProfileIo, MissingFileFails)
{
    BranchProfile p;
    EXPECT_TRUE(
        loadProfile(p, "/tmp/does_not_exist_whisper.bin").missing());
    EXPECT_FALSE(saveProfile(p, "/nonexistent-dir/x.bin"));
}

TEST(HintBundleIo, RoundTrip)
{
    Rng rng(31);
    HintBundle original;
    for (int i = 0; i < 200; ++i) {
        TrainedHint h;
        h.pc = 0x400000 + rng.nextBelow(1 << 20) * 16;
        h.hint.historyIdx = static_cast<uint8_t>(rng.nextBelow(16));
        h.hint.formula =
            static_cast<uint16_t>(rng.nextBelow(1 << 15));
        h.hint.bias = static_cast<HintBias>(rng.nextBelow(3));
        h.hint.pcPointer = BrHint::pcPointerFor(h.pc);
        h.historyLength = static_cast<unsigned>(rng.nextBelow(1025));
        h.expectedMispredicts = rng.nextBelow(1000);
        h.profiledMispredicts =
            h.expectedMispredicts + rng.nextBelow(1000);
        h.executions = h.profiledMispredicts + rng.nextBelow(10000);
        original.hints.push_back(h);

        HintPlacement p;
        p.branchPc = h.pc;
        p.predecessorPc = h.pc - 16;
        p.coverage = rng.nextDouble();
        p.precision = rng.nextDouble();
        p.predecessorExecutions = rng.nextBelow(100000);
        original.placements.push_back(p);
    }

    std::string path = "/tmp/whisper_test_hints.bin";
    ASSERT_TRUE(saveHintBundle(original, path));
    HintBundle loaded;
    ASSERT_TRUE(loadHintBundle(loaded, path).ok());
    std::remove(path.c_str());

    ASSERT_EQ(loaded.hints.size(), original.hints.size());
    ASSERT_EQ(loaded.placements.size(), original.placements.size());
    for (size_t i = 0; i < original.hints.size(); ++i) {
        EXPECT_EQ(loaded.hints[i].pc, original.hints[i].pc);
        EXPECT_EQ(loaded.hints[i].hint, original.hints[i].hint);
        EXPECT_EQ(loaded.hints[i].historyLength,
                  original.hints[i].historyLength);
        EXPECT_EQ(loaded.placements[i].predecessorPc,
                  original.placements[i].predecessorPc);
        EXPECT_DOUBLE_EQ(loaded.placements[i].coverage,
                         original.placements[i].coverage);
    }
}

TEST(HintBundleIo, BundleDrivesPredictor)
{
    // A bundle loaded from disk must build a working predictor.
    ExperimentConfig cfg;
    cfg.trainRecords = 200'000;
    cfg.testRecords = 150'000;
    const AppConfig &app = appByName("kafka");
    BranchProfile profile = profileApp(app, 0, cfg);
    WhisperBuild build = trainWhisper(app, 0, profile, cfg);

    HintBundle bundle{build.hints, build.placements};
    std::string path = "/tmp/whisper_test_bundle.bin";
    ASSERT_TRUE(saveHintBundle(bundle, path));
    HintBundle loaded;
    ASSERT_TRUE(loadHintBundle(loaded, path).ok());
    std::remove(path.c_str());

    WhisperBuild rebuilt;
    rebuilt.hints = loaded.hints;
    rebuilt.placements = loaded.placements;
    auto a = makeWhisperPredictor(cfg, build);
    auto b = makeWhisperPredictor(cfg, rebuilt);
    auto sa = evalApp(app, 1, cfg, *a);
    auto sb = evalApp(app, 1, cfg, *b);
    EXPECT_EQ(sa.mispredicts, sb.mispredicts);
}

TEST(HintBundleIo, RejectsGarbage)
{
    std::string path = "/tmp/whisper_test_garbage_hints.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("x", f);
    std::fclose(f);
    HintBundle b;
    EXPECT_TRUE(loadHintBundle(b, path).corrupt());
    std::remove(path.c_str());
}

TEST(VersionedBundleIo, RoundTripPreservesEpochHeader)
{
    Rng rng(77);
    VersionedHintBundle original;
    original.epoch = 42;
    original.validationAccuracy = 0.987654;
    for (int i = 0; i < 50; ++i) {
        TrainedHint h;
        h.pc = 0x400000 + rng.nextBelow(1 << 18) * 16;
        h.hint.historyIdx = static_cast<uint8_t>(rng.nextBelow(16));
        h.hint.formula =
            static_cast<uint16_t>(rng.nextBelow(1 << 15));
        h.hint.bias = static_cast<HintBias>(rng.nextBelow(3));
        h.hint.pcPointer = BrHint::pcPointerFor(h.pc);
        h.historyLength = static_cast<unsigned>(rng.nextBelow(1025));
        original.bundle.hints.push_back(h);

        HintPlacement p;
        p.branchPc = h.pc;
        p.predecessorPc = h.pc - 16;
        p.coverage = rng.nextDouble();
        original.bundle.placements.push_back(p);
    }

    std::string path = "/tmp/whisper_test_versioned.bin";
    ASSERT_TRUE(saveVersionedBundle(original, path));
    VersionedHintBundle loaded;
    ASSERT_TRUE(loadVersionedBundle(loaded, path).ok());
    std::remove(path.c_str());

    EXPECT_EQ(loaded.epoch, original.epoch);
    EXPECT_DOUBLE_EQ(loaded.validationAccuracy,
                     original.validationAccuracy);
    EXPECT_TRUE(loaded == original);
}

TEST(VersionedBundleIo, RejectsBadMagic)
{
    // A plain (un-versioned) hint bundle has a different magic; the
    // versioned loader must refuse it rather than misparse.
    HintBundle plain;
    plain.hints.resize(1);
    std::string path = "/tmp/whisper_test_versioned_badmagic.bin";
    ASSERT_TRUE(saveHintBundle(plain, path));
    VersionedHintBundle v;
    EXPECT_TRUE(loadVersionedBundle(v, path).corrupt());

    // And vice versa: a versioned file is not a plain bundle.
    VersionedHintBundle versioned;
    versioned.epoch = 1;
    ASSERT_TRUE(saveVersionedBundle(versioned, path));
    HintBundle b;
    EXPECT_TRUE(loadHintBundle(b, path).corrupt());
    std::remove(path.c_str());
}

TEST(VersionedBundleIo, RejectsTruncatedHeader)
{
    std::string path = "/tmp/whisper_test_versioned_trunc.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    uint32_t magic = 0x57484550; // kEpochMagic, but nothing after it
    std::fwrite(&magic, sizeof magic, 1, f);
    std::fclose(f);
    VersionedHintBundle v;
    EXPECT_TRUE(loadVersionedBundle(v, path).corrupt());
    std::remove(path.c_str());
}
