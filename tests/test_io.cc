/**
 * @file
 * Tests for the hint-bundle encodings: the .hints file and the
 * in-memory versioned codec of the journal and the wire.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/whisper_io.hh"
#include "sim/experiment.hh"
#include "util/rng.hh"

using namespace whisper;

namespace
{

using Bytes = std::vector<unsigned char>;

Bytes
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

void
writeFile(const std::string &path, const Bytes &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** Two hints, each with one placement. */
HintBundle
twoHintBundle()
{
    HintBundle b;
    for (uint64_t pc : {0x401000u, 0x402000u}) {
        TrainedHint h;
        h.pc = pc;
        h.hint.formula = 0x1234;
        h.hint.pcPointer = BrHint::pcPointerFor(pc);
        h.historyLength = 32;
        b.hints.push_back(h);
        HintPlacement p;
        p.branchPc = pc;
        p.predecessorPc = pc - 0x40;
        p.coverage = 0.5;
        b.placements.push_back(p);
    }
    return b;
}

} // namespace

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

TEST(HintBundleIo, RejectsTrailingBytes)
{
    // The file is one bundle: bytes after it are damage, not padding.
    const HintBundle original = twoHintBundle();
    std::string path = "/tmp/whisper_test_trailing_hints.bin";
    ASSERT_TRUE(saveHintBundle(original, path));
    HintBundle loaded;
    ASSERT_TRUE(loadHintBundle(loaded, path).ok());
    EXPECT_EQ(loaded, original);

    Bytes bytes = readFile(path);
    bytes.insert(bytes.end(), 16, 0);
    writeFile(path, bytes);
    EXPECT_TRUE(loadHintBundle(loaded, path).corrupt());
    std::remove(path.c_str());
}

TEST(HintBundleIo, RejectsFileLargerThanAnyBundle)
{
    // An empty bundle grown sparse to one byte past the largest
    // bundle the count caps allow (2^24 hints and placements): refused
    // by its size, before any of it is read.
    std::string path = "/tmp/whisper_test_huge_hints.bin";
    ASSERT_TRUE(saveHintBundle(HintBundle{}, path));
    std::filesystem::resize_file(path, 8 + 2 * 8 + (1ULL << 24) * 84 + 1);
    HintBundle b;
    EXPECT_TRUE(loadHintBundle(b, path).corrupt());
    std::remove(path.c_str());
}

TEST(HintBundleIo, MissingFileFails)
{
    HintBundle b;
    EXPECT_TRUE(
        loadHintBundle(b, "/tmp/does_not_exist_whisper.bin").missing());
    EXPECT_FALSE(saveHintBundle(b, "/nonexistent-dir/x.bin"));
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

    const std::vector<unsigned char> bytes =
        encodeVersionedBundle(original);
    VersionedHintBundle loaded;
    ASSERT_TRUE(decodeVersionedBundle(loaded, bytes.data(), bytes.size()));

    EXPECT_EQ(loaded.epoch, original.epoch);
    EXPECT_DOUBLE_EQ(loaded.validationAccuracy,
                     original.validationAccuracy);
    EXPECT_TRUE(loaded == original);
}

TEST(VersionedBundleIo, RejectsBadMagic)
{
    // A versioned bundle's bytes are not a .hints file: they carry no
    // bundle magic, so the file loader refuses them rather than
    // misparse.
    VersionedHintBundle versioned;
    versioned.epoch = 1;
    versioned.bundle.hints.resize(1);
    std::string path = "/tmp/whisper_test_versioned_badmagic.bin";
    writeFile(path, encodeVersionedBundle(versioned));
    HintBundle b;
    EXPECT_TRUE(loadHintBundle(b, path).corrupt());
    std::remove(path.c_str());
}

TEST(VersionedBundleIo, RejectsTruncatedHeader)
{
    // The epoch and accuracy header cut short, and a header with no
    // body after it.
    const std::vector<unsigned char> bytes =
        encodeVersionedBundle(VersionedHintBundle{});
    VersionedHintBundle v;
    for (size_t size : {size_t{0}, size_t{4}, size_t{12}, size_t{16}})
        EXPECT_FALSE(decodeVersionedBundle(v, bytes.data(), size))
            << size;
    EXPECT_TRUE(decodeVersionedBundle(v, bytes.data(), bytes.size()));
}
