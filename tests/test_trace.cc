/**
 * @file
 * Unit tests for src/trace: records, global/folded history, trace
 * container and serialization.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "trace/branch_trace.hh"
#include "trace/global_history.hh"
#include "trace/trace_reader.hh"
#include "util/byte_codec.hh"
#include "util/crc32.hh"

using namespace whisper;

namespace
{

/** @p n pseudo-random records, padding bytes included zeroed. */
std::vector<BranchRecord>
lcgRecords(size_t n)
{
    std::vector<BranchRecord> records(n);
    std::memset(static_cast<void *>(records.data()), 0,
                n * sizeof(BranchRecord));
    uint64_t seed = 11;
    for (BranchRecord &rec : records) {
        seed = seed * 2862933555777941757ULL + 3037000493ULL;
        rec.pc = 0x400000 + (seed & 0xFFFF);
        rec.target = rec.pc + 16;
        rec.taken = (seed >> 17) & 1;
        rec.kind = static_cast<BranchKind>((seed >> 20) % 5);
        rec.instGap = (seed >> 24) & 0xF;
    }
    return records;
}

std::vector<unsigned char>
imageOf(std::span<const BranchRecord> records)
{
    std::vector<unsigned char> image;
    appendRecordImage(image, records);
    return image;
}

/** Header bytes of the traces built below: app "app", input 3. */
constexpr size_t kHeaderBytes = 4 + 4 + 4 + 3 + 4 + 8;

/** A .whrt file built by hand: a version-1 raw array, or version-2
 * frames of @p frames records each. */
std::vector<unsigned char>
traceFile(const std::vector<BranchRecord> &records, uint32_t version,
          const std::vector<size_t> &frames = {})
{
    ByteWriter w;
    w.put(BranchTrace::kFileMagic);
    w.put(version);
    w.putStr("app");
    w.put(uint32_t{3});
    w.put(static_cast<uint64_t>(records.size()));
    std::vector<unsigned char> out = w.take();
    if (version == 1) {
        appendRecordImage(out, records);
        return out;
    }
    size_t at = 0;
    for (size_t n : frames) {
        std::vector<unsigned char> image =
            imageOf(std::span(records).subspan(at, n));
        ByteWriter frame;
        frame.put(BranchTrace::kFrameMagic);
        frame.put(static_cast<uint32_t>(n));
        frame.put(crc32(image.data(), image.size()));
        frame.putBytes(image.data(), image.size());
        std::vector<unsigned char> bytes = frame.take();
        out.insert(out.end(), bytes.begin(), bytes.end());
        at += n;
    }
    return out;
}

void
writeFile(const std::string &path, const std::vector<unsigned char> &b)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(b.data(), 1, b.size(), f), b.size());
    std::fclose(f);
}

std::vector<unsigned char>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

template <typename T>
void
poke(std::vector<unsigned char> &bytes, size_t at, T v)
{
    std::memcpy(bytes.data() + at, &v, sizeof(v));
}

} // namespace

TEST(GlobalHistory, PushAndBit)
{
    GlobalHistory h(16);
    h.push(true);
    h.push(false);
    h.push(true);
    EXPECT_TRUE(h.bit(0));
    EXPECT_FALSE(h.bit(1));
    EXPECT_TRUE(h.bit(2));
    EXPECT_EQ(h.count(), 3u);
}

TEST(GlobalHistory, LastBits)
{
    GlobalHistory h(64);
    // Push 1,1,0,1 -> bit0 is the newest (1), then 0, 1, 1.
    h.push(true);
    h.push(true);
    h.push(false);
    h.push(true);
    EXPECT_EQ(h.lastBits(4), 0b1101u);
    EXPECT_EQ(h.lastBits(2), 0b01u);
}

TEST(GlobalHistory, WrapsAround)
{
    GlobalHistory h(8);
    for (int i = 0; i < 20; ++i)
        h.push(i % 3 == 0);
    // Most recent push was i=19 (19%3!=0 -> false).
    EXPECT_FALSE(h.bit(0));
    // i=18 -> true.
    EXPECT_TRUE(h.bit(1));
}

TEST(FoldedHistory, MatchesReferenceFold)
{
    // The incremental folded register must equal the reference fold
    // computed from the raw ring at every step.
    GlobalHistory h(256);
    size_t v8 = h.addFoldedView(37, 8);
    size_t v5 = h.addFoldedView(12, 5);
    size_t v13 = h.addFoldedView(64, 13);

    uint64_t seed = 12345;
    for (int i = 0; i < 500; ++i) {
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        h.push((seed >> 40) & 1);
        ASSERT_EQ(h.foldedValue(v8), h.foldedHash(37, 8)) << i;
        ASSERT_EQ(h.foldedValue(v5), h.foldedHash(12, 5)) << i;
        ASSERT_EQ(h.foldedValue(v13), h.foldedHash(64, 13)) << i;
    }
}

TEST(FoldedHistory, IdentityWhenLengthEqualsWidth)
{
    // Folding the last 8 bits into 8 bits is the raw history.
    GlobalHistory h(64);
    size_t v = h.addFoldedView(8, 8);
    uint64_t seed = 7;
    for (int i = 0; i < 100; ++i) {
        seed = seed * 6364136223846793005ULL + 99;
        h.push((seed >> 33) & 1);
        ASSERT_EQ(h.foldedValue(v), h.lastBits(8));
    }
}

TEST(FoldedHistory, ResetClears)
{
    GlobalHistory h(32);
    size_t v = h.addFoldedView(16, 8);
    // 15 taken bits fold to a non-zero register (an even count per
    // fold position would cancel out).
    for (int i = 0; i < 15; ++i)
        h.push(true);
    EXPECT_NE(h.foldedValue(v), 0u);
    h.reset();
    EXPECT_EQ(h.foldedValue(v), 0u);
    EXPECT_EQ(h.count(), 0u);
}

TEST(FoldedHistory, MixedWidthsMatchReferenceThroughResetAndCopy)
{
    // Every width TAGE-SC-L, Whisper and the classifier use, plus 1,
    // 4 and 32, on one history. Lengths straddle powers of two, and
    // each width stops at its own longest view (2^k - 1, 2^k, 2^k + 1
    // or the full, non-power-of-two capacity), which sizes its prefix
    // ring. Views are read one by one and in one foldedValues() batch;
    // the per-width view counts (not multiples of four) leave partial
    // batch groups mid-sequence and at the end.
    GlobalHistory h(300);
    const std::vector<std::pair<unsigned, unsigned>> widthMaxLen = {
        {1, 129}, {4, 300}, {7, 300}, {8, 256}, {9, 255}, {10, 257},
        {11, 128}, {12, 65}, {24, 127}, {32, 64}};
    std::vector<unsigned> lengths = {1};
    for (unsigned k = 3; k <= 8; ++k)
        lengths.insert(lengths.end(),
                       {(1u << k) - 1, 1u << k, (1u << k) + 1});
    lengths.push_back(h.capacity());

    struct Probe
    {
        size_t idx;
        unsigned length, width;
    };
    std::vector<Probe> probes;
    for (auto [w, maxLen] : widthMaxLen)
        for (unsigned len : lengths)
            if (len <= maxLen)
                probes.push_back({h.addFoldedView(len, w), len, w});

    auto matches = [&](const GlobalHistory &g) {
        std::vector<uint32_t> batch(g.numViews());
        g.foldedValues(batch.data());
        for (const Probe &p : probes) {
            uint32_t got = g.foldedValue(p.idx);
            uint32_t want = g.foldedHash(p.length, p.width);
            if (got != want || batch[p.idx] != want)
                return ::testing::AssertionFailure()
                       << "len=" << p.length << " width=" << p.width
                       << " got=" << got << " batch=" << batch[p.idx]
                       << " want=" << want;
        }
        return ::testing::AssertionSuccess();
    };

    uint64_t seed = 2024;
    auto nextBit = [&] {
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        return ((seed >> 41) & 3) != 0; // ~75% taken
    };

    // Before the longest window fills, and well past the ring wrap.
    for (int i = 0; i < 700; ++i) {
        h.push(nextBit());
        ASSERT_TRUE(matches(h)) << "fill step " << i;
    }

    // A copy taken mid-stream and driven alongside the original.
    GlobalHistory copy = h;
    for (int i = 0; i < 400; ++i) {
        bool b = nextBit();
        h.push(b);
        copy.push(b);
        ASSERT_TRUE(matches(h)) << "original step " << i;
        ASSERT_TRUE(matches(copy)) << "copy step " << i;
    }

    // reset() mid-stream refills from zero; the copy is unaffected.
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    ASSERT_TRUE(matches(h)) << "after reset";
    for (const Probe &p : probes)
        ASSERT_EQ(h.foldedValue(p.idx), 0u) << p.length << "/" << p.width;
    for (int i = 0; i < 400; ++i) {
        h.push(nextBit());
        copy.push(nextBit());
        ASSERT_TRUE(matches(h)) << "after-reset step " << i;
        ASSERT_TRUE(matches(copy)) << "copy step " << 400 + i;
    }
}

TEST(FoldedHistory, PushRunMatchesReferenceFold)
{
    // pushRun() hands back every view before each of its pushes. Runs
    // of length 0, 1, odd lengths, TAGE-SC-L's block (kMaxRun) and
    // lengths above it (read in several passes) alternate with single
    // push()es on the TAGE-SC-L, Whisper and classifier widths plus
    // 1 and 32. Each value must equal the bit-by-bit reference fold
    // of the history before that push, and after each run the
    // history must read as if pushed one bit at a time.
    GlobalHistory h(1700);
    GlobalHistory shadow(1700); // driven by push() only
    const std::vector<std::pair<unsigned, unsigned>> views = {
        {1, 1},   {6, 11},   {6, 9},     {10, 8},  {17, 7},
        {44, 11}, {64, 32},  {65, 32},   {130, 8}, {411, 10},
        {1024, 8}, {1600, 11}, {1700, 5}, {33, 12}, {32, 32}};
    for (auto [len, w] : views) {
        h.addFoldedView(len, w);
        shadow.addFoldedView(len, w);
    }
    const size_t nv = views.size();

    uint64_t seed = 77;
    auto nextBit = [&]() -> uint8_t {
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        return ((seed >> 43) % 5) < 3;
    };
    const size_t k = GlobalHistory::kMaxRun;
    const std::vector<size_t> runs = {0,     1,     7,     k,     1,
                                      k + 1, 0,     33,    3 * k + 5,
                                      2 * k, k - 1, 1,     411,   0};
    std::vector<uint8_t> bits;
    std::vector<uint32_t> out;
    for (int round = 0; round < 6; ++round) {
        for (size_t n : runs) {
            bits.resize(n);
            for (auto &b : bits)
                b = nextBit();
            out.assign(nv * n, 0xFFFFFFFFu);
            h.pushRun(bits.data(), n, out.data(), n);
            for (size_t j = 0; j < n; ++j) {
                for (size_t v = 0; v < nv; ++v) {
                    auto [len, w] = views[v];
                    ASSERT_EQ(out[v * n + j], shadow.foldedHash(len, w))
                        << "round " << round << " run " << n << " j " << j
                        << " len " << len << " width " << w;
                }
                shadow.push(bits[j]);
            }
            ASSERT_EQ(h.count(), shadow.count());
            ASSERT_EQ(h.lastBits(64), shadow.lastBits(64));
            for (size_t v = 0; v < nv; ++v)
                ASSERT_EQ(h.foldedValue(v), shadow.foldedValue(v)) << v;
            // A single push between runs.
            uint8_t b = nextBit();
            h.push(b);
            shadow.push(b);
        }
    }
    for (unsigned i = 0; i < h.capacity(); ++i)
        ASSERT_EQ(h.bit(i), shadow.bit(i)) << i;

    // A stride wider than the run leaves the padding alone.
    bits.assign(5, 1);
    out.assign(nv * 8, 0xABCDu);
    h.pushRun(bits.data(), 5, out.data(), 8);
    for (size_t v = 0; v < nv; ++v)
        for (size_t j = 5; j < 8; ++j)
            ASSERT_EQ(out[v * 8 + j], 0xABCDu);
}

TEST(BranchTrace, AppendAccumulates)
{
    BranchTrace trace("app", 3);
    BranchRecord rec;
    rec.pc = 0x100;
    rec.kind = BranchKind::Conditional;
    rec.instGap = 4;
    trace.append(rec);
    rec.kind = BranchKind::Call;
    rec.instGap = 2;
    trace.append(rec);
    EXPECT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.instructions(), 5u + 3u);
    EXPECT_EQ(trace.conditionals(), 1u);
    EXPECT_EQ(trace.app(), "app");
    EXPECT_EQ(trace.inputId(), 3u);
}

TEST(BranchTrace, SaveLoadRoundTrip)
{
    BranchTrace trace("roundtrip", 7);
    uint64_t seed = 5;
    for (int i = 0; i < 1000; ++i) {
        seed = seed * 2862933555777941757ULL + 3037000493ULL;
        BranchRecord rec;
        rec.pc = 0x400000 + (seed & 0xFFFF);
        rec.target = rec.pc + 16;
        rec.taken = (seed >> 17) & 1;
        rec.kind = static_cast<BranchKind>((seed >> 20) % 5);
        rec.instGap = (seed >> 24) & 0xF;
        trace.append(rec);
    }

    std::string path = "/tmp/whisper_test_trace.bin";
    ASSERT_TRUE(trace.save(path));

    BranchTrace loaded;
    ASSERT_TRUE(loaded.load(path).ok());
    ASSERT_EQ(loaded.size(), trace.size());
    EXPECT_EQ(loaded.app(), "roundtrip");
    EXPECT_EQ(loaded.inputId(), 7u);
    EXPECT_EQ(loaded.instructions(), trace.instructions());
    EXPECT_EQ(loaded.conditionals(), trace.conditionals());
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(loaded[i].pc, trace[i].pc);
        EXPECT_EQ(loaded[i].taken, trace[i].taken);
        EXPECT_EQ(loaded[i].kind, trace[i].kind);
        EXPECT_EQ(loaded[i].instGap, trace[i].instGap);
    }
    std::remove(path.c_str());
}

TEST(BranchTrace, LoadRejectsGarbage)
{
    std::string path = "/tmp/whisper_test_garbage.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("not a trace", f);
    std::fclose(f);
    BranchTrace t;
    EXPECT_TRUE(t.load(path).corrupt());
    std::remove(path.c_str());
}

TEST(BranchTrace, ReadsVersion1RawArray)
{
    std::vector<BranchRecord> records = lcgRecords(100);
    std::string path = "/tmp/whisper_test_v1.whrt";
    writeFile(path, traceFile(records, 1));

    BranchTrace loaded;
    ASSERT_TRUE(loaded.load(path).ok());
    EXPECT_EQ(loaded.app(), "app");
    EXPECT_EQ(loaded.inputId(), 3u);
    EXPECT_EQ(imageOf(loaded.records()), imageOf(records));

    TraceStreamReader reader(path);
    ASSERT_TRUE(reader.valid());
    std::vector<BranchRecord> streamed, chunk;
    while (reader.readChunk(chunk, 7) > 0)
        streamed.insert(streamed.end(), chunk.begin(), chunk.end());
    EXPECT_TRUE(reader.status().ok());
    EXPECT_EQ(imageOf(streamed), imageOf(records));
    std::remove(path.c_str());
}

TEST(BranchTrace, TruncatedVersion1IsCorrupt)
{
    std::vector<BranchRecord> records = lcgRecords(100);
    std::vector<unsigned char> bytes = traceFile(records, 1);
    bytes.resize(bytes.size() - 10); // tear the last record
    std::string path = "/tmp/whisper_test_v1_torn.whrt";
    writeFile(path, bytes);

    BranchTrace loaded;
    IoStatus st = loaded.load(path);
    EXPECT_TRUE(st.corrupt());
    EXPECT_NE(st.message.find("truncated record array"),
              std::string::npos);

    TraceStreamReader reader(path);
    ASSERT_TRUE(reader.valid());
    std::vector<BranchRecord> chunk;
    size_t got = 0;
    while (reader.readChunk(chunk, 16) > 0)
        got += chunk.size();
    EXPECT_EQ(got, 99u);
    EXPECT_TRUE(reader.status().corrupt());
    EXPECT_NE(reader.status().message.find("truncated record array"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(BranchTrace, LoadRejectsEveryDamageKind)
{
    // Three frames of 40, 50 and 30 records; frame i starts at
    // frameAt[i]. Every rejection the strict load makes, each with
    // the message that names it.
    std::vector<BranchRecord> records = lcgRecords(120);
    const std::vector<unsigned char> good =
        traceFile(records, 2, {40, 50, 30});
    const size_t countAt = kHeaderBytes - 8;
    const size_t frameAt[] = {kHeaderBytes, kHeaderBytes + 12 + 40 * 24,
                              kHeaderBytes + 24 + 90 * 24};
    std::string path = "/tmp/whisper_test_damage.whrt";

    writeFile(path, good);
    BranchTrace loaded;
    ASSERT_TRUE(loaded.load(path).ok());
    EXPECT_EQ(imageOf(loaded.records()), imageOf(records));

    struct Damage
    {
        const char *what;
        std::function<void(std::vector<unsigned char> &)> apply;
    };
    const Damage damages[] = {
        {"bad magic", [](auto &b) { b[0] ^= 1; }},
        {"unsupported format version",
         [](auto &b) { poke(b, 4, uint32_t{7}); }},
        {"oversized app-name",
         [](auto &b) { poke(b, 8, kMaxStringBytes + 1); }},
        {"record count exceeds file size",
         [&](auto &b) { poke(b, countAt, uint64_t{1} << 40); }},
        {"bad frame header",
         [&](auto &b) { b[frameAt[1]] ^= 0x10; }},
        {"frame record count out of bounds",
         [&](auto &b) { poke(b, frameAt[1] + 4, uint32_t{0}); }},
        {"frame record count out of bounds",
         [&](auto &b) {
             poke(b, frameAt[2] + 4, BranchTrace::kMaxFrameRecords + 1);
         }},
        {"truncated frame", [](auto &b) { b.resize(b.size() - 5); }},
        {"frame CRC mismatch",
         [&](auto &b) { b[frameAt[2] + 12 + 100] ^= 0x01; }},
        {"record count disagrees with header",
         [&](auto &b) { poke(b, countAt, uint64_t{119}); }},
        {"record count disagrees with header",
         [&](auto &b) { poke(b, countAt, uint64_t{121}); }},
    };
    for (const Damage &d : damages) {
        std::vector<unsigned char> bytes = good;
        d.apply(bytes);
        writeFile(path, bytes);
        IoStatus st = loaded.load(path);
        EXPECT_TRUE(st.corrupt()) << d.what;
        EXPECT_NE(st.message.find(d.what), std::string::npos)
            << d.what << ": " << st.message;
        // A failed load leaves the previous contents alone.
        EXPECT_EQ(loaded.size(), records.size()) << d.what;
    }
    std::remove(path.c_str());
}

TEST(RecordImage, ZeroesPaddingAndIsTheFrameBody)
{
    // Records whose tail padding holds garbage encode exactly like
    // zero-initialised ones, and the image is byte for byte the
    // frame body save() writes.
    std::vector<BranchRecord> clean = lcgRecords(64);
    std::vector<BranchRecord> dirty = clean;
    auto *raw = reinterpret_cast<unsigned char *>(dirty.data());
    for (size_t i = 0; i < dirty.size(); ++i)
        std::memset(raw + i * sizeof(BranchRecord) + 20, 0xAB, 4);
    ASSERT_FALSE(isCanonicalImage(dirty));
    EXPECT_TRUE(isCanonicalImage(clean));

    std::vector<unsigned char> image = imageOf(dirty);
    EXPECT_EQ(image, imageOf(clean));
    ASSERT_EQ(image.size(), 64 * sizeof(BranchRecord));

    BranchTrace trace("app", 3);
    for (const BranchRecord &rec : dirty)
        trace.append(rec);
    std::string path = "/tmp/whisper_test_record_image.whrt";
    ASSERT_TRUE(trace.save(path));
    std::vector<unsigned char> file = readFile(path);
    std::remove(path.c_str());
    EXPECT_EQ(file, traceFile(clean, 2, {64}));
    ASSERT_EQ(file.size(), kHeaderBytes + 12 + image.size());
    EXPECT_TRUE(std::equal(image.begin(), image.end(),
                           file.begin() + kHeaderBytes + 12));
}

TEST(TraceSource, IteratesAndRewinds)
{
    BranchTrace trace("s", 0);
    for (int i = 0; i < 5; ++i) {
        BranchRecord rec;
        rec.pc = 0x10 * (i + 1);
        trace.append(rec);
    }
    TraceSource src(trace);
    BranchRecord rec;
    int n = 0;
    while (src.next(rec))
        ++n;
    EXPECT_EQ(n, 5);
    EXPECT_FALSE(src.next(rec));
    src.rewind();
    ASSERT_TRUE(src.next(rec));
    EXPECT_EQ(rec.pc, 0x10u);
}

TEST(LimitSource, Truncates)
{
    BranchTrace trace("s", 0);
    for (int i = 0; i < 10; ++i)
        trace.append(BranchRecord{});
    TraceSource inner(trace);
    LimitSource limited(inner, 4);
    BranchRecord rec;
    int n = 0;
    while (limited.next(rec))
        ++n;
    EXPECT_EQ(n, 4);
    limited.rewind();
    n = 0;
    while (limited.next(rec))
        ++n;
    EXPECT_EQ(n, 4);
}
