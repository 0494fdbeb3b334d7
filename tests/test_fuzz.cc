/**
 * @file
 * Deterministic mutation tests (`ctest -R fuzz.`) for the record
 * codec's entry points: a .whrt trace read strictly by
 * BranchTrace::load and leniently by TraceStreamReader, a versioned
 * hint bundle (the journal record and BUNDLE payload), and an
 * INGEST_CHUNK wire payload and frame.
 *
 * Each valid input is mutated from a fixed seed — bit flips, byte
 * overwrites, truncations and smashed length fields — and every
 * decoder must not crash, must classify the damage correctly, and
 * must re-encode whatever it accepts to the same bytes. The
 * sanitizer CI legs run this suite like any other.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/whisper_io.hh"
#include "net/wire_protocol.hh"
#include "trace/branch_trace.hh"
#include "trace/trace_reader.hh"
#include "util/byte_codec.hh"
#include "util/crc32.hh"
#include "workloads/app_workload.hh"

using namespace whisper;

namespace
{

using Bytes = std::vector<unsigned char>;

/** splitmix64: a fixed, platform-independent mutation stream. */
struct MutationRng
{
    uint64_t state;

    uint64_t
    next()
    {
        uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

    uint64_t below(uint64_t n) { return next() % n; }
};

/** A little-endian length field of @p bytes bytes at offset @p at. */
struct LengthField
{
    size_t at;
    size_t bytes;
};

/** One mutation of @p in: a bit flip, a byte overwrite, a
 * truncation, or a smashed length field (a hostile constant or the
 * original value nudged by a few). */
Bytes
mutate(const Bytes &in, MutationRng &rng,
       const std::vector<LengthField> &fields)
{
    static constexpr uint64_t kHostile[] = {
        0,          1,           0xFF,      0xFFFF,
        0x7FFFFFFF, 0xFFFFFFFF,  1u << 20,  (1u << 20) + 1,
        1ULL << 40, ~0ULL,
    };
    Bytes b = in;
    switch (rng.below(4)) {
      case 0:
        b[rng.below(b.size())] ^= static_cast<unsigned char>(
            1u << rng.below(8));
        break;
      case 1:
        b[rng.below(b.size())] =
            static_cast<unsigned char>(rng.next());
        break;
      case 2:
        b.resize(rng.below(b.size()));
        break;
      default: {
        const LengthField &f = fields[rng.below(fields.size())];
        uint64_t v = 0;
        std::memcpy(&v, b.data() + f.at, f.bytes);
        if (rng.below(2))
            v = kHostile[rng.below(std::size(kHostile))];
        else
            v += rng.below(5) - 2;
        std::memcpy(b.data() + f.at, &v, f.bytes);
        break;
      }
    }
    return b;
}

std::vector<BranchRecord>
kafkaRecords(uint64_t count)
{
    AppWorkload workload(appByName("kafka"), 0, count);
    std::vector<BranchRecord> records;
    BranchRecord rec;
    while (workload.next(rec))
        records.push_back(rec);
    return records;
}

Bytes
imageOf(std::span<const BranchRecord> records)
{
    Bytes image;
    appendRecordImage(image, records);
    return image;
}

/** A v2 .whrt file with frames of @p frames records each. */
Bytes
traceFile(const std::string &app, uint32_t inputId,
          std::span<const BranchRecord> records,
          const std::vector<size_t> &frames)
{
    ByteWriter w;
    w.put(BranchTrace::kFileMagic);
    w.put(BranchTrace::kFileVersion);
    w.putStr(app);
    w.put(inputId);
    w.put(static_cast<uint64_t>(records.size()));
    size_t at = 0;
    for (size_t n : frames) {
        Bytes image = imageOf(records.subspan(at, n));
        w.put(BranchTrace::kFrameMagic);
        w.put(static_cast<uint32_t>(n));
        w.put(crc32(image.data(), image.size()));
        w.putBytes(image.data(), image.size());
        at += n;
    }
    return w.take();
}

void
writeFile(const std::string &path, const Bytes &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
}

bool
sameRange(const Bytes &a, const Bytes &b, size_t from, size_t to)
{
    return a.size() >= to && b.size() >= to &&
           std::equal(a.begin() + from, a.begin() + to,
                      b.begin() + from);
}

/** @p got is some of @p frames, whole and in order. */
bool
wholeFramesInOrder(const Bytes &got, const std::vector<Bytes> &frames)
{
    size_t p = 0;
    for (const Bytes &f : frames) {
        if (got.size() - p >= f.size() &&
            std::equal(f.begin(), f.end(), got.begin() + p)) {
            p += f.size();
        }
    }
    return p == got.size();
}

} // namespace

TEST(RecordCodec, TraceFileMutations)
{
    const std::vector<size_t> frames = {40, 50, 30};
    const std::vector<BranchRecord> records = kafkaRecords(120);
    const Bytes good = traceFile("kafka", 2, records, frames);
    const Bytes goodImage = imageOf(records);
    const size_t headerBytes = 4 + 4 + 4 + 5 + 4 + 8;

    // Byte range and record image of each frame.
    std::vector<std::pair<size_t, size_t>> frameRange;
    std::vector<Bytes> frameImage;
    std::vector<LengthField> fields = {{8, 4}, {headerBytes - 8, 8}};
    size_t at = headerBytes, first = 0;
    for (size_t n : frames) {
        fields.push_back({at + 4, 4});
        frameRange.push_back({at, at + 12 + n * sizeof(BranchRecord)});
        frameImage.push_back(imageOf(
            std::span(records).subspan(first, n)));
        at = frameRange.back().second;
        first += n;
    }
    ASSERT_EQ(at, good.size());

    const std::string path = "/tmp/whisper_fuzz_trace.whrt";
    MutationRng rng{0x7768727466757A7AULL};
    size_t accepted = 0, rejected = 0;
    for (int i = 0; i < 1500; ++i) {
        Bytes bytes = mutate(good, rng, fields);
        writeFile(path, bytes);

        BranchTrace loaded;
        IoStatus st = loaded.load(path);
        ASSERT_FALSE(st.missing()) << i << ": " << st.message;
        uint32_t version = BranchTrace::kFileVersion;
        if (bytes.size() >= 8)
            std::memcpy(&version, bytes.data() + 4, sizeof(version));
        // A header overwritten to version 1 turns the frames into an
        // unchecked raw array: v1 carries no CRC to catch that.
        bool v1 = version == 1;
        if (st.ok()) {
            ++accepted;
            if (!v1) {
                ASSERT_EQ(imageOf(loaded.records()), goodImage) << i;
                ASSERT_EQ(traceFile(loaded.app(), loaded.inputId(),
                                    loaded.records(), frames),
                          bytes)
                    << i;
            }
        } else {
            ++rejected;
            ASSERT_TRUE(st.corrupt()) << i;
        }

        TraceStreamReader reader(path);
        std::vector<BranchRecord> streamed, chunk;
        while (reader.readChunk(chunk, 64) > 0)
            streamed.insert(streamed.end(), chunk.begin(), chunk.end());
        if (v1)
            continue;
        Bytes got = imageOf(streamed);
        if (st.ok()) {
            ASSERT_EQ(got, goodImage) << i;
        }

        std::vector<Bytes> intact;
        Bytes intactImage;
        for (size_t f = 0; f < frames.size(); ++f) {
            if (sameRange(bytes, good, frameRange[f].first,
                          frameRange[f].second)) {
                intact.push_back(frameImage[f]);
                intactImage.insert(intactImage.end(),
                                   frameImage[f].begin(),
                                   frameImage[f].end());
            }
        }
        // With the header intact the reader starts at the first
        // frame and must deliver every frame that passes its CRC,
        // nothing else; a damaged header may misplace the start.
        if (sameRange(bytes, good, 0, headerBytes)) {
            ASSERT_EQ(got, intactImage) << i;
        } else {
            ASSERT_TRUE(wholeFramesInOrder(got, intact)) << i;
        }
    }
    std::remove(path.c_str());
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(RecordCodec, BundleMutations)
{
    VersionedHintBundle v;
    v.epoch = 9;
    v.validationAccuracy = 0.93;
    for (unsigned i = 0; i < 3; ++i) {
        TrainedHint h;
        h.pc = 0x400000 + 64 * i;
        h.hint.historyIdx = static_cast<uint8_t>(i + 2);
        h.hint.formula = static_cast<uint16_t>(0x1234 + i);
        h.hint.bias = static_cast<HintBias>(i);
        h.hint.pcPointer = BrHint::pcPointerFor(h.pc);
        h.historyLength = 8u << i;
        h.expectedMispredicts = 10 + i;
        h.profiledMispredicts = 40 + i;
        h.executions = 1000 + i;
        v.bundle.hints.push_back(h);
    }
    for (unsigned i = 0; i < 2; ++i) {
        HintPlacement p;
        p.branchPc = 0x400000 + 64 * i;
        p.predecessorPc = 0x3FFF00 + 64 * i;
        p.coverage = 0.5 + 0.25 * i;
        p.precision = 0.75;
        p.predecessorExecutions = 500 + i;
        v.bundle.placements.push_back(p);
    }
    const Bytes good = encodeVersionedBundle(v);
    // epoch, accuracy, hint count, 3 x 44-byte hints, placement count.
    const std::vector<LengthField> fields = {{16, 8}, {24 + 3 * 44, 8}};
    ASSERT_EQ(good.size(), 24 + 3 * 44 + 8 + 2 * 40u);

    VersionedHintBundle back;
    ASSERT_TRUE(decodeVersionedBundle(back, good.data(), good.size()));
    ASSERT_EQ(back, v);

    MutationRng rng{0x62756E646C657AULL};
    size_t accepted = 0, rejected = 0;
    for (int i = 0; i < 3000; ++i) {
        Bytes bytes = mutate(good, rng, fields);
        VersionedHintBundle out;
        if (decodeVersionedBundle(out, bytes.data(), bytes.size())) {
            ++accepted;
            ASSERT_EQ(encodeVersionedBundle(out), bytes) << i;
        } else {
            ++rejected;
        }
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(RecordCodec, IngestChunkMutations)
{
    IngestChunkMsg msg;
    msg.app = "kafka";
    msg.stream = "agent";
    msg.inputId = 2;
    msg.seq = 77;
    msg.records = kafkaRecords(40);
    const Bytes good = encodeIngestChunk(msg);
    // app length, stream length, record count.
    const std::vector<LengthField> fields = {
        {0, 4}, {4 + 5, 4}, {4 + 5 + 4 + 5 + 4 + 8, 4}};
    const Bytes frame = encodeFrame(WireOp::IngestChunk, good);
    const std::vector<LengthField> frameFields = {{8, 4}};

    MutationRng rng{0x696E67657374ULL};
    size_t accepted = 0, rejected = 0;
    for (int i = 0; i < 3000; ++i) {
        Bytes bytes = mutate(good, rng, fields);
        IngestChunkMsg out;
        if (decodeIngestChunk(bytes, out)) {
            ++accepted;
            ASSERT_EQ(encodeIngestChunk(out), bytes) << i;
        } else {
            ++rejected;
        }

        // The same payload inside a frame: the parser hands over a
        // frame only when its CRC still holds, i.e. the payload is
        // the one that was sent.
        Bytes wire = mutate(frame, rng, frameFields);
        FrameParser parser;
        parser.feed(wire.data(), wire.size());
        WireFrame got;
        if (parser.next(got) == FrameParser::Result::Frame) {
            ASSERT_EQ(got.payload, good) << i;
        }
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}
