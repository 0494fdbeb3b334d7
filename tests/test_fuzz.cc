/**
 * @file
 * Deterministic mutation tests (`ctest -R fuzz.`) for the record
 * codec's entry points: a .whrt trace read strictly by
 * BranchTrace::load and leniently by TraceStreamReader, a versioned
 * hint bundle (the journal record and BUNDLE payload), a hint-store
 * journal file replayed by HintJournal, an INGEST_CHUNK wire
 * payload and frame, a CBP-style text trace read by loadCbpTrace,
 * and a .hints file read by loadHintBundle.
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
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "core/whisper_io.hh"
#include "net/wire_protocol.hh"
#include "service/hint_journal.hh"
#include "trace/branch_trace.hh"
#include "trace/cbp_reader.hh"
#include "trace/trace_reader.hh"
#include "util/byte_codec.hh"
#include "util/crc32.hh"
#include "workloads/app_config.hh"
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
payloadOf(std::span<const BranchRecord> records)
{
    Bytes payload;
    appendRecordPayload(payload, records);
    return payload;
}

/** A .whrt file with frames of @p frames records each. */
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
        Bytes body = payloadOf(records.subspan(at, n));
        w.put(BranchTrace::kFrameMagic);
        w.put(static_cast<uint32_t>(n));
        w.put(static_cast<uint32_t>(body.size()));
        w.put(crc32(body.data(), body.size()));
        w.putBytes(body.data(), body.size());
        at += n;
    }
    return w.take();
}

Bytes
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

void
writeFile(const std::string &path, const Bytes &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    // fwrite's buffer must not be null, even for zero bytes.
    if (!bytes.empty()) {
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
    }
    std::fclose(f);
}

bool
sameRange(const Bytes &a, const Bytes &b, size_t from, size_t to)
{
    return a.size() >= to && b.size() >= to &&
           std::equal(a.begin() + from, a.begin() + to,
                      b.begin() + from);
}

using Frame = std::span<const BranchRecord>;

/** @p got is some of @p frames, whole and in order. Records compare
 * by their payload bytes: the codec is canonical, so equal bytes mean
 * equal records. */
bool
wholeFramesInOrder(const std::vector<BranchRecord> &got,
                   const std::vector<Frame> &frames)
{
    size_t p = 0;
    for (Frame f : frames) {
        if (got.size() - p >= f.size() &&
            payloadOf(std::span(got).subspan(p, f.size())) ==
                payloadOf(f)) {
            p += f.size();
        }
    }
    return p == got.size();
}

/** A bundle of @p hints hints and @p placements placements, every
 * field set. */
VersionedHintBundle
sampleBundle(uint64_t epoch, unsigned hints, unsigned placements)
{
    VersionedHintBundle v;
    v.epoch = epoch;
    v.validationAccuracy = 0.84 + 0.01 * static_cast<double>(epoch);
    for (unsigned i = 0; i < hints; ++i) {
        TrainedHint h;
        h.pc = 0x400000 + 64 * (i + 16 * epoch);
        h.hint.historyIdx = static_cast<uint8_t>(i + 2);
        h.hint.formula = static_cast<uint16_t>(0x1234 + i);
        h.hint.bias = static_cast<HintBias>(i % 3);
        h.hint.pcPointer = BrHint::pcPointerFor(h.pc);
        h.historyLength = 8u << i;
        h.expectedMispredicts = 10 + i;
        h.profiledMispredicts = 40 + i;
        h.executions = 1000 + i;
        v.bundle.hints.push_back(h);
    }
    for (unsigned i = 0; i < placements; ++i) {
        HintPlacement p;
        p.branchPc = 0x400000 + 64 * (i + 16 * epoch);
        p.predecessorPc = p.branchPc - 0x100;
        p.coverage = 0.5 + 0.25 * i;
        p.precision = 0.75;
        p.predecessorExecutions = 500 + i;
        v.bundle.placements.push_back(p);
    }
    return v;
}

/** @p v framed as HintJournal::append writes it. */
Bytes
journalRecord(const VersionedHintBundle &v)
{
    const Bytes payload = encodeVersionedBundle(v);
    ByteWriter w;
    w.put(HintJournal::kRecordMagic);
    w.put(static_cast<uint32_t>(payload.size()));
    w.put(crc32(payload.data(), payload.size()));
    w.putBytes(payload.data(), payload.size());
    return w.take();
}

} // namespace

TEST(RecordCodec, TraceFileMutations)
{
    // Mutate a three-frame .whrt file: the strict load and the
    // streaming reader must classify every mutant.
    const std::vector<size_t> frames = {40, 50, 30};
    const std::vector<BranchRecord> records = kafkaRecords(120);
    const Bytes good = traceFile("kafka", 2, records, frames);
    const Bytes goodPayload = payloadOf(records);
    const size_t headerBytes = 4 + 4 + 4 + 5 + 4 + 8;
    const size_t frameHeaderBytes = 16;

    // Byte range and records of each frame.
    std::vector<std::pair<size_t, size_t>> frameRange;
    std::vector<Frame> frameRecords;
    std::vector<LengthField> fields = {{8, 4}, {headerBytes - 8, 8}};
    size_t at = headerBytes, first = 0;
    for (size_t n : frames) {
        Frame part = std::span(records).subspan(first, n);
        fields.push_back({at + 4, 4});
        fields.push_back({at + 8, 4});
        frameRange.push_back(
            {at, at + frameHeaderBytes + payloadOf(part).size()});
        frameRecords.push_back(part);
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
        if (st.ok()) {
            ++accepted;
            ASSERT_EQ(payloadOf(loaded.records()), goodPayload) << i;
            ASSERT_EQ(traceFile(loaded.app(), loaded.inputId(),
                                loaded.records(), frames),
                      bytes)
                << i;
        } else {
            ++rejected;
            ASSERT_TRUE(st.corrupt()) << i;
        }

        TraceStreamReader reader(path);
        std::vector<BranchRecord> streamed, chunk;
        while (reader.readChunk(chunk, 64) > 0)
            streamed.insert(streamed.end(), chunk.begin(), chunk.end());
        if (st.ok()) {
            ASSERT_EQ(payloadOf(streamed), goodPayload) << i;
        }

        std::vector<Frame> intact;
        std::vector<BranchRecord> intactRecords;
        for (size_t f = 0; f < frames.size(); ++f) {
            if (sameRange(bytes, good, frameRange[f].first,
                          frameRange[f].second)) {
                intact.push_back(frameRecords[f]);
                intactRecords.insert(intactRecords.end(),
                                     frameRecords[f].begin(),
                                     frameRecords[f].end());
            }
        }
        // With the header intact the reader starts at the first
        // frame and must deliver every frame that passes its CRC,
        // nothing else; a damaged header may misplace the start.
        if (sameRange(bytes, good, 0, headerBytes)) {
            ASSERT_EQ(payloadOf(streamed), payloadOf(intactRecords)) << i;
        } else {
            ASSERT_TRUE(wholeFramesInOrder(streamed, intact)) << i;
        }
    }

    // Every truncation point: the strict load refuses each cut, and
    // the reader delivers exactly the frames wholly before it.
    for (size_t cut = 0; cut < good.size(); ++cut) {
        writeFile(path, Bytes(good.begin(), good.begin() + cut));
        BranchTrace loaded;
        ASSERT_TRUE(loaded.load(path).corrupt()) << cut;
        TraceStreamReader reader(path);
        std::vector<BranchRecord> streamed, chunk;
        while (reader.readChunk(chunk, 64) > 0)
            streamed.insert(streamed.end(), chunk.begin(), chunk.end());
        size_t whole = 0;
        for (size_t f = 0; f < frames.size() && frameRange[f].second <= cut;
             ++f)
            whole += frames[f];
        ASSERT_EQ(payloadOf(streamed),
                  payloadOf(std::span(records).first(whole)))
            << cut;
    }
    std::remove(path.c_str());
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(RecordCodec, BundleMutations)
{
    const VersionedHintBundle v = sampleBundle(9, 3, 2);
    const Bytes good = encodeVersionedBundle(v);
    // epoch, accuracy, hint count, 3 x 44-byte hints, placement count.
    const std::vector<LengthField> fields = {{16, 8}, {24 + 3 * 44, 8}};
    ASSERT_EQ(good.size(), 24 + 3 * 44 + 8 + 2 * 40u);

    VersionedHintBundle back;
    ASSERT_TRUE(decodeVersionedBundle(back, good.data(), good.size()));
    ASSERT_EQ(back, v);

    // A placement naming a branch with no hint is rejected: the
    // first placement's branch PC (after the placement count)
    // rewritten to 0xdeadbeef0.
    {
        Bytes orphan = good;
        const uint64_t pc = 0xdeadbeef0;
        std::memcpy(orphan.data() + 24 + 3 * 44 + 8, &pc, sizeof pc);
        VersionedHintBundle out;
        EXPECT_FALSE(
            decodeVersionedBundle(out, orphan.data(), orphan.size()));
    }

    MutationRng rng{0x62756E646C657AULL};
    size_t accepted = 0, rejected = 0;
    for (int i = 0; i < 3000; ++i) {
        Bytes bytes = mutate(good, rng, fields);
        VersionedHintBundle out;
        if (decodeVersionedBundle(out, bytes.data(), bytes.size())) {
            ++accepted;
            ASSERT_EQ(encodeVersionedBundle(out), bytes) << i;
            for (const HintPlacement &p : out.bundle.placements)
                ASSERT_TRUE(std::any_of(
                    out.bundle.hints.begin(), out.bundle.hints.end(),
                    [&](const TrainedHint &h) { return h.pc == p.branchPc; }))
                    << i;
        } else {
            ++rejected;
        }
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);

    // The same body as a .hints file: magic and version, then the
    // bundle. Every cut, every bit flip and an oversized count must
    // load as corrupt or to a bundle that re-saves byte-identical.
    const std::string path = "/tmp/whisper_fuzz_bundle.hints";
    const std::string again = "/tmp/whisper_fuzz_bundle_again.hints";
    ASSERT_TRUE(saveHintBundle(v.bundle, path));
    const Bytes file = readFile(path);
    ASSERT_EQ(file.size(), 8 + good.size() - 16);
    auto loads = [&](const Bytes &bytes, const std::string &what) {
        writeFile(path, bytes);
        HintBundle b;
        IoStatus st = loadHintBundle(b, path);
        EXPECT_FALSE(st.missing()) << what;
        if (!st.ok()) {
            EXPECT_TRUE(st.corrupt()) << what;
            return false;
        }
        EXPECT_TRUE(saveHintBundle(b, again)) << what;
        EXPECT_EQ(readFile(again), bytes) << what;
        return true;
    };
    ASSERT_TRUE(loads(file, "intact"));
    // The format has no optional tail, so every cut is corrupt.
    for (size_t cut = 0; cut < file.size(); ++cut)
        EXPECT_FALSE(loads(Bytes(file.begin(), file.begin() + cut),
                           "cut at " + std::to_string(cut)));
    size_t flipsAccepted = 0;
    for (size_t i = 0; i < file.size(); ++i) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            Bytes bytes = file;
            bytes[i] ^= static_cast<unsigned char>(1u << bit);
            flipsAccepted += loads(bytes, "flip " + std::to_string(i) +
                                              "." + std::to_string(bit));
        }
    }
    EXPECT_GT(flipsAccepted, 0u); // the counters carry no redundancy
    // Hint and placement counts past the 2^24 cap: corrupt, and no
    // allocation beyond what the file holds.
    for (size_t at : {size_t{8}, size_t{16 + 3 * 44}}) {
        Bytes bytes = file;
        const uint64_t count = (1ULL << 24) + 1;
        std::memcpy(bytes.data() + at, &count, sizeof count);
        EXPECT_FALSE(loads(bytes, "count at " + std::to_string(at)));
    }
    std::remove(path.c_str());
    std::remove(again.c_str());
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
        // A hostile count is refused before it sizes the records.
        ASSERT_LE(out.records.capacity(), bytes.size() / kMinRecordBytes)
            << i;

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

namespace
{

/** One record, all fields given. */
BranchRecord
record(uint64_t pc, uint64_t target, BranchKind kind, bool taken,
       uint16_t instGap)
{
    BranchRecord rec;
    rec.pc = pc;
    rec.target = target;
    rec.kind = kind;
    rec.taken = taken;
    rec.instGap = instGap;
    return rec;
}

/** Decode @p bytes as @p count records; on success they must
 * re-encode to @p bytes. Nothing is allocated past the payload
 * bound either way. */
bool
decodes(const Bytes &bytes, size_t count,
        std::vector<BranchRecord> *records = nullptr)
{
    std::vector<BranchRecord> out;
    bool ok = decodeRecordPayload(bytes.data(), bytes.size(), count, out);
    EXPECT_LE(out.capacity(), bytes.size() / kMinRecordBytes);
    if (ok) {
        EXPECT_EQ(payloadOf(out), bytes);
    } else {
        EXPECT_TRUE(out.empty());
    }
    if (records)
        *records = out;
    return ok;
}

} // namespace

TEST(RecordCodec, PayloadRoundTrips)
{
    // Every catalog app, in .whrt frames (16,384 records) and in one
    // wire-sized chunk (50,000).
    for (const std::string &app : allAppNames()) {
        AppWorkload workload(appByName(app), 1, 50'000);
        std::vector<BranchRecord> records;
        BranchRecord rec;
        while (workload.next(rec))
            records.push_back(rec);
        for (size_t frame : {size_t{BranchTrace::kDefaultFrameRecords},
                             records.size()}) {
            size_t bytes = 0;
            for (size_t at = 0; at < records.size(); at += frame) {
                auto part = std::span(records).subspan(
                    at, std::min(frame, records.size() - at));
                Bytes payload = payloadOf(part);
                std::vector<BranchRecord> back;
                ASSERT_TRUE(decodes(payload, part.size(), &back)) << app;
                ASSERT_EQ(payloadOf(back), payloadOf(part)) << app;
                bytes += payload.size();
            }
            // A record costs well under a quarter of its 24-byte
            // native image.
            EXPECT_LE(bytes, 6 * records.size()) << app << " " << frame;
        }
    }

    // Edge records: no records, one record, gaps at both ends, PCs
    // and targets at both ends of the address space, a return and an
    // indirect changing target, and a PC that changes kind.
    const std::vector<std::vector<BranchRecord>> cases = {
        {},
        {record(0x400000, 0x400040, BranchKind::Conditional, true, 7)},
        {record(0, 0, BranchKind::Conditional, false, 0),
         record(~0ULL, 0, BranchKind::Unconditional, true, 0xFFFF),
         record(1ULL << 63, ~0ULL, BranchKind::Call, true, 0xFFFF)},
        {record(0x500, 0x900, BranchKind::Return, true, 2),
         record(0x500, 0x948, BranchKind::Return, true, 0),
         record(0x500, 0x948, BranchKind::Return, true, 0xFFFF),
         record(0x600, 0x10, BranchKind::Indirect, true, 1),
         record(0x600, 0x7000, BranchKind::Indirect, true, 1),
         record(0x500, 0x900, BranchKind::Return, true, 2)},
        {record(0x700, 0x800, BranchKind::Conditional, true, 1),
         record(0x700, 0x800, BranchKind::Unconditional, true, 1),
         record(0x700, 0x800, BranchKind::Conditional, false, 1),
         record(0x700, 0x800, BranchKind::Unconditional, true, 1)},
    };
    for (const std::vector<BranchRecord> &c : cases) {
        Bytes payload = payloadOf(c);
        EXPECT_GE(payload.size(), c.size() * kMinRecordBytes);
        EXPECT_LE(payload.size(), c.size() * kMaxRecordBytes);
        std::vector<BranchRecord> back;
        ASSERT_TRUE(decodes(payload, c.size(), &back)) << c.size();
        EXPECT_EQ(payloadOf(back), payloadOf(c));
    }

    // The wire carries the same payload behind its header.
    for (size_t n : {0, 1, 40}) {
        IngestChunkMsg msg{"kafka", "agent", 4, 9, kafkaRecords(n)};
        IngestChunkMsg back;
        ASSERT_TRUE(decodeIngestChunk(encodeIngestChunk(msg), back)) << n;
        EXPECT_EQ(payloadOf(back.records), payloadOf(msg.records)) << n;
    }
}

TEST(RecordCodec, PayloadMutations)
{
    // Hand-built payloads against the grammar: a new conditional at
    // 0x8 (tag 1, zigzag pc delta 0x10, zigzag target delta 0x10) with
    // gap 3, then a reference to entry 0 (head 0x02: taken) with
    // gap 5.
    const Bytes good = {0x01, 0x10, 0x10, 0x03, 0x02, 0x05};
    std::vector<BranchRecord> back;
    ASSERT_TRUE(decodes(good, 2, &back));
    EXPECT_EQ(payloadOf(back),
              payloadOf(std::vector<BranchRecord>{
                  record(8, 16, BranchKind::Conditional, false, 3),
                  record(8, 16, BranchKind::Conditional, true, 5)}));

    struct Bad
    {
        const char *what;
        Bytes bytes;
        size_t count;
    };
    const Bad bad[] = {
        {"overlong gap", {0x01, 0x10, 0x10, 0x83, 0x00, 0x02, 0x05}, 2},
        {"overlong pc delta", {0x01, 0x90, 0x00, 0x10, 0x03, 0x02, 0x05}, 2},
        {"overlong head", {0x01, 0x10, 0x10, 0x03, 0x82, 0x00, 0x05}, 2},
        {"varint past 64 bits",
         {0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02,
          0x10, 0x03},
         1},
        {"eleven-byte varint",
         {0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
          0x01, 0x10, 0x03},
         1},
        {"id past the dictionary", {0x01, 0x10, 0x10, 0x03, 0x0A, 0x05}, 2},
        {"reference before any entry", {0x02, 0x05}, 1},
        {"kind past Indirect", {0x15, 0x10, 0x10, 0x03}, 1},
        {"tag bits past the kind", {0x81, 0x10, 0x10, 0x03}, 1},
        {"gap past 0xFFFF", {0x01, 0x10, 0x10, 0x80, 0x80, 0x04}, 1},
        {"trailing byte", {0x01, 0x10, 0x10, 0x03, 0x02, 0x05, 0x00}, 2},
        {"a byte for no record", {0x00}, 0},
        {"explicit target equal to the last",
         {0x01, 0x10, 0x10, 0x03, 0x06, 0x10, 0x05}, 2},
        {"a second entry for the same PC and kind",
         {0x01, 0x10, 0x10, 0x03, 0x01, 0x00, 0x10, 0x05}, 2},
        {"a reference to a superseded entry",
         {0x01, 0x10, 0x10, 0x03, 0x05, 0x00, 0x10, 0x05, 0x00, 0x01}, 3},
        {"a count the payload cannot hold", good, good.size() / 2 + 1},
        {"a hostile count", good, size_t{1} << 40},
    };
    for (const Bad &b : bad)
        EXPECT_FALSE(decodes(b.bytes, b.count)) << b.what;
    // The same gap at its limit, and the superseding entry itself,
    // are accepted.
    EXPECT_TRUE(decodes({0x01, 0x10, 0x10, 0xFF, 0xFF, 0x03}, 1));
    EXPECT_TRUE(decodes({0x01, 0x10, 0x10, 0x03, 0x05, 0x00, 0x10, 0x05,
                         0x08, 0x01},
                        3));

    // A real payload: every truncation point and every single-bit
    // flip. Each cut is refused; a flip that still decodes is some
    // other canonical payload.
    const std::vector<BranchRecord> records = kafkaRecords(64);
    const Bytes payload = payloadOf(records);
    for (size_t cut = 0; cut < payload.size(); ++cut) {
        EXPECT_FALSE(decodes(Bytes(payload.begin(), payload.begin() + cut),
                             records.size()))
            << cut;
    }
    size_t accepted = 0;
    for (size_t bit = 0; bit < 8 * payload.size(); ++bit) {
        Bytes flipped = payload;
        flipped[bit / 8] ^= static_cast<unsigned char>(1u << bit % 8);
        accepted += decodes(flipped, records.size());
    }
    EXPECT_LT(accepted, 8 * payload.size());
    // The count off by one either way.
    EXPECT_FALSE(decodes(payload, records.size() - 1));
    EXPECT_FALSE(decodes(payload, records.size() + 1));
}

TEST(RecordCodec, JournalMutations)
{
    using Tail = HintJournal::Tail;
    const std::string path = "/tmp/whisper_fuzz_journal.wal";
    const std::vector<VersionedHintBundle> gens = {
        sampleBundle(1, 3, 2), sampleBundle(2, 1, 1),
        sampleBundle(3, 4, 0)};
    std::remove(path.c_str());
    {
        HintJournal journal;
        std::vector<VersionedHintBundle> none;
        ASSERT_TRUE(journal.open(path, none).ok());
        for (const VersionedHintBundle &v : gens)
            ASSERT_TRUE(journal.append(v));
    }
    // The file is the header, then each generation framed; record k
    // spans bound[k] to bound[k + 1].
    const Bytes good = readFile(path);
    ByteWriter expect;
    expect.put(HintJournal::kFileMagic);
    expect.put(HintJournal::kVersion);
    std::vector<size_t> bound = {8};
    for (const VersionedHintBundle &v : gens) {
        Bytes rec = journalRecord(v);
        expect.putBytes(rec.data(), rec.size());
        bound.push_back(bound.back() + rec.size());
    }
    ASSERT_EQ(expect.take(), good);

    // Replay @p bytes: exactly the first @p records generations come
    // back, each re-encoding to its bytes on disk, and what follows
    // them is reported as @p tail (a bad header keeps nothing).
    auto check = [&](const Bytes &bytes, size_t records, Tail tail,
                     const std::string &what) {
        writeFile(path, bytes);
        HintJournal::RecoveryInfo info;
        std::vector<VersionedHintBundle> got =
            HintJournal::replay(path, &info);
        ASSERT_EQ(got.size(), records) << what;
        for (size_t k = 0; k < records; ++k) {
            ASSERT_EQ(journalRecord(got[k]),
                      Bytes(good.begin() + bound[k],
                            good.begin() + bound[k + 1]))
                << what << ", record " << k;
        }
        EXPECT_EQ(info.recordsRecovered, records) << what;
        EXPECT_EQ(info.tail, tail) << what;
        bool headerOk = bytes.size() >= 8 &&
                        std::equal(bytes.begin(), bytes.begin() + 8,
                                   good.begin());
        EXPECT_EQ(info.tailBytesDiscarded,
                  bytes.size() - (headerOk ? bound[records] : 0))
            << what;
    };
    check(good, gens.size(), Tail::Clean, "intact");
    Bytes garbage = good;
    for (char c : std::string("not a record"))
        garbage.push_back(static_cast<unsigned char>(c));
    check(garbage, gens.size(), Tail::Corrupt, "garbage tail");

    // A crash at every byte. On a sample of the cuts (each open()
    // fsyncs), open() compacts the torn tail away, an empty file
    // included, and the journal takes the lost append again.
    for (size_t cut = 0, k = 0; cut < good.size(); ++cut) {
        k += cut == bound[k + 1];
        bool atBound = cut == 0 || cut == bound[k];
        check(Bytes(good.begin(), good.begin() + cut), k,
              atBound ? Tail::Clean : Tail::Torn,
              "cut at " + std::to_string(cut));
        if (cut % 29 != 0)
            continue;
        HintJournal journal;
        std::vector<VersionedHintBundle> replayed;
        HintJournal::RecoveryInfo info;
        ASSERT_TRUE(journal.open(path, replayed, &info).ok());
        EXPECT_EQ(info.compacted, !atBound || cut == 0) << cut;
        ASSERT_TRUE(journal.append(gens[k]));
        journal.close();
        EXPECT_EQ(readFile(path),
                  Bytes(good.begin(), good.begin() + bound[k + 1]))
            << "cut at " << cut;
    }

    // Every bit of the file header, and of each record's magic, CRC
    // and payload (its length is next).
    for (size_t byte = 0; byte < good.size(); ++byte) {
        // Record k holds the byte; a header flip keeps nothing.
        size_t k = byte < 8 ? 0
                            : std::upper_bound(bound.begin(), bound.end(),
                                               byte) -
                                  bound.begin() - 1;
        if (byte >= 8 && byte - bound[k] >= 4 && byte - bound[k] < 8)
            continue;
        for (unsigned bit = 0; bit < 8; ++bit) {
            Bytes bytes = good;
            bytes[byte] ^= static_cast<unsigned char>(1u << bit);
            check(bytes, k, Tail::Corrupt,
                  "byte " + std::to_string(byte) + " bit " +
                      std::to_string(bit));
        }
    }
    // A smashed length: a record that now runs past the end of the
    // file reads as torn, any other wrong length as corrupt.
    for (size_t k = 0; k < gens.size(); ++k) {
        uint32_t len = 0;
        std::memcpy(&len, good.data() + bound[k] + 4, sizeof(len));
        std::vector<uint32_t> lengths = {HintJournal::kMaxPayload + 1,
                                         0xFFFFFFFFu};
        for (unsigned bit = 0; bit < 32; ++bit)
            lengths.push_back(len ^ (1u << bit));
        for (uint32_t smashed : lengths) {
            Bytes bytes = good;
            std::memcpy(bytes.data() + bound[k] + 4, &smashed,
                        sizeof(smashed));
            bool torn = smashed > 0 &&
                        smashed <= HintJournal::kMaxPayload &&
                        bound[k] + 12 + smashed > good.size();
            check(bytes, k, torn ? Tail::Torn : Tail::Corrupt,
                  "record " + std::to_string(k) + " length " +
                      std::to_string(smashed));
        }
    }
    std::remove(path.c_str());
}

namespace
{

/** @p a and @p b hold the same metadata and records. */
bool
sameTrace(const BranchTrace &a, const BranchTrace &b)
{
    return a.app() == b.app() && a.inputId() == b.inputId() &&
           payloadOf(a.records()) == payloadOf(b.records());
}

/** @p bytes with [at, at + len) replaced by @p text. */
Bytes
splice(const Bytes &bytes, size_t at, size_t len, const std::string &text)
{
    Bytes out(bytes.begin(), bytes.begin() + at);
    out.insert(out.end(), text.begin(), text.end());
    out.insert(out.end(), bytes.begin() + at + len, bytes.end());
    return out;
}

} // namespace

TEST(RecordCodec, CbpMutations)
{
    const std::vector<BranchRecord> records = kafkaRecords(40);
    BranchTrace original("kafka", 3);
    for (const BranchRecord &rec : records)
        original.append(rec);
    const std::string path = "/tmp/whisper_fuzz_trace.cbp";
    const std::string again = "/tmp/whisper_fuzz_trace_again.cbp";
    ASSERT_TRUE(saveCbpTrace(original, path));
    const Bytes good = readFile(path);

    BranchTrace missing;
    EXPECT_TRUE(loadCbpTrace("/tmp/whisper_fuzz_no_such.cbp", &missing)
                    .missing());

    // Load @p bytes; an accepted trace must survive save + load
    // unchanged, a rejected one must be reported corrupt (the file
    // exists, so never missing). Returns whether it was accepted.
    auto check = [&](const Bytes &bytes, BranchTrace *out,
                     const std::string &what) {
        writeFile(path, bytes);
        IoStatus st = loadCbpTrace(path, out);
        EXPECT_FALSE(st.missing()) << what;
        if (!st.ok()) {
            EXPECT_TRUE(st.corrupt()) << what;
            return false;
        }
        BranchTrace back;
        EXPECT_TRUE(saveCbpTrace(*out, again)) << what;
        EXPECT_TRUE(loadCbpTrace(again, &back).ok()) << what;
        EXPECT_TRUE(sameTrace(back, *out)) << what;
        return true;
    };

    BranchTrace loaded;
    ASSERT_TRUE(check(good, &loaded, "intact"));
    ASSERT_TRUE(sameTrace(loaded, original));
    ASSERT_TRUE(saveCbpTrace(loaded, again));
    ASSERT_EQ(readFile(again), good);

    // Line starts: four metadata comments, then one line per record.
    std::vector<size_t> lineStart = {0};
    for (size_t i = 0; i + 1 < good.size(); ++i)
        if (good[i] == '\n')
            lineStart.push_back(i + 1);
    ASSERT_EQ(lineStart.size(), 4 + records.size());
    const size_t firstRecord = lineStart[4];

    // A cut at every byte: a torn last line (no '\n') is corrupt
    // even when what is left of it still parses; whatever is
    // accepted is exactly the records whose lines survived whole.
    for (size_t cut = 0; cut < good.size(); ++cut) {
        BranchTrace t;
        std::string what = "cut at " + std::to_string(cut);
        if (!check(Bytes(good.begin(), good.begin() + cut), &t, what))
            continue;
        size_t whole = 0;
        while (4 + whole + 1 < lineStart.size() &&
               lineStart[4 + whole + 1] <= cut)
            ++whole;
        ASSERT_EQ(t.size(), whole) << what;
        EXPECT_EQ(payloadOf(t.records().subspan(0, whole)),
                  payloadOf(std::span(records).subspan(0, whole)))
            << what;
    }

    // Every bit of the metadata header and of the first record line
    // (PC, direction, target, kind and gap fields).
    for (size_t at = 0; at < lineStart[5]; ++at) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            Bytes bytes = good;
            bytes[at] ^= static_cast<unsigned char>(1u << bit);
            BranchTrace t;
            check(bytes, &t,
                  "flip " + std::to_string(at) + "." + std::to_string(bit));
        }
    }

    // Numeric fields at their caps: the input id (32 bits), the PC
    // (64-bit hex) and the gap (16 bits), at cap + 1 and 0xFFFFFFFF.
    const std::string text(good.begin(), good.end());
    const size_t inputAt = text.find("# input=") + 8;
    const size_t inputLen = text.find('\n', inputAt) - inputAt;
    const size_t pcLen = text.find(' ', firstRecord) - firstRecord;
    const size_t gapAt = text.rfind(' ', lineStart[5]) + 1;
    const size_t gapLen = lineStart[5] - 1 - gapAt;
    struct Case
    {
        size_t at, len;
        std::string value;
        bool accepted;
    };
    const Case cases[] = {
        {inputAt, inputLen, "4294967296", false},
        {inputAt, inputLen, "4294967295", true},
        {firstRecord, pcLen, "10000000000000000", false},
        {firstRecord, pcLen, "ffffffff", true},
        {gapAt, gapLen, "65536", false},
        {gapAt, gapLen, "4294967295", false},
    };
    for (const Case &c : cases) {
        BranchTrace t;
        EXPECT_EQ(check(splice(good, c.at, c.len, c.value), &t,
                        "set " + c.value),
                  c.accepted)
            << c.value;
    }
    BranchTrace t;
    ASSERT_TRUE(check(splice(good, inputAt, inputLen, "4294967295"), &t,
                      "max input id"));
    EXPECT_EQ(t.inputId(), 0xFFFFFFFFu);
    std::remove(path.c_str());
    std::remove(again.c_str());
}
