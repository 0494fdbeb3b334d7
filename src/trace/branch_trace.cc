#include "trace/branch_trace.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "trace/trace_reader.hh"
#include "util/byte_codec.hh"
#include "util/crc32.hh"
#include "util/pc_index.hh"

namespace whisper
{

namespace
{

uint64_t
zigzag(uint64_t delta)
{
    return (delta << 1) ^ (0 - (delta >> 63));
}

uint64_t
unzigzag(uint64_t z)
{
    return (z >> 1) ^ (0 - (z & 1));
}

constexpr unsigned kMaxKind = static_cast<unsigned>(BranchKind::Indirect);

/** Records the encoder writes through its stack buffer at a time. */
constexpr size_t kEncodeBlock = 256;

/** The PC table of a payload starts sized for one new PC in this
 * many records, so a typical frame never rehashes it. */
constexpr size_t kRecordsPerPc = 8;

/** Records the decoder reserves before any has decoded: past this, a
 * claimed count must be earned record by record. */
constexpr size_t kMaxReserve = size_t{1} << 20;

} // namespace

void
appendRecordPayload(std::vector<unsigned char> &out,
                    std::span<const BranchRecord> records)
{
    // By PC key: the PC's live entry, its kind and last target.
    struct Entry
    {
        uint64_t target;
        uint32_t id;
        BranchKind kind;
    };
    const size_t expectedPcs = records.size() / kRecordsPerPc;
    std::vector<Entry> entries;
    entries.reserve(expectedPcs);
    PcIndex index(expectedPcs);
    uint32_t ids = 0;
    uint64_t prevPc = 0;
    unsigned char buf[kEncodeBlock * kMaxRecordBytes];
    for (size_t first = 0; first < records.size(); first += kEncodeBlock) {
        unsigned char *p = buf;
        for (const BranchRecord &rec : records.subspan(
                 first, std::min(kEncodeBlock, records.size() - first))) {
            const uint64_t taken = rec.taken ? 2 : 0;
            const uint32_t key = index.insert(rec.pc);
            if (key < entries.size() && entries[key].kind == rec.kind) {
                Entry &e = entries[key];
                const bool explicitTarget = rec.target != e.target;
                p = putVarint(p, uint64_t{e.id} << 3 |
                                     uint64_t{explicitTarget} << 2 | taken);
                if (explicitTarget) {
                    p = putVarint(p, zigzag(rec.target - rec.pc));
                    e.target = rec.target;
                }
            } else {
                const Entry e{rec.target, ids++, rec.kind};
                if (key < entries.size())
                    entries[key] = e; // a new kind supersedes the entry
                else
                    entries.push_back(e);
                *p++ = static_cast<unsigned char>(
                    1 | taken | static_cast<unsigned>(rec.kind) << 2);
                p = putVarint(p, zigzag(rec.pc - prevPc));
                p = putVarint(p, zigzag(rec.target - rec.pc));
                prevPc = rec.pc;
            }
            p = putVarint(p, rec.instGap);
        }
        out.insert(out.end(), buf, p);
    }
}

bool
decodeRecordPayload(const unsigned char *data, size_t size, size_t count,
                    std::vector<BranchRecord> &out)
{
    if (count > size / kMinRecordBytes)
        return false;
    // By id: the entry's record as last seen, and whether a later
    // entry for its PC has superseded it.
    struct Entry
    {
        BranchRecord last;
        bool live;
    };
    const size_t expectedPcs = std::min(count, kMaxReserve) / kRecordsPerPc;
    std::vector<Entry> dict;
    dict.reserve(expectedPcs);
    PcIndex index(expectedPcs);
    std::vector<uint32_t> live; // PC key -> the PC's live entry
    live.reserve(expectedPcs);
    uint64_t prevPc = 0;
    const unsigned char *p = data, *const end = data + size;
    const size_t at = out.size();
    out.reserve(at + std::min(count, kMaxReserve));
    BranchRecord rec;
    for (size_t i = 0; i < count && p != end; ++i) {
        uint64_t v = 0;
        if (*p & 1) {
            const unsigned tag = *p++;
            const unsigned kind = tag >> 2;
            uint64_t pcDelta = 0;
            if (kind > kMaxKind || !(p = getVarint(p, end, pcDelta)) ||
                !(p = getVarint(p, end, v)))
                break;
            rec.pc = prevPc += unzigzag(pcDelta);
            rec.target = rec.pc + unzigzag(v);
            rec.kind = static_cast<BranchKind>(kind);
            rec.taken = tag & 2;
            const uint32_t key = index.insert(rec.pc);
            const auto id = static_cast<uint32_t>(dict.size());
            if (key < live.size()) {
                Entry &old = dict[live[key]];
                if (old.last.kind == rec.kind)
                    break; // the encoder would have named the entry
                old.live = false;
                live[key] = id;
            } else {
                live.push_back(id);
            }
            dict.push_back({rec, true});
        } else {
            if (!(p = getVarint(p, end, v)) || (v >> 3) >= dict.size() ||
                !dict[v >> 3].live)
                break;
            BranchRecord &last = dict[v >> 3].last;
            if (v & 4) {
                uint64_t delta = 0;
                if (!(p = getVarint(p, end, delta)) ||
                    last.pc + unzigzag(delta) == last.target)
                    break;
                last.target = last.pc + unzigzag(delta);
            }
            rec = last;
            rec.taken = v & 2;
        }
        if (!(p = getVarint(p, end, v)) || v > 0xFFFF)
            break;
        rec.instGap = static_cast<uint16_t>(v);
        out.push_back(rec);
    }
    if (out.size() == at + count && p == end)
        return true;
    out.resize(at);
    return false;
}

void
BranchTrace::fill(BranchSource &source, uint64_t maxRecords)
{
    BranchRecord rec;
    for (uint64_t i = 0; i < maxRecords && source.next(rec); ++i)
        append(rec);
}

bool
BranchTrace::save(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    auto write = [f](const std::vector<unsigned char> &bytes) {
        return std::fwrite(bytes.data(), 1, bytes.size(), f) ==
               bytes.size();
    };

    ByteWriter header;
    header.put(kFileMagic);
    header.put(kFileVersion);
    header.putStr(app_);
    header.put(inputId_);
    header.put(static_cast<uint64_t>(records_.size()));
    bool ok = write(header.take());

    // CRC-framed payloads: each frame checks and decodes on its own,
    // so a reader can skip one damaged frame instead of losing the
    // file.
    std::vector<unsigned char> payload;
    for (size_t at = 0; ok && at < records_.size();
         at += kDefaultFrameRecords) {
        std::span<const BranchRecord> frame =
            records().subspan(at, std::min<size_t>(kDefaultFrameRecords,
                                                   records_.size() - at));
        payload.clear();
        appendRecordPayload(payload, frame);
        ByteWriter frameHeader;
        frameHeader.put(kFrameMagic);
        frameHeader.put(static_cast<uint32_t>(frame.size()));
        frameHeader.put(static_cast<uint32_t>(payload.size()));
        frameHeader.put(crc32(payload.data(), payload.size()));
        ok = write(frameHeader.take()) && write(payload);
    }

    std::fclose(f);
    return ok;
}

IoStatus
BranchTrace::load(const std::string &path)
{
    TraceStreamReader reader(path);
    if (!reader.valid())
        return reader.status();

    // Cap the claimed record count by what the file can actually
    // hold at the smallest record, so a corrupted (or hostile)
    // length field errors out instead of driving a multi-gigabyte
    // allocation.
    std::error_code ec;
    uint64_t fileBytes = std::filesystem::file_size(path, ec);
    if (ec)
        return IoStatus::corruptFile(path, "unsized file");
    uint64_t n = reader.recordsTotal();
    if (n > fileBytes / kMinRecordBytes)
        return IoStatus::corruptFile(path,
                                     "record count exceeds file size");

    std::vector<BranchRecord> records, beyond;
    records.reserve(n);
    reader.readChunk(records, n);
    reader.readChunk(beyond, 1); // must find the end of the stream
    if (!reader.status().ok())
        return reader.status();
    if (reader.framesSkipped() > 0)
        return IoStatus::corruptFile(path, reader.firstSkipReason());
    if (records.size() != n || !beyond.empty())
        return IoStatus::corruptFile(path,
                                     "record count disagrees with "
                                     "header");

    app_ = reader.app();
    inputId_ = reader.inputId();
    records_ = std::move(records);
    instructions_ = 0;
    conditionals_ = 0;
    for (const auto &rec : records_) {
        instructions_ += rec.instGap + 1;
        if (rec.isConditional())
            ++conditionals_;
    }
    return IoStatus::okStatus();
}

} // namespace whisper
