#include "trace/branch_trace.hh"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "trace/trace_reader.hh"
#include "util/byte_codec.hh"
#include "util/crc32.hh"

namespace whisper
{

namespace
{

/** The record image is the native layout: pc, target, kind, taken,
 * instGap, then 4 bytes of tail padding up to the 8-byte alignment. */
constexpr size_t kPaddingAt =
    offsetof(BranchRecord, instGap) + sizeof(uint16_t);
static_assert(sizeof(BranchRecord) == kPaddingAt + sizeof(uint32_t));

} // namespace

void
appendRecordImage(std::vector<unsigned char> &out,
                  std::span<const BranchRecord> records)
{
    const auto *raw =
        reinterpret_cast<const unsigned char *>(records.data());
    size_t at = out.size();
    out.insert(out.end(), raw, raw + records.size_bytes());
    for (size_t i = at + kPaddingAt; i < out.size();
         i += sizeof(BranchRecord)) {
        std::memset(out.data() + i, 0, sizeof(uint32_t));
    }
}

bool
isCanonicalImage(std::span<const BranchRecord> records)
{
    constexpr auto kMaxKind = static_cast<uint8_t>(BranchKind::Indirect);
    const auto *raw =
        reinterpret_cast<const unsigned char *>(records.data());
    bool canonical = true;
    for (size_t i = 0; i < records.size(); ++i) {
        const unsigned char *rec = raw + i * sizeof(BranchRecord);
        uint32_t padding;
        std::memcpy(&padding, rec + kPaddingAt, sizeof(padding));
        canonical &= padding == 0 &&
                     rec[offsetof(BranchRecord, kind)] <= kMaxKind &&
                     rec[offsetof(BranchRecord, taken)] <= 1;
    }
    return canonical;
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

    // CRC-framed record array: each frame checks independently, so a
    // reader can skip one damaged frame instead of losing the file.
    std::vector<unsigned char> image;
    for (size_t at = 0; ok && at < records_.size();
         at += kDefaultFrameRecords) {
        std::span<const BranchRecord> frame =
            records().subspan(at, std::min<size_t>(kDefaultFrameRecords,
                                                   records_.size() - at));
        image.clear();
        appendRecordImage(image, frame);
        ByteWriter frameHeader;
        frameHeader.put(kFrameMagic);
        frameHeader.put(static_cast<uint32_t>(frame.size()));
        frameHeader.put(crc32(image.data(), image.size()));
        ok = write(frameHeader.take()) && write(image);
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
    // hold, so a corrupted (or hostile) length field errors out
    // instead of driving a multi-gigabyte allocation.
    std::error_code ec;
    uint64_t fileBytes = std::filesystem::file_size(path, ec);
    if (ec)
        return IoStatus::corruptFile(path, "unsized file");
    uint64_t n = reader.recordsTotal();
    if (n > fileBytes / sizeof(BranchRecord))
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
