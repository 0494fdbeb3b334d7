#include "trace/trace_reader.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "trace/branch_trace.hh"
#include "util/byte_codec.hh"
#include "util/crc32.hh"
#include "util/fault_injection.hh"

namespace whisper
{

TraceStreamReader::TraceStreamReader(const std::string &path)
    : path_(path), file_(std::fopen(path.c_str(), "rb"))
{
    if (!file_) {
        status_ = IoStatus::missingFile(path);
        return;
    }

    bool ok = true;
    auto get = [&](void *p, size_t n) {
        if (ok && std::fread(p, 1, n, file_) != n)
            ok = false;
    };
    auto reject = [&](const char *why) {
        std::fclose(file_);
        file_ = nullptr;
        status_ = IoStatus::corruptFile(path_, why);
    };

    uint32_t magic = 0, version = 0;
    get(&magic, sizeof(magic));
    get(&version, sizeof(version));
    uint32_t nameLen = 0;
    get(&nameLen, sizeof(nameLen));
    if (!ok || magic != BranchTrace::kFileMagic) {
        reject("bad magic (not a .whrt trace)");
        return;
    }
    if (version != BranchTrace::kFileVersion) {
        reject("unsupported format version");
        return;
    }
    if (nameLen > kMaxStringBytes) {
        reject("oversized app-name length field");
        return;
    }
    app_.assign(nameLen, '\0');
    get(app_.data(), nameLen);
    get(&inputId_, sizeof(inputId_));
    get(&recordsTotal_, sizeof(recordsTotal_));
    if (!ok)
        reject("truncated header");
}

TraceStreamReader::~TraceStreamReader()
{
    if (file_)
        std::fclose(file_);
}

size_t
TraceStreamReader::readWithRetry(void *p, size_t n)
{
    auto *dst = static_cast<unsigned char *>(p);
    size_t got = 0;
    unsigned attempt = 0;
    while (got < n) {
        bool injectedFailure = FaultInjector::instance().failRead();
        if (!injectedFailure) {
            got += std::fread(dst + got, 1, n - got, file_);
            if (got == n)
                break;
            if (std::feof(file_))
                return got; // real end of data: no retry helps
            std::clearerr(file_);
        }
        if (++attempt > kMaxReadRetries)
            return got;
        // Transient error (EINTR, EAGAIN on a network fs, injected):
        // back off exponentially and try again from where we were.
        ++readRetries_;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1u << std::min(attempt, 5u)));
    }
    return got;
}

void
TraceStreamReader::finishStream()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
    // Records the header promised but we never delivered were lost
    // to skipped/torn frames; keep whichever count is larger (frame
    // counts are exact, the header remainder covers torn tails).
    if (recordsTotal_ > recordsRead_) {
        recordsSkipped_ = std::max(recordsSkipped_,
                                   recordsTotal_ - recordsRead_);
    }
}

void
TraceStreamReader::skipFrame(const char *why, uint64_t records)
{
    if (framesSkipped_++ == 0)
        firstSkipReason_ = why;
    recordsSkipped_ += records;
}

bool
TraceStreamReader::resyncToFrameMagic()
{
    // The 4 bytes just read were a bad magic, or the magic of a frame
    // found damaged; rescan from one byte after their start,
    // overlapping block reads so a magic spanning block boundaries
    // is still found.
    long base = std::ftell(file_);
    if (base < 0)
        return false;
    long pos = base - 3;
    const long limit =
        pos + static_cast<long>(kResyncWindowBytes);
    unsigned char buf[4096];
    while (pos < limit) {
        if (std::fseek(file_, pos, SEEK_SET) != 0)
            return false;
        size_t r = readWithRetry(buf, sizeof(buf));
        if (r < sizeof(uint32_t))
            return false; // hit EOF without finding another frame
        for (size_t i = 0; i + sizeof(uint32_t) <= r; ++i) {
            uint32_t v = 0;
            std::memcpy(&v, buf + i, sizeof(v));
            if (v == BranchTrace::kFrameMagic) {
                std::fseek(file_, pos + static_cast<long>(i),
                           SEEK_SET);
                return true;
            }
        }
        pos += static_cast<long>(r) - 3;
    }
    return false;
}

bool
TraceStreamReader::loadNextFrame(std::vector<BranchRecord> &out,
                                 size_t room)
{
    frame_.clear();
    framePos_ = 0;
    for (;;) {
        uint32_t magic = 0;
        size_t got = readWithRetry(&magic, sizeof(magic));
        if (got == 0)
            return false; // clean EOF
        if (got < sizeof(magic)) {
            skipFrame("bad frame header"); // torn tail
            return false;
        }
        if (magic != BranchTrace::kFrameMagic) {
            // Damaged frame header: scan for the next frame.
            skipFrame("bad frame header");
            if (!resyncToFrameMagic())
                return false;
            continue;
        }

        long afterMagic = std::ftell(file_);
        uint32_t count = 0, bytes = 0, crc = 0;
        if (readWithRetry(&count, sizeof(count)) != sizeof(count) ||
            readWithRetry(&bytes, sizeof(bytes)) != sizeof(bytes) ||
            readWithRetry(&crc, sizeof(crc)) != sizeof(crc)) {
            skipFrame("bad frame header"); // torn mid-header
            return false;
        }
        if (count == 0 || count > BranchTrace::kMaxFrameRecords) {
            // Hostile or smashed length field: never allocate it.
            skipFrame("frame record count out of bounds");
            if (!resyncToFrameMagic())
                return false;
            continue;
        }
        if (bytes < count * kMinRecordBytes ||
            bytes > count * kMaxRecordBytes) {
            skipFrame("frame byte count out of bounds");
            if (!resyncToFrameMagic())
                return false;
            continue;
        }

        // A frame that fits the caller's room is decoded in place;
        // only one that straddles the chunk boundary is buffered.
        std::vector<BranchRecord> &dst = count <= room ? out : frame_;
        const char *damage = readFrameBody(count, bytes, crc, dst);
        if (!damage)
            return true;

        // Torn, bit-rotted or overwritten — or a smashed count that
        // ran the payload into the frames after it. Never serve the
        // frame; rescan from just past its magic so no intact frame
        // behind it is lost.
        skipFrame(damage, count);
        if (std::fseek(file_, afterMagic, SEEK_SET) != 0 ||
            !resyncToFrameMagic()) {
            return false;
        }
    }
}

const char *
TraceStreamReader::readFrameBody(uint32_t count, uint32_t bytes,
                                 uint32_t crc,
                                 std::vector<BranchRecord> &dst)
{
    payload_.resize(bytes);
    if (readWithRetry(payload_.data(), bytes) != bytes)
        return "truncated frame";
    FaultInjector::instance().corruptFrame(payload_.data(), bytes);
    if (crc32(payload_.data(), bytes) != crc)
        return "frame CRC mismatch";
    // The decoder leaves dst as it was when it fails.
    if (!decodeRecordPayload(payload_.data(), bytes, count, dst))
        return "malformed frame payload";
    return nullptr;
}

size_t
TraceStreamReader::readChunk(std::vector<BranchRecord> &out,
                             size_t maxRecords)
{
    out.clear();
    if (!file_ || maxRecords == 0)
        return 0;

    while (out.size() < maxRecords) {
        if (framePos_ < frame_.size()) {
            size_t take = std::min(maxRecords - out.size(),
                                   frame_.size() - framePos_);
            out.insert(out.end(), frame_.begin() + framePos_,
                       frame_.begin() + framePos_ + take);
            framePos_ += take;
        } else if (!loadNextFrame(out, maxRecords - out.size())) {
            if (out.empty())
                finishStream();
            break;
        }
    }
    recordsRead_ += out.size();
    return out.size();
}

} // namespace whisper
