#include "service/hint_journal.hh"

#include <unistd.h>

#include "util/byte_codec.hh"
#include "util/crc32.hh"
#include "util/fault_injection.hh"
#include "util/logging.hh"

namespace whisper
{

namespace
{

/** A journal file's valid record prefix. */
struct ReplayResult
{
    std::vector<VersionedHintBundle> bundles;
    size_t validEnd = 0; //!< offset just past the last valid record
    size_t fileEnd = 0;  //!< file size; > validEnd = damaged tail
};

/** Read all of @p f and parse the header and every CRC-framed
 * record up to the first torn or damaged one. A bad header leaves
 * validEnd at 0: nothing is salvageable. */
ReplayResult
replayFile(std::FILE *f)
{
    ReplayResult result;
    std::vector<unsigned char> bytes;
    unsigned char buf[1 << 16];
    for (size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;)
        bytes.insert(bytes.end(), buf, buf + n);
    result.fileEnd = bytes.size();

    ByteReader r(bytes);
    uint32_t magic = 0, version = 0;
    r.get(magic);
    r.get(version);
    if (!r.ok() || magic != HintJournal::kFileMagic ||
        version != HintJournal::kVersion) {
        return result;
    }
    std::vector<unsigned char> payload;
    for (;;) {
        result.validEnd = bytes.size() - r.remaining();
        uint32_t len = 0, crc = 0;
        r.get(magic);
        r.get(len);
        r.get(crc);
        if (!r.ok() || magic != HintJournal::kRecordMagic || len == 0 ||
            len > HintJournal::kMaxPayload) {
            break; // clean end, torn header or garbage
        }
        payload.resize(len);
        VersionedHintBundle bundle;
        if (!r.getBytes(payload.data(), len) || // torn mid-payload
            crc32(payload.data(), len) != crc || // bit rot
            !decodeVersionedBundle(bundle, payload.data(), len)) {
            break;
        }
        result.bundles.push_back(std::move(bundle));
    }
    return result;
}

bool
writeHeader(std::FILE *f)
{
    uint32_t magic = HintJournal::kFileMagic;
    uint32_t version = HintJournal::kVersion;
    return std::fwrite(&magic, 1, sizeof(magic), f) ==
               sizeof(magic) &&
           std::fwrite(&version, 1, sizeof(version), f) ==
               sizeof(version);
}

bool
syncFile(std::FILE *f)
{
    return std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
}

std::vector<unsigned char>
frameRecord(const VersionedHintBundle &bundle)
{
    std::vector<unsigned char> payload =
        encodeVersionedBundle(bundle);
    ByteWriter w;
    w.reserve(12 + payload.size());
    w.put(HintJournal::kRecordMagic);
    w.put(static_cast<uint32_t>(payload.size()));
    w.put(crc32(payload.data(), payload.size()));
    w.putBytes(payload.data(), payload.size());
    return w.take();
}

} // namespace

HintJournal::~HintJournal()
{
    close();
}

void
HintJournal::close()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

IoStatus
HintJournal::open(const std::string &path,
                  std::vector<VersionedHintBundle> &out,
                  RecoveryInfo *info)
{
    close();
    out.clear();
    path_ = path;
    RecoveryInfo local;

    std::FILE *existing = std::fopen(path.c_str(), "rb");
    bool needCompact = true; // no file yet: write a fresh one
    if (existing) {
        ReplayResult replayed = replayFile(existing);
        std::fclose(existing);
        out = std::move(replayed.bundles);
        needCompact = replayed.validEnd != replayed.fileEnd;
        local.tailBytesDiscarded = replayed.fileEnd - replayed.validEnd;
        local.recordsRecovered = out.size();
    }

    if (needCompact) {
        // Rewrite the surviving prefix through a temp file and
        // atomically rename it into place, so a crash during
        // compaction leaves either the old file or the new one —
        // never a half-written hybrid.
        std::string tmp = path + ".tmp";
        std::FILE *nf = std::fopen(tmp.c_str(), "wb");
        if (!nf)
            return IoStatus::missingFile(tmp);
        bool ok = writeHeader(nf);
        for (const VersionedHintBundle &bundle : out) {
            if (!ok)
                break;
            std::vector<unsigned char> record = frameRecord(bundle);
            ok = std::fwrite(record.data(), 1, record.size(), nf) ==
                 record.size();
        }
        ok = ok && syncFile(nf);
        std::fclose(nf);
        if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
            std::remove(tmp.c_str());
            return IoStatus::corruptFile(path,
                                         "journal compaction failed");
        }
        local.compacted = true;
    }

    file_ = std::fopen(path.c_str(), "r+b");
    if (!file_)
        return IoStatus::missingFile(path);
    std::fseek(file_, 0, SEEK_END);
    goodOffset_ = std::ftell(file_);
    repairPending_ = false;
    if (info)
        *info = local;
    return IoStatus::okStatus();
}

bool
HintJournal::append(const VersionedHintBundle &bundle)
{
    if (!file_)
        return false;

    if (repairPending_) {
        // A previous append tore; cut the file back to the last
        // durable record before writing anything new.
        if (::ftruncate(::fileno(file_), goodOffset_) != 0) {
            ++appendFailures_;
            return false;
        }
        std::fseek(file_, goodOffset_, SEEK_SET);
        repairPending_ = false;
        ++repairs_;
    }

    std::vector<unsigned char> record = frameRecord(bundle);
    uint64_t index = appends_++;

    size_t toWrite = record.size();
    if (FaultInjector::instance().journalWritePlan(index) ==
        FaultInjector::WritePlan::Torn) {
        toWrite = record.size() / 2; // simulate a torn write
    }

    size_t wrote = std::fwrite(record.data(), 1, toWrite, file_);
    bool ok = wrote == record.size() && syncFile(file_);
    if (!ok) {
        std::fflush(file_);
        ++appendFailures_;
        repairPending_ = true;
        whisper_warn("hint journal: torn write on append ", index,
                     " (", wrote, "/", record.size(),
                     " bytes); will repair");
        return false;
    }
    goodOffset_ += static_cast<long>(record.size());
    return true;
}

std::vector<VersionedHintBundle>
HintJournal::replay(const std::string &path, RecoveryInfo *info)
{
    std::vector<VersionedHintBundle> out;
    RecoveryInfo local;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f) {
        ReplayResult replayed = replayFile(f);
        std::fclose(f);
        out = std::move(replayed.bundles);
        local.tailBytesDiscarded = replayed.fileEnd - replayed.validEnd;
        local.recordsRecovered = out.size();
    }
    if (info)
        *info = local;
    return out;
}

} // namespace whisper
