/**
 * @file
 * TraceStreamReader, the one .whrt parser: the directory chunker
 * behind whisperd --chunks and whisper_loadgen --chunks, and the
 * strict BranchTrace::load (which fails on any frame the reader
 * skipped) all read traces through it.
 *
 * The reader is hardened against the inputs production actually
 * delivers: version-2 and -3 traces are CRC32-framed, and a frame
 * that fails its checksum or does not decode (bit rot, torn write, fault injection) is
 * skipped and counted instead of poisoning the profile or killing
 * the stream; a damaged frame triggers a bounded resync scan for the
 * next frame magic; transient short reads are retried with
 * exponential backoff; and every length field is hard-capped so a
 * corrupt (or hostile) size can never drive an unbounded
 * allocation.
 */

#ifndef WHISPER_TRACE_TRACE_READER_HH
#define WHISPER_TRACE_TRACE_READER_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "trace/branch_record.hh"
#include "util/io_status.hh"

namespace whisper
{

/**
 * Incremental .whrt reader: parses the header eagerly, then returns
 * records in caller-sized chunks so memory stays bounded no matter
 * how large the trace file is. Reads every format version (raw v1,
 * CRC-framed native records in v2, CRC-framed payloads in v3);
 * damaged frames are skipped and counted.
 */
class TraceStreamReader
{
  public:
    /** Bytes scanned past a damaged frame header looking for the
     * next frame magic before giving up on the file. */
    static constexpr size_t kResyncWindowBytes = 4u << 20;
    /** Transient-read retries before the error counts as hard. */
    static constexpr unsigned kMaxReadRetries = 4;

    explicit TraceStreamReader(const std::string &path);
    ~TraceStreamReader();

    TraceStreamReader(const TraceStreamReader &) = delete;
    TraceStreamReader &operator=(const TraceStreamReader &) = delete;

    /** Header parsed and magic/version verified. */
    bool valid() const { return file_ != nullptr; }
    /** Why the header was rejected (missing vs corrupt), or why a
     * v1 record array ended early. */
    const IoStatus &status() const { return status_; }

    const std::string &app() const { return app_; }
    uint32_t inputId() const { return inputId_; }
    const std::string &path() const { return path_; }

    /** The file's format version (BranchTrace::kFileVersion). */
    uint32_t version() const { return version_; }

    /** Records the header promises / already delivered. */
    uint64_t recordsTotal() const { return recordsTotal_; }
    uint64_t recordsRead() const { return recordsRead_; }

    /** Damaged frames dropped (CRC mismatch, bad header, torn
     * tail). */
    uint64_t framesSkipped() const { return framesSkipped_; }
    /** What was wrong with the first skipped frame ("" if none). */
    const char *firstSkipReason() const { return firstSkipReason_; }
    /** Records lost to dropped frames. */
    uint64_t recordsSkipped() const { return recordsSkipped_; }
    /** Transient read errors that were retried. */
    uint64_t readRetries() const { return readRetries_; }

    /**
     * Read up to @p maxRecords into @p out (replacing its contents).
     * @return number of records delivered; 0 at end of stream.
     * Damaged frames are skipped (see framesSkipped()); a short
     * v1 file (fewer records than the header claimed) invalidates
     * the reader.
     */
    size_t readChunk(std::vector<BranchRecord> &out,
                     size_t maxRecords);

  private:
    /** Buffer the next intact frame: appended straight to @p out
     * when it fits in @p room records, else held in frame_.
     * @return false at end of stream. */
    bool loadNextFrame(std::vector<BranchRecord> &out, size_t room);
    /** Read, check and decode one frame body of @p count records and
     * @p bytes bytes onto @p dst. @return nullptr, or what was wrong
     * with the frame (then @p dst is as it was). */
    const char *readFrameBody(uint32_t count, uint32_t bytes,
                              uint32_t crc,
                              std::vector<BranchRecord> &dst);
    bool resyncToFrameMagic();
    void skipFrame(const char *why, uint64_t records = 0);
    /** fread with bounded retry/backoff on transient errors; returns
     * bytes actually read (< @p n only on EOF or hard error). */
    size_t readWithRetry(void *p, size_t n);
    void finishStream(bool corrupt);

    std::string path_;
    std::FILE *file_ = nullptr;
    IoStatus status_;
    uint32_t version_ = 0;
    std::string app_;
    uint32_t inputId_ = 0;
    uint64_t recordsTotal_ = 0;
    uint64_t recordsRead_ = 0;

    std::vector<BranchRecord> frame_; //!< validated frame buffer
    size_t framePos_ = 0;
    std::vector<unsigned char> payload_; //!< v3 frame payload

    uint64_t framesSkipped_ = 0;
    const char *firstSkipReason_ = "";
    uint64_t recordsSkipped_ = 0;
    uint64_t readRetries_ = 0;
};

} // namespace whisper

#endif // WHISPER_TRACE_TRACE_READER_HH
