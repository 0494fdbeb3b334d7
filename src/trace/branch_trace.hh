/**
 * @file
 * Materialized branch trace with binary (de)serialization.
 */

#ifndef WHISPER_TRACE_BRANCH_TRACE_HH
#define WHISPER_TRACE_BRANCH_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/branch_record.hh"
#include "trace/branch_source.hh"
#include "util/io_status.hh"

namespace whisper
{

/**
 * An in-memory branch trace.
 *
 * Stores the full record sequence plus identifying metadata (the
 * application name and input id the trace was collected from).
 */
class BranchTrace
{
  public:
    /** .whrt on-disk format identity; save() writes it and
     * TraceStreamReader (src/trace/trace_reader.hh) is its only
     * parser. The layout is: magic, version, name length + bytes,
     * input id, record count, then the records in CRC32-framed
     * chunks, so damage is localized to one frame. A version 3
     * frame is frame magic, record count, payload bytes, CRC of the
     * payload, then the appendRecordPayload() bytes. Versions 1 (a
     * raw array of 24-byte native records) and 2 (frame magic,
     * record count, CRC, native records) are still read. */
    static constexpr uint32_t kFileMagic = 0x57485254; // "WHRT"
    static constexpr uint32_t kFileVersion = 3;
    static constexpr uint32_t kFrameMagic = 0x57484652; // "WHFR"
    /** Upper bound a reader accepts for one frame's record count —
     * turns hostile length fields into errors, not allocations. */
    static constexpr uint32_t kMaxFrameRecords = 1u << 20;
    /** Frame granularity save() uses. */
    static constexpr uint32_t kDefaultFrameRecords = 16'384;

    BranchTrace() = default;
    BranchTrace(std::string app, uint32_t inputId)
        : app_(std::move(app)), inputId_(inputId)
    {
    }

    void
    append(const BranchRecord &rec)
    {
        records_.push_back(rec);
        instructions_ += rec.instGap + 1;
        if (rec.isConditional())
            ++conditionals_;
    }

    /** Drain @p source (up to @p maxRecords) into this trace. */
    void fill(BranchSource &source, uint64_t maxRecords);

    size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }
    const BranchRecord &operator[](size_t i) const { return records_[i]; }

    /** Total retired instructions represented by the trace. */
    uint64_t instructions() const { return instructions_; }
    /** Number of conditional-branch records. */
    uint64_t conditionals() const { return conditionals_; }

    const std::string &app() const { return app_; }
    uint32_t inputId() const { return inputId_; }

    auto begin() const { return records_.begin(); }
    auto end() const { return records_.end(); }
    std::span<const BranchRecord> records() const { return records_; }

    /** Binary round-trip. save() overwrites @p path and returns
     * false on I/O failure; load() replaces the current contents and
     * reports missing-vs-corrupt through its IoStatus. load() is
     * strict: any frame TraceStreamReader had to skip, or a record
     * count that disagrees with the header, makes it corrupt. */
    bool save(const std::string &path) const;
    IoStatus load(const std::string &path);

  private:
    std::string app_;
    uint32_t inputId_ = 0;
    std::vector<BranchRecord> records_;
    uint64_t instructions_ = 0;
    uint64_t conditionals_ = 0;
};

/** BranchSource view over a record array: a materialized trace, a
 * whisperd chunk, or any vector of records. The array must outlive
 * the source and not be resized while it is in use. */
class TraceSource : public BranchSource
{
  public:
    explicit TraceSource(std::span<const BranchRecord> records)
        : records_(records)
    {
    }
    explicit TraceSource(const BranchTrace &trace)
        : TraceSource(trace.records())
    {
    }

    bool
    next(BranchRecord &rec) override
    {
        if (pos_ >= records_.size())
            return false;
        rec = records_[pos_++];
        return true;
    }

    void rewind() override { pos_ = 0; }

  private:
    std::span<const BranchRecord> records_;
    size_t pos_ = 0;
};

/**
 * BranchSource adaptor that truncates an underlying source after a
 * fixed number of records (used for warm-up/length sweeps).
 */
class LimitSource : public BranchSource
{
  public:
    LimitSource(BranchSource &inner, uint64_t limit)
        : inner_(inner), limit_(limit)
    {
    }

    bool
    next(BranchRecord &rec) override
    {
        if (produced_ >= limit_)
            return false;
        if (!inner_.next(rec))
            return false;
        ++produced_;
        return true;
    }

    void
    rewind() override
    {
        inner_.rewind();
        produced_ = 0;
    }

  private:
    BranchSource &inner_;
    uint64_t limit_;
    uint64_t produced_ = 0;
};

/**
 * The record payload of a .whrt v3 frame and of an INGEST_CHUNK: a
 * byte stream of records with its own PC dictionary, built in
 * first-seen order (Intel PT, the paper's trace source, likewise
 * spends a bit per conditional and sends a target only when the code
 * does not imply it). Each record is one of
 *
 *   new PC   tag:u8 pcDelta:varint targetDelta:varint gap:varint
 *            tag = 1 | taken << 1 | kind << 2; pcDelta is the
 *            zigzag delta from the previous new PC (0 first),
 *            targetDelta the zigzag delta of the target from the PC
 *   seen PC  head:varint [targetDelta:varint] gap:varint
 *            head = id << 3 | explicit << 2 | taken << 1; id is the
 *            PC's dictionary entry, which supplies PC, kind and
 *            last target; explicit marks a target unlike that last
 *            one (returns, indirects), sent as a delta from the PC
 *
 * and gap is instGap. A PC seen again with another kind takes a new
 * entry, which supersedes the old one. Varints are LEB128
 * (util/byte_codec.hh) and deltas wrap mod 2^64, so any record
 * encodes; a record costs kMinRecordBytes to kMaxRecordBytes.
 */
constexpr size_t kMinRecordBytes = 2;
constexpr size_t kMaxRecordBytes = 24;

/** Append the payload of @p records to @p out. Equal records always
 * encode to equal bytes. */
void appendRecordPayload(std::vector<unsigned char> &out,
                         std::span<const BranchRecord> records);

/**
 * Decode the payload of exactly @p count records from the @p size
 * bytes at @p data, appending them to @p out. Only the bytes
 * appendRecordPayload() writes are accepted: shortest varints, ids
 * of live entries, a tag with a kind in range, a new entry only for a
 * PC without a live entry of its kind, an explicit target only when
 * it differs, gaps that fit instGap, and no byte left over. So every
 * accepted payload re-encodes to the same bytes. A @p count above
 * size / kMinRecordBytes fails before anything is allocated.
 * @return false, with @p out unchanged, on any other input.
 */
bool decodeRecordPayload(const unsigned char *data, size_t size,
                         size_t count, std::vector<BranchRecord> &out);

} // namespace whisper

#endif // WHISPER_TRACE_BRANCH_TRACE_HH
