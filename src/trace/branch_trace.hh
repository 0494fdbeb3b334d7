/**
 * @file
 * Materialized branch trace with binary (de)serialization.
 */

#ifndef WHISPER_TRACE_BRANCH_TRACE_HH
#define WHISPER_TRACE_BRANCH_TRACE_HH

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
     * input id, record count, then the record array. Version 2
     * stores the array as CRC32-framed chunks (frame magic, record
     * count, CRC, record images) so damage is localized to one
     * frame; version 1 (raw array) is still read. */
    static constexpr uint32_t kFileMagic = 0x57485254; // "WHRT"
    static constexpr uint32_t kFileVersion = 2;
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
 * Append the record image of @p records to @p out: each record's
 * native 24-byte layout with its 4 tail-padding bytes zeroed, so
 * equal records always encode to equal bytes. A .whrt v2 frame body
 * and the wire's INGEST_CHUNK record section are exactly this.
 */
void appendRecordImage(std::vector<unsigned char> &out,
                       std::span<const BranchRecord> records);

/** True when @p records hold exactly the bytes appendRecordImage()
 * writes for valid records: a BranchKind in range, taken 0 or 1, and
 * zero tail padding. Decoders of outside input accept nothing else. */
bool isCanonicalImage(std::span<const BranchRecord> records);

} // namespace whisper

#endif // WHISPER_TRACE_BRANCH_TRACE_HH
