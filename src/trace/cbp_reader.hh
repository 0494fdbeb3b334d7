/**
 * @file
 * CBP-style external trace import/export.
 *
 * Championship-style branch-prediction traces (and course harnesses
 * derived from them, e.g. CSE240A) are line-oriented text: a branch
 * PC and a resolved direction per line. This adapter accepts that
 * family of formats and exposes the stream behind the repo's own
 * BranchSource interface so foreign traces run through every
 * simulator, profiler, and tool unchanged.
 *
 * Accepted line grammar (whitespace-separated):
 *
 *     PC DIR [TARGET [KIND [GAP]]]
 *
 *  - PC, TARGET: hex, with or without a 0x prefix
 *  - DIR: 1/0 or T/N (case-insensitive)
 *  - KIND: C (conditional), J (unconditional jump), L (call),
 *    R (return), I (indirect); default C
 *  - GAP: decimal non-branch instructions since the previous record
 *    (BranchRecord::instGap); default 8
 *  - TARGET defaults to PC + 4 when the source format omits it
 *
 * Every line, the last included, ends with '\n'. Lines starting
 * with '#' are comments; `# app=NAME` and `# input=N` comments carry
 * trace metadata. The full grammar is what saveCbpTrace() emits, so
 * a .whrt trace exported to .cbp and re-imported reproduces the
 * original record stream exactly; minimal two-column foreign files
 * import with the defaults.
 */

#ifndef WHISPER_TRACE_CBP_READER_HH
#define WHISPER_TRACE_CBP_READER_HH

#include <fstream>
#include <string>

#include "trace/branch_trace.hh"
#include "util/io_status.hh"

namespace whisper
{

/** Materialize a CBP-style text trace: a strict loop over
 * CbpFileSource. Missing file vs. malformed or torn line are
 * distinguished through the IoStatus, with the line number named in
 * the message. */
IoStatus loadCbpTrace(const std::string &path, BranchTrace *out);

/** Write @p trace as CBP-style text (full grammar, with metadata
 * comments). @return false on I/O failure. */
bool saveCbpTrace(const BranchTrace &trace, const std::string &path);

/**
 * Streaming BranchSource over a CBP-style file on disk.
 *
 * The file is re-read on rewind(), so multi-pass consumers
 * (profilers, trainers) work without materializing the trace.
 * Construction reports open failures through status(); a malformed
 * line, or a last line without its '\n', ends the stream early and
 * is reported the same way.
 */
class CbpFileSource : public BranchSource
{
  public:
    explicit CbpFileSource(const std::string &path);

    bool next(BranchRecord &rec) override;
    void rewind() override;

    /** Open/parse state; check after construction and after the
     * stream ends (a parse error also terminates next()). */
    const IoStatus &status() const { return status_; }

    /** Metadata from `# app=` / `# input=` comments seen so far. */
    const std::string &app() const { return app_; }
    uint32_t inputId() const { return inputId_; }

  private:
    std::string path_;
    std::ifstream in_;
    IoStatus status_;
    std::string app_;
    uint32_t inputId_ = 0;
    uint64_t lineNo_ = 0;
};

} // namespace whisper

#endif // WHISPER_TRACE_CBP_READER_HH
