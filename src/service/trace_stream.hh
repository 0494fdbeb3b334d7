/**
 * @file
 * whisperd's unit of ingest and the directory chunker.
 *
 * The offline tools load whole .whrt traces into memory; a
 * continuously profiling service cannot. Every chunk enters whisperd
 * through TenantRouter::tryOffer/offer, whether it came off the wire
 * or out of a directory: chunkTraceDir() reads a directory's trace
 * files (sorted by name, so file naming encodes the drift sequence)
 * and cuts each into bounded TraceChunks with TraceStreamReader
 * (src/trace/trace_reader.hh, which skips and counts damaged
 * frames). whisper_loadgen --chunks uses the same chunker, so a
 * replayed directory is partitioned exactly as whisperd --chunks
 * partitions it.
 */

#ifndef WHISPER_SERVICE_TRACE_STREAM_HH
#define WHISPER_SERVICE_TRACE_STREAM_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace/branch_record.hh"

namespace whisper
{

/** One bounded slice of a trace, the service's unit of work. */
struct TraceChunk
{
    std::string app;          //!< application the trace came from
    uint32_t inputId = 0;     //!< workload input id
    std::vector<BranchRecord> records;
};

/** The ingest path's non-blocking verdict on one chunk. */
enum class ChunkSinkResult
{
    Accepted,     //!< queued for the tenant's absorber
    UnknownApp,   //!< no such tenant (permanent error to the client)
    Backpressure, //!< tenant queue full (client should retry later)
};

/** What one chunkTraceDir() pass read and skipped. */
struct ChunkTally
{
    uint64_t files = 0;          //!< files read to their end
    uint64_t framesSkipped = 0;  //!< damaged frames dropped
    uint64_t recordsSkipped = 0; //!< records lost to those frames
    uint64_t readRetries = 0;    //!< transient read errors retried
    /** Files that failed to open/parse, with the reason (missing vs
     * corrupt header vs truncated body). */
    std::vector<std::string> errors;
};

/** All .whrt files directly inside @p dir, sorted by name. */
std::vector<std::string> listTraceFiles(const std::string &dir);

/**
 * Cut every .whrt file of @p dir, in name order, into chunks of at
 * most @p chunkRecords records tagged with the file's app and input
 * id, and hand each to @p sink on the calling thread.
 */
ChunkTally chunkTraceDir(const std::string &dir, size_t chunkRecords,
                         const std::function<void(TraceChunk)> &sink);

} // namespace whisper

#endif // WHISPER_SERVICE_TRACE_STREAM_HH
