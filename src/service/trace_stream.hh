/**
 * @file
 * Streaming trace ingest for whisperd.
 *
 * The offline tools load whole .whrt traces into memory; a
 * continuously profiling service cannot. ChunkIngestor runs a
 * producer thread over a directory of trace files (sorted by name,
 * so file naming encodes the drift sequence), cuts each file into
 * bounded TraceChunks with TraceStreamReader (src/trace/
 * trace_reader.hh, which skips and counts damaged frames), and
 * feeds them to a BoundedQueue.
 */

#ifndef WHISPER_SERVICE_TRACE_STREAM_HH
#define WHISPER_SERVICE_TRACE_STREAM_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "service/bounded_queue.hh"
#include "trace/branch_record.hh"
#include "trace/trace_reader.hh"

namespace whisper
{

/** One bounded slice of a trace file, the service's unit of work. */
struct TraceChunk
{
    uint64_t sequence = 0;    //!< global arrival index
    std::string app;          //!< application the trace came from
    uint32_t inputId = 0;     //!< workload input id
    std::string sourceFile;   //!< originating .whrt path
    std::vector<BranchRecord> records;
};

/**
 * Producer side of the ingest pipeline: streams every trace file of
 * a directory, in name order, as TraceChunks into a shared queue.
 * Several ingestors may feed one queue (MPSC); each runs one thread.
 */
class ChunkIngestor
{
  public:
    /**
     * @param chunkRecords chunk granularity (records per chunk)
     * @param queue destination; NOT closed by the ingestor (the
     *        coordinator closes it once all producers joined)
     * @param sequence shared arrival counter for deterministic chunk
     *        numbering across producers (may be shared or private)
     */
    ChunkIngestor(std::vector<std::string> files, size_t chunkRecords,
                  BoundedQueue<TraceChunk> &queue,
                  std::atomic<uint64_t> &sequence);
    ~ChunkIngestor();

    /** Spawn the producer thread. */
    void start();
    /** Wait for the producer to finish its file list. */
    void join();

    uint64_t filesIngested() const { return filesIngested_; }
    uint64_t chunksProduced() const { return chunksProduced_; }
    uint64_t recordsIngested() const { return recordsIngested_; }
    /** Damaged frames skipped across all files. */
    uint64_t framesSkipped() const { return framesSkipped_; }
    /** Records lost to skipped frames across all files. */
    uint64_t recordsSkipped() const { return recordsSkipped_; }
    /** Transient read errors retried across all files. */
    uint64_t readRetries() const { return readRetries_; }
    /** Files that failed to open/parse, with the reason (missing vs
     * corrupt header vs truncated body). */
    const std::vector<std::string> &errors() const { return errors_; }

    /** All .whrt files directly inside @p dir, sorted by name. */
    static std::vector<std::string>
    listTraceFiles(const std::string &dir);

  private:
    void produce();

    std::vector<std::string> files_;
    size_t chunkRecords_;
    BoundedQueue<TraceChunk> &queue_;
    std::atomic<uint64_t> &sequence_;
    std::thread thread_;

    uint64_t filesIngested_ = 0;
    uint64_t chunksProduced_ = 0;
    uint64_t recordsIngested_ = 0;
    uint64_t framesSkipped_ = 0;
    uint64_t recordsSkipped_ = 0;
    uint64_t readRetries_ = 0;
    std::vector<std::string> errors_;
};

} // namespace whisper

#endif // WHISPER_SERVICE_TRACE_STREAM_HH
