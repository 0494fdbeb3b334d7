#include "service/trace_stream.hh"

#include <algorithm>
#include <filesystem>

#include "util/logging.hh"

namespace whisper
{

ChunkIngestor::ChunkIngestor(std::vector<std::string> files,
                             size_t chunkRecords,
                             BoundedQueue<TraceChunk> &queue,
                             std::atomic<uint64_t> &sequence)
    : files_(std::move(files)), chunkRecords_(chunkRecords),
      queue_(queue), sequence_(sequence)
{
    whisper_assert(chunkRecords_ > 0);
}

ChunkIngestor::~ChunkIngestor()
{
    if (thread_.joinable())
        thread_.join();
}

void
ChunkIngestor::start()
{
    whisper_assert(!thread_.joinable(), "ingestor already started");
    thread_ = std::thread([this] { produce(); });
}

void
ChunkIngestor::join()
{
    if (thread_.joinable())
        thread_.join();
}

void
ChunkIngestor::produce()
{
    for (const std::string &file : files_) {
        TraceStreamReader reader(file);
        if (!reader.valid()) {
            errors_.push_back(reader.status().message);
            continue;
        }
        TraceChunk chunk;
        while (reader.readChunk(chunk.records, chunkRecords_) > 0) {
            chunk.sequence =
                sequence_.fetch_add(1, std::memory_order_relaxed);
            chunk.app = reader.app();
            chunk.inputId = reader.inputId();
            chunk.sourceFile = file;
            recordsIngested_ += chunk.records.size();
            ++chunksProduced_;
            if (!queue_.push(std::move(chunk))) {
                framesSkipped_ += reader.framesSkipped();
                recordsSkipped_ += reader.recordsSkipped();
                readRetries_ += reader.readRetries();
                return; // queue closed under us: stop producing
            }
            chunk = TraceChunk{};
        }
        framesSkipped_ += reader.framesSkipped();
        recordsSkipped_ += reader.recordsSkipped();
        readRetries_ += reader.readRetries();
        if (!reader.status().ok())
            errors_.push_back(reader.status().message);
        else
            ++filesIngested_;
    }
}

std::vector<std::string>
ChunkIngestor::listTraceFiles(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".whrt") {
            files.push_back(entry.path().string());
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

} // namespace whisper
