#include "service/trace_stream.hh"

#include <algorithm>
#include <filesystem>

#include "trace/trace_reader.hh"
#include "util/logging.hh"

namespace whisper
{

std::vector<std::string>
listTraceFiles(const std::string &dir)
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

ChunkTally
chunkTraceDir(const std::string &dir, size_t chunkRecords,
              const std::function<void(TraceChunk)> &sink)
{
    whisper_assert(chunkRecords > 0);
    ChunkTally tally;
    for (const std::string &file : listTraceFiles(dir)) {
        TraceStreamReader reader(file);
        if (!reader.valid()) {
            tally.errors.push_back(reader.status().message);
            continue;
        }
        TraceChunk chunk;
        while (reader.readChunk(chunk.records, chunkRecords) > 0) {
            chunk.app = reader.app();
            chunk.inputId = reader.inputId();
            sink(std::move(chunk));
            chunk = TraceChunk{};
        }
        tally.framesSkipped += reader.framesSkipped();
        tally.recordsSkipped += reader.recordsSkipped();
        tally.readRetries += reader.readRetries();
        if (!reader.status().ok())
            tally.errors.push_back(reader.status().message);
        else
            ++tally.files;
    }
    return tally;
}

} // namespace whisper
