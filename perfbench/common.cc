/**
 * @file
 * Span recorder, its JSON writer, input generation, and the statistics
 * helpers shared by the workloads.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "bench.hh"
#include "util/crc32.hh"
#include "workloads/app_config.hh"
#include "workloads/app_workload.hh"

namespace perfbench
{

void
Result::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        failures.push_back(what);
    }
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double
calibrationSeconds()
{
    constexpr size_t kWords = size_t{1} << 18; // 2 MiB
    constexpr unsigned kSteps = 8'000'000;
    // The table outlives the call, so its stores keep the loop alive.
    static std::vector<uint64_t> table(kWords, 1);
    uint64_t x = 0x9E3779B97F4A7C15ull, acc = 0;
    auto t0 = Clock::now();
    for (unsigned i = 0; i < kSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += table[x & (kWords - 1)] ^ (acc >> 3);
        table[(x >> 20) & (kWords - 1)] = acc;
    }
    return secondsSince(t0);
}

double
atQuietSpeed(double seconds, double calBefore, double calAfter)
{
    return seconds * 2.0 * kQuietCalibrationSeconds / (calBefore + calAfter);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
beginRoundMemory()
{
    malloc_trim(0);
    if (FILE *f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    uintmax_t n = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<uint64_t>(n);
}

double
bundleDigest(const whisper::VersionedHintBundle &bundle)
{
    std::vector<unsigned char> bytes = whisper::encodeVersionedBundle(bundle);
    return static_cast<double>(whisper::crc32(bytes.data(), bytes.size()));
}

namespace
{

/** Small dense thread index for the span JSON. */
unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned index = next++;
    return index;
}

/** Open spans of this thread, innermost last (parent links). */
thread_local std::vector<size_t> openSpans;

void
writeJsonString(FILE *f, const std::string &s)
{
    std::fputc('"', f);
    for (char c : s) {
        if (c == '"' || c == '\\')
            std::fputc('\\', f);
        if (static_cast<unsigned char>(c) < 0x20)
            std::fprintf(f, "\\u%04x", c);
        else
            std::fputc(c, f);
    }
    std::fputc('"', f);
}

} // namespace

size_t
SpanRecorder::begin(const char *name, std::string id)
{
    SpanRecord rec;
    rec.name = name;
    rec.id = std::move(id);
    rec.thread = threadIndex();
    rec.parent = openSpans.empty()
        ? -1
        : static_cast<int64_t>(openSpans.back());
    rec.start = secondsSince(epoch_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(rec));
    openSpans.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
SpanRecorder::end(size_t index)
{
    double t = secondsSince(epoch_);
    if (!openSpans.empty() && openSpans.back() == index)
        openSpans.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[index].end = t;
}

std::vector<double>
SpanRecorder::durations(const std::string &name) const
{
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const SpanRecord &s : spans_)
        if (s.name == name && s.end >= s.start)
            out.push_back(s.end - s.start);
    return out;
}

bool
SpanRecorder::write(const std::string &path,
                    const std::map<std::string, double> &endToEnd) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(f, "{\"end_to_end\": {");
    bool first = true;
    for (const auto &[name, value] : endToEnd) {
        std::fprintf(f, "%s", first ? "" : ", ");
        writeJsonString(f, name);
        std::fprintf(f, ": %.9g", value);
        first = false;
    }
    std::fprintf(f, "},\n\"spans\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::fprintf(f, "{\"name\": ");
        writeJsonString(f, s.name);
        std::fprintf(f, ", \"id\": ");
        writeJsonString(f, s.id);
        std::fprintf(f,
                     ", \"start\": %.9f, \"end\": %.9f, "
                     "\"parent\": %lld, \"thread\": %u}%s\n",
                     s.start, s.end, static_cast<long long>(s.parent),
                     s.thread, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

SpanRecorder &
spans()
{
    static SpanRecorder recorder;
    return recorder;
}

Span::Span(const char *name, std::string id)
{
    if (spans().enabled()) {
        index_ = spans().begin(name, std::move(id));
        open_ = true;
    }
}

Span::~Span()
{
    if (open_)
        spans().end(index_);
}

whisper::BranchTrace
generateTrace(const std::string &app, uint32_t inputId, uint64_t seed,
              uint64_t records)
{
    const uint64_t skip = (seed % kSeedWindows) * kSeedStride;
    const uint64_t total = kSeedWindowRecords + records;

    Span span("workloads.gen");
    whisper::AppWorkload source(whisper::appByName(app), inputId, total);
    whisper::BranchTrace trace(app, inputId);
    whisper::BranchRecord rec;
    for (uint64_t i = 0; i < total && source.next(rec); ++i)
        if (i >= skip && i < skip + records)
            trace.append(rec);
    return trace;
}

double
medianSpan(const std::string &name)
{
    return median(spans().durations(name));
}

} // namespace perfbench
