/**
 * @file
 * Shared pieces of the repository benchmark: run options, the result
 * record printed as the last stdout line, small statistics helpers,
 * and the span recorder of the traced run.
 *
 * Spans are recorded from the benchmark's own code around calls into
 * each library layer (trace, sim, core, bp, uarch, net, service,
 * workloads). A span is named "<layer>.<operation>"; its parent is
 * the innermost span open on the same thread, and spans of one wire
 * chunk share a "<round>/<app>:<seq>" id across threads. Spans stay in
 * memory and are written as JSON when the run ends.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/whisper_io.hh"
#include "trace/branch_trace.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for traces, bundles and journals. */
    std::string workDir;
};

/** Everything one workload run reports. */
struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;
    /** Metric values by name; main.cc holds the names and units. */
    std::map<std::string, double> endToEnd;
    std::map<std::string, double> perLayer;
    /** Simulated results (counts, bundle digests), a pure function of
     * the seed's input window; run.py compares them with the values
     * committed in expected.json. */
    std::map<std::string, double> outcome;

    /** Count one checked operation; a false @p ok fails the run. */
    void check(bool ok, const std::string &what);
    bool correct() const { return failed == 0; }
};

double median(std::vector<double> values);
/** Nearest-rank percentile, @p p in [0, 100]. */
double percentile(std::vector<double> values, double p);
/**
 * Host-speed calibration. The benchmark host is shared, and
 * neighbours' cache and memory traffic slows this process's loads
 * and stores: the fastest offline-mysql train round of a 10 s run
 * ranged from 0.37 s to 0.58 s over runs minutes apart, with every
 * layer slower by the same share, while a register-only loop did not
 * move. No statistic taken inside one run can hide a slowdown that
 * lasts the whole run.
 *
 * So each timed stage is bracketed by runs of a fixed calibration
 * kernel: random read-modify-writes over a 2 MiB table (the size of
 * the formula truth tables and of one core's L2), addressed by a
 * xorshift generator. A stage is reported at the speed of a quiet
 * host, its wall time scaled by kQuietCalibrationSeconds over the mean
 * of the kernel's two times around it; a run reports the median over
 * its rounds. The kernel is the benchmark's own code, so a change to
 * the library moves the stage time, not the scale.
 */
constexpr double kQuietCalibrationSeconds = 0.025;

/** Wall time of one run of the calibration kernel. */
double calibrationSeconds();

/** @p seconds of wall time at a quiet host's speed, given the kernel
 * times measured just before (@p calBefore) and just after
 * (@p calAfter) them. */
double atQuietSpeed(double seconds, double calBefore, double calAfter);

double peakRssMb();
/**
 * Start a round's memory accounting: hand freed heap memory back to
 * the OS (malloc_trim) and reset the peak-RSS high-water mark (Linux
 * /proc/self/clear_refs), so that peakRssMb() then reports the
 * round's own peak, not memory earlier rounds freed but the
 * allocator kept.
 */
void beginRoundMemory();
/** User + system CPU time of this process. */
double cpuSeconds();
uint64_t fileBytes(const std::string &path);
/** CRC-32 of the bundle's journal encoding (epoch, validation
 * accuracy, hints, placements). */
double bundleDigest(const whisper::VersionedHintBundle &bundle);

/** One recorded span; times are seconds since the recorder started. */
struct SpanRecord
{
    std::string name;
    std::string id;
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1;
    unsigned thread = 0;
};

/** In-memory span store; a no-op unless enabled. Thread-safe. */
class SpanRecorder
{
  public:
    void enable() { enabled_ = true; }
    bool enabled() const { return enabled_; }

    size_t begin(const char *name, std::string id);
    void end(size_t index);

    /** Durations of every closed span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Write spans plus @p endToEnd (the traced run's own e2e
     * figures, for the overhead comparison) as JSON. */
    bool write(const std::string &path,
               const std::map<std::string, double> &endToEnd) const;

  private:
    bool enabled_ = false;
    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

SpanRecorder &spans();

/** Scoped span around one call into a layer. */
class Span
{
  public:
    explicit Span(const char *name, std::string id = {});
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    size_t index_ = 0;
    bool open_ = false;
};

/** Records every generateTrace() call generates beyond the window it
 * keeps: the seed picks one of 64 windows, 4096 records apart, of the
 * same input stream, so the seed changes the records but not the
 * application, its inputs, or the set-up cost. */
constexpr uint64_t kSeedWindows = 64;
constexpr uint64_t kSeedStride = 4096;
constexpr uint64_t kSeedWindowRecords = (kSeedWindows - 1) * kSeedStride;

/**
 * The @p records-record window of @p app's input @p inputId that
 * @p seed selects.
 */
whisper::BranchTrace generateTrace(const std::string &app,
                                   uint32_t inputId, uint64_t seed,
                                   uint64_t records);

/** Median duration of the spans named @p name (0 if none). */
double medianSpan(const std::string &name);

Result runOffline(const Options &opt, const std::string &app);
Result runWhisperd(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
