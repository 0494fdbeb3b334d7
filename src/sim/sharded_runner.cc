#include "sim/sharded_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "util/logging.hh"

namespace whisper
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/** Records per predictMany() call. Large enough to amortize the
 * virtual dispatch, small enough that the per-worker scratch stays
 * cache-resident. */
constexpr size_t kBatchRecords = 4096;

/** Sum of (instGap + 1) over [first, last). */
uint64_t
instructionSpan(const BranchRecord *records, size_t first,
                size_t last)
{
    uint64_t sum = 0;
    for (size_t i = first; i < last; ++i)
        sum += static_cast<uint64_t>(records[i].instGap) + 1;
    return sum;
}

unsigned
resolveJobs(unsigned requested, size_t windows)
{
    unsigned jobs = requested;
    if (jobs == 0)
        jobs = std::thread::hardware_concurrency();
    if (jobs == 0)
        jobs = 1;
    if (windows > 0 && jobs > windows)
        jobs = static_cast<unsigned>(windows);
    return jobs;
}

/** A window's slice of the stream plus its warm-up prefix. */
struct WindowPlan
{
    size_t first = 0;          //!< first evaluated record
    size_t last = 0;           //!< one past the last evaluated record
    size_t warmFirst = 0;      //!< first warm-up record
    uint64_t instrBefore = 0;  //!< instructions in [0, first)
    const BranchPredictor *prototype = nullptr;
};

std::vector<WindowPlan>
planWindows(const BranchRecord *records, size_t count,
            uint64_t windowRecords, uint64_t warmupRecords)
{
    whisper_assert(windowRecords > 0);
    std::vector<WindowPlan> plans;
    uint64_t instr = 0;
    for (size_t first = 0; first < count;
         first += windowRecords) {
        WindowPlan plan;
        plan.first = first;
        plan.last = std::min<size_t>(count, first + windowRecords);
        plan.warmFirst = warmupRecords == ShardedRunConfig::kFullPrefix
            ? 0
            : first - std::min<size_t>(first, warmupRecords);
        plan.instrBefore = instr;
        instr += instructionSpan(records, plan.first, plan.last);
        plans.push_back(plan);
    }
    return plans;
}

/** Warm a clone then evaluate its window, mirroring runPredictor's
 * per-record accounting bit for bit. Both phases drive the clone
 * through predictMany() — one virtual call per kBatchRecords instead
 * of three per record — and write misprediction bytes into the
 * calling worker's @p miss buffer (kBatchRecords bytes, reused
 * across that worker's windows). */
PredictorRunStats
evaluateWindow(const BranchRecord *records, const WindowPlan &plan,
               uint64_t warmupLimit, uint8_t *miss,
               ShardTiming &timing)
{
    auto pred = plan.prototype->clone();
    whisper_assert(pred != nullptr,
                   "predictor returned a null clone");

    auto warmStart = Clock::now();
    // Warm-up is the same per-record work minus statistics, so the
    // misprediction bytes are simply ignored.
    for (size_t i = plan.warmFirst; i < plan.first;
         i += kBatchRecords) {
        size_t n = std::min(kBatchRecords, plan.first - i);
        pred->predictMany(records + i, n, miss);
    }
    timing.warmSeconds = secondsSince(warmStart);
    timing.warmRecords = plan.first - plan.warmFirst;

    auto evalStart = Clock::now();
    PredictorRunStats stats;
    uint64_t seenInstructions = plan.instrBefore;
    for (size_t i = plan.first; i < plan.last; i += kBatchRecords) {
        size_t n = std::min(kBatchRecords, plan.last - i);
        pred->predictMany(records + i, n, miss);
        for (size_t k = 0; k < n; ++k) {
            const BranchRecord &rec = records[i + k];
            seenInstructions +=
                static_cast<uint64_t>(rec.instGap) + 1;
            bool counting = seenInstructions > warmupLimit;

            if (counting) {
                if (rec.isConditional()) {
                    ++stats.conditionals;
                    stats.mispredicts += miss[k];
                }
                stats.instructions +=
                    static_cast<uint64_t>(rec.instGap) + 1;
            } else {
                stats.warmupInstructions +=
                    static_cast<uint64_t>(rec.instGap) + 1;
            }
        }
    }
    timing.evalSeconds = secondsSince(evalStart);
    timing.firstRecord = plan.first;
    timing.records = plan.last - plan.first;
    return stats;
}

/** Run the window plans on a work-stealing pool and merge the
 * per-window results in window order. */
std::pair<std::vector<PredictorRunStats>, ShardedRunTiming>
runPlans(const BranchRecord *records,
         const std::vector<WindowPlan> &plans, uint64_t warmupLimit,
         unsigned jobs)
{
    std::vector<PredictorRunStats> perWindow(plans.size());
    ShardedRunTiming timing;
    timing.perShard.resize(plans.size());
    timing.jobs = resolveJobs(jobs, plans.size());

    auto wallStart = Clock::now();
    std::atomic<size_t> cursor{0};
    auto workerLoop = [&](unsigned workerId) {
        // Worker-owned misprediction bytes, reused across this
        // worker's windows; never shared, so no synchronization.
        std::vector<uint8_t> miss(kBatchRecords);
        for (;;) {
            size_t w = cursor.fetch_add(1);
            if (w >= plans.size())
                return;
            ShardTiming &t = timing.perShard[w];
            t.window = w;
            t.worker = workerId;
            perWindow[w] = evaluateWindow(records, plans[w],
                                          warmupLimit, miss.data(), t);
        }
    };

    if (timing.jobs <= 1) {
        workerLoop(0);
    } else {
        std::vector<std::thread> workers;
        workers.reserve(timing.jobs);
        for (unsigned i = 0; i < timing.jobs; ++i)
            workers.emplace_back(workerLoop, i);
        for (auto &t : workers)
            t.join();
    }
    timing.wallSeconds = secondsSince(wallStart);
    return {std::move(perWindow), std::move(timing)};
}

PredictorRunStats
mergeWindowStats(const std::vector<PredictorRunStats> &perWindow)
{
    PredictorRunStats total;
    for (const auto &w : perWindow) {
        total.instructions += w.instructions;
        total.conditionals += w.conditionals;
        total.mispredicts += w.mispredicts;
        total.warmupInstructions += w.warmupInstructions;
    }
    return total;
}

} // namespace

ShardedRunStats
runPredictorSharded(const BranchRecord *records, size_t count,
                    const BranchPredictor &prototype,
                    const ShardedRunConfig &cfg)
{
    whisper_assert(cfg.statsWarmupFraction >= 0.0 &&
                   cfg.statsWarmupFraction < 1.0);

    ShardedRunStats out;
    if (count == 0)
        return out;

    auto plans = planWindows(records, count, cfg.windowRecords,
                             cfg.warmupRecords);
    for (auto &plan : plans)
        plan.prototype = &prototype;

    // Same warm-up threshold the serial runner derives from its
    // counting pre-pass: a fraction of the whole stream's
    // instructions.
    uint64_t totalInstructions =
        plans.back().instrBefore +
        instructionSpan(records, plans.back().first,
                        plans.back().last);
    uint64_t warmupLimit = static_cast<uint64_t>(
        cfg.statsWarmupFraction * totalInstructions);

    auto [perWindow, timing] =
        runPlans(records, plans, warmupLimit, cfg.jobs);
    out.perWindow = std::move(perWindow);
    out.timing = std::move(timing);
    out.total = mergeWindowStats(out.perWindow);
    return out;
}

ShardedRunStats
runPredictorSharded(const BranchTrace &trace,
                    const BranchPredictor &prototype,
                    const ShardedRunConfig &cfg)
{
    if (trace.empty())
        return ShardedRunStats{};
    return runPredictorSharded(&trace[0], trace.size(), prototype,
                               cfg);
}

ShardedRunStats
runPredictorSharded(const std::vector<BranchRecord> &records,
                    const BranchPredictor &prototype,
                    const ShardedRunConfig &cfg)
{
    return runPredictorSharded(records.data(), records.size(),
                               prototype, cfg);
}

AdaptiveShardedRunStats
runPredictorAdaptiveSharded(
    const BranchRecord *records, size_t count,
    BranchPredictor &initial, uint64_t recordsPerEpoch,
    const std::function<BranchPredictor *(uint64_t nextEpoch)>
        &refresh,
    const ShardedRunConfig &cfg)
{
    whisper_assert(recordsPerEpoch > 0);

    AdaptiveShardedRunStats out;
    if (count == 0)
        return out;

    auto plans = planWindows(records, count, recordsPerEpoch,
                             cfg.warmupRecords);

    // Serial assignment pass: consult refresh at every completed
    // epoch boundary with exactly the serial runner's arguments and
    // snapshot (clone) the predictor each epoch evaluates with. The
    // pool below reconstructs the snapshot's warm state by prefix
    // replay instead of inheriting it from the previous epoch.
    std::vector<std::unique_ptr<BranchPredictor>> protos;
    protos.reserve(plans.size());
    BranchPredictor *current = &initial;
    for (size_t e = 0; e < plans.size(); ++e) {
        protos.push_back(current->clone());
        plans[e].prototype = protos.back().get();
        bool complete =
            plans[e].last - plans[e].first == recordsPerEpoch;
        if (complete && refresh) {
            BranchPredictor *next =
                refresh(static_cast<uint64_t>(e) + 1);
            if (next && next != current) {
                current = next;
                ++out.stats.predictorSwaps;
            }
        }
    }

    // The adaptive runner counts every record (no stats warm-up).
    auto [perWindow, timing] = runPlans(records, plans, 0, cfg.jobs);
    out.timing = std::move(timing);
    out.stats.perEpoch = std::move(perWindow);
    out.stats.total = mergeWindowStats(out.stats.perEpoch);
    return out;
}

AdaptiveShardedRunStats
runPredictorAdaptiveSharded(
    const std::vector<BranchRecord> &records,
    BranchPredictor &initial, uint64_t recordsPerEpoch,
    const std::function<BranchPredictor *(uint64_t nextEpoch)>
        &refresh,
    const ShardedRunConfig &cfg)
{
    return runPredictorAdaptiveSharded(records.data(),
                                       records.size(), initial,
                                       recordsPerEpoch, refresh,
                                       cfg);
}

} // namespace whisper
