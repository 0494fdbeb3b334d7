#include "service/training_pool.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/fault_injection.hh"
#include "util/logging.hh"

namespace whisper
{

namespace
{

int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Per-branch task lifecycle, driven by atomic transitions so the
 * supervisor can reclaim a task out from under a dead worker. */
enum TaskState : int
{
    kPending = 0,
    kRunning = 1,
    kDone = 2,
    kDegraded = 3,
};

struct Task
{
    std::atomic<int> state{kPending};
    std::atomic<unsigned> attempts{0};
    std::atomic<int64_t> claimedAtMs{0};
};

} // namespace

TrainingPool::TrainingPool(unsigned workers)
{
    options_.workers = workers == 0 ? 1 : workers;
}

TrainingPool::TrainingPool(const TrainingPoolOptions &options)
    : options_(options)
{
    if (options_.workers == 0)
        options_.workers = 1;
    if (options_.maxAttempts == 0)
        options_.maxAttempts = 1;
}

std::vector<TrainedHint>
TrainingPool::train(const WhisperTrainer &trainer,
                    const BranchProfile &profile,
                    const std::vector<TrainedHint> *warmSeeds,
                    TrainingStats *stats) const
{
    auto start = std::chrono::steady_clock::now();
    std::vector<TrainingTask> work = trainer.workList(profile, warmSeeds);
    // A degraded branch keeps an empty slot: no hint, default outcome.
    std::vector<TrainingTaskResult> slots(work.size());
    std::vector<Task> tasks(work.size());

    std::mutex mtx;
    std::condition_variable cv;
    std::deque<size_t> ready;
    for (size_t i = 0; i < work.size(); ++i)
        ready.push_back(i);
    std::atomic<size_t> unresolved{work.size()};
    std::atomic<unsigned> aliveWorkers{0};

    std::atomic<uint64_t> tasksRequeued{0};
    std::atomic<uint64_t> taskFailures{0};
    std::atomic<uint64_t> branchesDegraded{0};
    std::atomic<uint64_t> workersDied{0};

    const bool supervised = options_.taskDeadlineMs > 0;

    auto resolve = [&]() {
        if (unresolved.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lock(mtx);
            cv.notify_all();
        }
    };

    // Push a claimed-but-unfinished task back onto the ready queue
    // (worker stuck/dead, or a retriable failure).
    auto requeue = [&](size_t i, std::atomic<uint64_t> *counter) {
        int expected = kRunning;
        if (tasks[i].state.compare_exchange_strong(expected,
                                                   kPending)) {
            if (counter)
                counter->fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(mtx);
            ready.push_back(i);
            cv.notify_one();
        }
    };

    auto degrade = [&](size_t i, int fromState) {
        int expected = fromState;
        if (tasks[i].state.compare_exchange_strong(expected,
                                                   kDegraded)) {
            branchesDegraded.fetch_add(1, std::memory_order_relaxed);
            whisper_warn("training pool: degrading branch 0x",
                         std::hex, work[i].entry->pc, std::dec,
                         " to baseline after repeated failures");
            resolve();
        }
    };

    auto runWorker = [&] {
        for (;;) {
            size_t i;
            {
                std::unique_lock<std::mutex> lock(mtx);
                cv.wait(lock, [&] {
                    return !ready.empty() ||
                           unresolved.load(
                               std::memory_order_acquire) == 0;
                });
                if (ready.empty())
                    break; // all tasks resolved
                i = ready.front();
                ready.pop_front();
            }

            int expected = kPending;
            if (!tasks[i].state.compare_exchange_strong(expected,
                                                        kRunning)) {
                // Stale ready entry for a task someone else already
                // finished or degraded; drop it.
                continue;
            }
            unsigned attempt =
                tasks[i].attempts.fetch_add(
                    1, std::memory_order_relaxed) +
                1;
            if (attempt > options_.maxAttempts) {
                degrade(i, kRunning);
                continue;
            }
            tasks[i].claimedAtMs.store(nowMs(),
                                       std::memory_order_relaxed);

            FaultInjector::instance().maybeStallWorker();
            // Only die when a supervisor exists to reclaim our task;
            // without one the injected fault would deadlock the pool
            // instead of exercising recovery.
            if (supervised &&
                FaultInjector::instance().shouldKillWorker()) {
                workersDied.fetch_add(1, std::memory_order_relaxed);
                break;
            }

            TrainingTaskResult result;
            bool failed = false;
            try {
                if (FaultInjector::instance().failTraining(i,
                                                           attempt)) {
                    throw std::runtime_error(
                        "injected training failure");
                }
                result = trainer.trainTask(work[i], profile.lengths());
            } catch (const std::exception &e) {
                failed = true;
                taskFailures.fetch_add(1, std::memory_order_relaxed);
                whisper_warn("training pool: branch 0x", std::hex,
                             work[i].entry->pc, std::dec, " attempt ",
                             attempt, " failed: ", e.what());
            }

            if (failed) {
                if (attempt >= options_.maxAttempts)
                    degrade(i, kRunning);
                else
                    requeue(i, nullptr); // counted as taskFailure
                continue;
            }

            // Accept the completion even if the supervisor requeued
            // the task mid-training (it assumed we were dead, but we
            // were merely slow) or a rival worker re-claimed it: CAS
            // from any non-terminal state. kDone is terminal, so
            // exactly one completion wins and writes the slot — and
            // trainTask is deterministic, so any winner produces
            // identical bytes.
            int state = tasks[i].state.load(std::memory_order_acquire);
            while (state == kRunning || state == kPending) {
                if (tasks[i].state.compare_exchange_weak(state,
                                                         kDone)) {
                    slots[i] = std::move(result);
                    resolve();
                    break;
                }
            }
        }
        aliveWorkers.fetch_sub(1, std::memory_order_acq_rel);
        std::lock_guard<std::mutex> lock(mtx);
        cv.notify_all();
    };

    unsigned spawned = static_cast<unsigned>(std::min<size_t>(
        options_.workers, work.size() ? work.size() : 1));
    aliveWorkers.store(spawned, std::memory_order_relaxed);

    std::thread supervisorThread;
    if (supervised) {
        supervisorThread = std::thread([&] {
            while (unresolved.load(std::memory_order_acquire) > 0) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(
                        options_.superviseIntervalMs));
                int64_t now = nowMs();
                for (size_t i = 0; i < tasks.size(); ++i) {
                    if (tasks[i].state.load(
                            std::memory_order_acquire) != kRunning)
                        continue;
                    int64_t claimed = tasks[i].claimedAtMs.load(
                        std::memory_order_relaxed);
                    if (now - claimed <
                        static_cast<int64_t>(
                            options_.taskDeadlineMs))
                        continue;
                    // Past deadline: the worker holding this task is
                    // stuck or dead. Reclaim it for a live worker.
                    requeue(i, &tasksRequeued);
                }
                if (aliveWorkers.load(std::memory_order_acquire) ==
                        0 &&
                    unresolved.load(std::memory_order_acquire) > 0) {
                    // Every worker died. Nothing will ever claim the
                    // remaining tasks: degrade them all so the epoch
                    // completes on the baseline predictor instead of
                    // hanging the service.
                    for (size_t i = 0; i < tasks.size(); ++i) {
                        degrade(i, kPending);
                        degrade(i, kRunning);
                    }
                }
            }
        });
    }

    if (spawned <= 1 && !supervised) {
        runWorker();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(spawned);
        for (unsigned w = 0; w < spawned; ++w)
            threads.emplace_back(runWorker);
        for (auto &t : threads)
            t.join();
    }
    if (supervisorThread.joinable())
        supervisorThread.join();

    supervision_.tasksRequeued = tasksRequeued.load();
    supervision_.taskFailures = taskFailures.load();
    supervision_.branchesDegraded = branchesDegraded.load();
    supervision_.workersDied = workersDied.load();

    return WhisperTrainer::assemble(slots, start, stats);
}

} // namespace whisper
