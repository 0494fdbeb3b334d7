/**
 * @file
 * Deterministic fault injection for whisperd's recovery paths.
 *
 * Every fault-tolerance mechanism in the service — CRC-framed chunk
 * skipping, read retry/backoff, journal torn-write repair, training
 * supervision with requeue and degradation — is exercised by tests
 * and the demo script through this harness rather than hoped for.
 * A fault spec is a comma-separated token list installed process-wide
 * (e.g. via `whisperd --fault-spec`):
 *
 *   flip-chunks[=P]       corrupt every P-th trace frame read by the
 *                         .whrt reader, starting with the first
 *                         (P<1 is treated as a rate: P=1/rate).
 *                         Default P=100 (~1% of frames).
 *   fail-read[=N]         the first N frame reads fail transiently
 *                         (exercises bounded retry/backoff). Default 2.
 *
 * The two read faults apply to every .whrt read in the process:
 * TraceStreamReader (src/trace/trace_reader.hh) is the only .whrt
 * parser, so strict BranchTrace::load calls see them too, and a
 * flipped frame makes a strict load fail as corrupt.
 *   truncate-journal[=N]  the N-th journal append (1-based) is torn:
 *                         only half the record reaches the file.
 *                         Default 2.
 *   stall-worker[=MS]     the first training worker to claim a
 *                         task (whichever it is) stalls MS
 *                         milliseconds on it. Default 400.
 *   kill-worker           the first training worker to claim a
 *                         task (whichever it is) dies right after
 *                         claiming it. Supervised pools only.
 *   fail-train[=IDX:N]    training of work item IDX throws on its
 *                         first N attempts (N large = always, which
 *                         degrades the branch). Default 0:1000000.
 *   seed=N                RNG seed for bit-flip positions.
 *
 * Wire-layer faults (client side, applied to the FIRST transmission
 * attempt of every P-th chunk so a retransmission always makes
 * progress; see src/net/):
 *
 *   wire-corrupt[=P]      flip one payload byte after the CRC is
 *                         computed (server detects the mismatch and
 *                         answers ERROR(BadCrc); the client must
 *                         retransmit). Default P=8.
 *   wire-tear[=P]         send only half the frame, then hard-close
 *                         the socket (mid-frame connection kill seen
 *                         by the server as a torn stream). Default 16.
 *   wire-kill[=P]         send the whole frame, then close before
 *                         reading the ack (exercises idempotent
 *                         duplicate-ack on retransmit). Default 16.
 *   wire-stall[=P:MS]     stall MS milliseconds between the header
 *                         and the payload bytes (slow-loris writer;
 *                         a stall beyond the server's idle timeout
 *                         gets the connection reaped). Default 32:50.
 *   restart-listener[=N]  server side: after the N-th ingested chunk
 *                         the listener and every connection are torn
 *                         down and re-opened once (clients must
 *                         reconnect and retransmit). Default 8.
 *
 * All decisions are deterministic functions of the spec plus
 * event counters, so a failing run replays exactly.
 */

#ifndef WHISPER_UTIL_FAULT_INJECTION_HH
#define WHISPER_UTIL_FAULT_INJECTION_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace whisper
{

/** Process-wide deterministic fault injector. Disabled (all hooks
 * no-ops) until configure() installs a non-empty spec. */
class FaultInjector
{
  public:
    static FaultInjector &instance();

    /** Install @p spec ("" disables). @return false and fill
     * @p error on an unknown token or malformed value. */
    bool configure(const std::string &spec,
                   std::string *error = nullptr);
    /** Remove all faults and zero the counters. */
    void reset();

    bool enabled() const { return enabled_; }

    // ---- hooks (called from production code paths) ----

    /** Trace-frame payload just read from disk; may flip bits in
     * place. @return true when the frame was corrupted. */
    bool corruptFrame(void *data, size_t bytes);

    /** @return true to simulate a transient read error (the caller
     * should back off and retry). */
    bool failRead();

    /** What should happen to journal append number @p appendIndex
     * (0-based): Full = write everything, Torn = stop half-way. */
    enum class WritePlan
    {
        Full,
        Torn
    };
    WritePlan journalWritePlan(uint64_t appendIndex);

    /** Stall hook called after every task claim: the first caller
     * after stall-worker is armed sleeps inline. */
    void maybeStallWorker();

    /** @return true for the first caller after kill-worker is armed:
     * the training worker that just claimed a task should die. */
    bool shouldKillWorker();

    /** @return true when the @p attempt-th (1-based) attempt at work
     * item @p taskIndex should fail. */
    bool failTraining(size_t taskIndex, unsigned attempt);

    // ---- wire-layer hooks (see src/net/) ----

    /** What the client should do to the frame it is about to send.
     * Only first attempts (@p attempt == 1) are ever faulted; the
     * per-token periods advance on first attempts only, so the
     * decision is a deterministic function of the send index. */
    enum class WireSendPlan
    {
        Normal,
        CorruptPayload, //!< flip a payload byte after CRC
        TearAndDrop,    //!< send half the frame, close the socket
        KillAfterSend,  //!< send fully, close before the ack
        StallMidFrame,  //!< sleep wireStallMs() mid-frame
    };
    WireSendPlan wireSendPlan(unsigned attempt);
    uint64_t wireStallMs() const { return wireStallMs_; }

    /** Called by the server once per accepted chunk; @return true
     * exactly once, when the restart-listener threshold is hit. */
    bool shouldRestartListener();

    // ---- observability ----
    uint64_t framesCorrupted() const { return framesCorrupted_; }
    uint64_t readsFailed() const { return readsFailed_; }
    uint64_t writesTorn() const { return writesTorn_; }
    uint64_t workerStalls() const { return workerStalls_; }
    uint64_t workerKills() const { return workerKills_; }
    uint64_t trainFailures() const { return trainFailures_; }
    uint64_t wireFramesCorrupted() const { return wireCorrupted_; }
    uint64_t wireFramesTorn() const { return wireTorn_; }
    uint64_t wireConnKills() const { return wireKills_; }
    uint64_t wireStalls() const { return wireStalled_; }
    uint64_t listenerRestarts() const { return listenerRestarts_; }

  private:
    FaultInjector() = default;

    bool enabled_ = false;

    // flip-chunks
    bool flipChunks_ = false;
    uint64_t flipPeriod_ = 100;
    uint64_t flipSeed_ = 0x77486973ULL; // "wHis"
    std::atomic<uint64_t> framesSeen_{0};

    // fail-read
    uint64_t failReads_ = 0;
    std::atomic<uint64_t> readsAttempted_{0};

    // truncate-journal
    uint64_t tornAppend_ = 0; //!< 1-based; 0 = disabled

    // stall-worker
    bool stallEnabled_ = false;
    uint64_t stallMs_ = 400;
    std::atomic<bool> stallDone_{false};

    // kill-worker
    bool killEnabled_ = false;
    std::atomic<bool> killDone_{false};

    // fail-train
    bool failTrainEnabled_ = false;
    size_t failTrainIndex_ = 0;
    unsigned failTrainAttempts_ = 1'000'000;

    // wire faults (periods advance on first-attempt sends only)
    uint64_t wireCorruptPeriod_ = 0; //!< 0 = disabled
    uint64_t wireTearPeriod_ = 0;
    uint64_t wireKillPeriod_ = 0;
    uint64_t wireStallPeriod_ = 0;
    uint64_t wireStallMs_ = 50;
    std::atomic<uint64_t> wireSends_{0};
    uint64_t listenerRestartAfter_ = 0; //!< chunks; 0 = disabled
    std::atomic<uint64_t> listenerChunks_{0};
    std::atomic<bool> listenerRestartDone_{false};

    std::atomic<uint64_t> framesCorrupted_{0};
    std::atomic<uint64_t> readsFailed_{0};
    std::atomic<uint64_t> writesTorn_{0};
    std::atomic<uint64_t> workerStalls_{0};
    std::atomic<uint64_t> workerKills_{0};
    std::atomic<uint64_t> trainFailures_{0};
    std::atomic<uint64_t> wireCorrupted_{0};
    std::atomic<uint64_t> wireTorn_{0};
    std::atomic<uint64_t> wireKills_{0};
    std::atomic<uint64_t> wireStalled_{0};
    std::atomic<uint64_t> listenerRestarts_{0};
};

} // namespace whisper

#endif // WHISPER_UTIL_FAULT_INJECTION_HH
