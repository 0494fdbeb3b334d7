/**
 * @file
 * whisperd's TCP front end: an epoll event loop speaking the
 * CRC-framed wire protocol, with backpressure instead of buffering.
 *
 * Design rules, in order:
 *
 *  1. The event loop never blocks on the service. Chunks are handed
 *     to the sink through a non-blocking offer; a full tenant queue
 *     turns into an explicit RETRY_AFTER frame to the client — the
 *     server process never accumulates unbounded ingest state on
 *     behalf of a slow trainer.
 *  2. Ingest is idempotent. Every chunk carries an (app, stream,
 *     seq) identity; the server remembers the next expected sequence
 *     per stream and answers retransmissions of already accepted
 *     chunks with a duplicate-ack instead of ingesting them twice.
 *     An acknowledged chunk is therefore never double-counted, and
 *     an unacknowledged one is always safe to retransmit. The
 *     per-stream state is recorded only when the sink accepts a
 *     chunk (rejected apps leave no trace) and is bounded by
 *     maxTrackedStreams via two-generation rotation: the oldest
 *     half is dropped when the bound is hit, which at worst turns a
 *     very stale retransmission into a re-ingest — the same safe
 *     direction as a server restart losing the table entirely.
 *  3. Hint distribution is cheap when nothing changed. PULL_BUNDLE
 *     carries the client's cached epoch; when it matches the
 *     deployed epoch the reply is a 24-byte BUNDLE_UNCHANGED (one
 *     compare server-side) instead of a re-encoded bundle.
 *  4. Byzantine peers cost one connection, not the server. Hostile
 *     lengths and bad magic close the connection; CRC failures drop
 *     the frame and tell the sender; a writer that stalls mid-frame
 *     longer than the idle timeout is reaped (slow-loris guard); a
 *     reader that stops draining its socket is closed once bytes
 *     queued *behind* the frame currently being delivered exceed
 *     the cap (the in-flight frame itself is exempt, so a single
 *     large bundle — up to kMaxPayload — is always deliverable), or
 *     once it makes no read progress for the idle timeout while
 *     output is pending.
 *
 * The deterministic fault harness reaches into the loop through
 * FaultInjector (`restart-listener`): tearing down the listener and
 * every connection mid-load exercises client reconnect/retransmit.
 */

#ifndef WHISPER_NET_WIRE_SERVER_HH
#define WHISPER_NET_WIRE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/wire_protocol.hh"
#include "service/hint_store.hh"
#include "service/trace_stream.hh"

namespace whisper
{

struct WireServerConfig
{
    std::string bindAddress = "127.0.0.1";
    uint16_t port = 0;          //!< 0 = ephemeral (see boundPort())
    uint32_t retryAfterMs = 25; //!< backpressure hint to clients
    /** A connection with a partial frame older than this (or that
     * never completed HELLO) is reaped — the slow-loris guard. */
    uint32_t idleTimeoutMs = 10'000;
    size_t maxConnections = 1024;
    /** Per-connection outbound cap on bytes queued behind the frame
     * currently being delivered; a reader that stops draining its
     * socket is closed past this. The in-flight frame is exempt so
     * a bundle larger than the cap stays deliverable. */
    size_t maxSendBuffer = 8u << 20;
    /** Upper bound on retained (app, stream) idempotency entries;
     * the oldest half rotates out past this, so a hostile client
     * inventing stream names cannot grow server memory without
     * bound. */
    size_t maxTrackedStreams = 8192;
    bool verbose = false;
};

/** Monotonic event-loop counters (readable from any thread). */
struct WireServerStats
{
    uint64_t connectionsAccepted = 0;
    uint64_t connectionsClosed = 0;
    uint64_t framesReceived = 0;
    uint64_t chunksAccepted = 0;
    uint64_t recordsAccepted = 0;
    uint64_t duplicateChunks = 0;
    uint64_t retryAfterSent = 0;
    uint64_t badCrcFrames = 0;
    uint64_t badStreamCloses = 0; //!< bad magic / hostile length
    uint64_t slowLorisCloses = 0;
    uint64_t slowReaderCloses = 0;
    uint64_t bundlesSent = 0;
    uint64_t bundlesUnchanged = 0;
    uint64_t errorsSent = 0;
    uint64_t unknownAppChunks = 0;
    uint64_t listenerRestarts = 0;
    uint64_t streamsTracked = 0; //!< live idempotency entries (gauge)
};

/** The TCP front end. One instance per whisperd process. */
class WireServer
{
  public:
    using ChunkSink = std::function<ChunkSinkResult(TraceChunk)>;
    /** nullopt = unknown app; a null snapshot = nothing deployed. */
    using BundleProvider =
        std::function<std::optional<HintStore::Snapshot>(
            const std::string &app)>;

    WireServer(const WireServerConfig &cfg, ChunkSink sink,
               BundleProvider bundles);
    ~WireServer();

    WireServer(const WireServer &) = delete;
    WireServer &operator=(const WireServer &) = delete;

    /** Bind + listen + spawn the event thread. @return false (with
     * @p error filled) when the socket could not be set up. */
    bool start(std::string *error = nullptr);

    /** Stop accepting, close every connection, join the loop.
     * Idempotent. The sink is never called after stop() returns. */
    void stop();

    bool running() const { return running_.load(); }
    /** Actual bound port (after start(); useful with port = 0). */
    uint16_t boundPort() const { return boundPort_; }

    WireServerStats stats() const;

  private:
    struct Connection;

    void eventLoop();
    bool openListener(std::string *error);
    void closeListener();
    void restartListener();
    void acceptReady();
    void readReady(Connection &conn);
    void writeReady(Connection &conn);
    void handleFrame(Connection &conn, const WireFrame &frame);
    void handleIngest(Connection &conn, const WireFrame &frame);
    void handlePull(Connection &conn, const WireFrame &frame);
    /** @return false when the send closed (destroyed) @p conn — the
     * caller must not touch the connection afterwards. */
    bool sendFrame(Connection &conn, WireOp op,
                   const std::vector<unsigned char> &payload);
    /** @return false when the send closed (destroyed) @p conn. */
    bool sendError(Connection &conn, WireError code,
                   const std::string &message);
    /** Next expected sequence for @p streamKey, or nullptr if the
     * stream is untracked (either generation). */
    const uint64_t *findNextSeq(const std::string &streamKey) const;
    /** Record @p next for @p streamKey in the current generation,
     * rotating the generations at the maxTrackedStreams bound. */
    void storeNextSeq(const std::string &streamKey, uint64_t next);
    void closeConnection(int fd);
    void sweepStalledConnections();
    void updateEpollOut(Connection &conn);

    WireServerConfig cfg_;
    ChunkSink sink_;
    BundleProvider bundles_;

    int epollFd_ = -1;
    int listenFd_ = -1;
    int wakeupFd_ = -1; //!< stop()/start() handshake (eventfd)
    uint16_t boundPort_ = 0;

    std::thread thread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopRequested_{false};

    std::map<int, std::unique_ptr<Connection>> connections_;
    /** Next expected sequence per (app, stream) — the idempotency /
     * resume state, split into two generations so it stays bounded
     * (see findNextSeq/storeNextSeq). Only the event thread touches
     * them. */
    std::map<std::string, uint64_t> nextSeqCur_;
    std::map<std::string, uint64_t> nextSeqPrev_;

    // Counters are atomics so stats() is callable mid-run.
    struct AtomicStats
    {
        std::atomic<uint64_t> connectionsAccepted{0};
        std::atomic<uint64_t> connectionsClosed{0};
        std::atomic<uint64_t> framesReceived{0};
        std::atomic<uint64_t> chunksAccepted{0};
        std::atomic<uint64_t> recordsAccepted{0};
        std::atomic<uint64_t> duplicateChunks{0};
        std::atomic<uint64_t> retryAfterSent{0};
        std::atomic<uint64_t> badCrcFrames{0};
        std::atomic<uint64_t> badStreamCloses{0};
        std::atomic<uint64_t> slowLorisCloses{0};
        std::atomic<uint64_t> slowReaderCloses{0};
        std::atomic<uint64_t> bundlesSent{0};
        std::atomic<uint64_t> bundlesUnchanged{0};
        std::atomic<uint64_t> errorsSent{0};
        std::atomic<uint64_t> unknownAppChunks{0};
        std::atomic<uint64_t> listenerRestarts{0};
        std::atomic<uint64_t> streamsTracked{0};
    } stats_;
};

} // namespace whisper

#endif // WHISPER_NET_WIRE_SERVER_HH
