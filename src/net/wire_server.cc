#include "net/wire_server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/fault_injection.hh"
#include "util/logging.hh"

namespace whisper
{

namespace
{

uint64_t
steadyMs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

bool
setNonBlocking(int fd)
{
    int flags = fcntl(fd, F_GETFL, 0);
    return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

} // namespace

struct WireServer::Connection
{
    int fd = -1;
    FrameParser parser;
    std::vector<unsigned char> out; //!< unsent outbound bytes
    size_t outPos = 0;              //!< sent prefix of `out`
    /** Unsent byte counts of the queued frames, oldest first. The
     * front entry is the frame currently being delivered; the send
     * cap applies only to the bytes queued behind it. */
    std::deque<size_t> outFrames;
    bool wantWrite = false;      //!< EPOLLOUT currently armed
    bool doomed = false;         //!< close once `out` drains
    uint64_t lastActivityMs = 0; //!< last byte received or sent

    size_t pendingOut() const { return out.size() - outPos; }

    /** Bytes queued behind the frame currently being delivered —
     * what the slow-reader cap is measured against. */
    size_t
    backlogBehindCurrentFrame() const
    {
        return outFrames.empty() ? 0
                                 : pendingOut() - outFrames.front();
    }

    /** Account @p n freshly sent bytes against the frame queue. */
    void
    drainFrames(size_t n)
    {
        while (n > 0 && !outFrames.empty()) {
            size_t step = std::min(outFrames.front(), n);
            outFrames.front() -= step;
            n -= step;
            if (outFrames.front() == 0)
                outFrames.pop_front();
        }
    }
};

WireServer::WireServer(const WireServerConfig &cfg, ChunkSink sink,
                       BundleProvider bundles)
    : cfg_(cfg), sink_(std::move(sink)), bundles_(std::move(bundles))
{
}

WireServer::~WireServer() { stop(); }

bool
WireServer::openListener(std::string *error)
{
    auto fail = [&](const std::string &what) {
        if (error)
            *error = what + ": " + std::strerror(errno);
        if (listenFd_ >= 0) {
            ::close(listenFd_);
            listenFd_ = -1;
        }
        return false;
    };

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return fail("socket");
    int one = 1;
    // REUSEADDR so a restarted listener (fault injection, kill -9 +
    // respawn) can rebind the same port while old sockets linger.
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(boundPort_ ? boundPort_ : cfg_.port);
    if (::inet_pton(AF_INET, cfg_.bindAddress.c_str(),
                    &addr.sin_addr) != 1) {
        errno = EINVAL;
        return fail("inet_pton(" + cfg_.bindAddress + ")");
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return fail("bind");
    if (::listen(listenFd_, 128) != 0)
        return fail("listen");
    if (!setNonBlocking(listenFd_))
        return fail("fcntl(listener)");

    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        return fail("getsockname");
    boundPort_ = ntohs(addr.sin_port);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listenFd_;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev) != 0)
        return fail("epoll_ctl(listener)");
    return true;
}

void
WireServer::closeListener()
{
    if (listenFd_ < 0)
        return;
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
    ::close(listenFd_);
    listenFd_ = -1;
}

void
WireServer::restartListener()
{
    stats_.listenerRestarts.fetch_add(1);
    if (cfg_.verbose)
        whisper_warn("wire-server: fault-injected listener restart "
                     "(port ",
                     boundPort_, ")");
    closeListener();
    while (!connections_.empty())
        closeConnection(connections_.begin()->first);
    std::string error;
    // boundPort_ is already pinned, so the reopen reuses the port the
    // clients know. Failure here leaves the server connection-less
    // until stop(); loopback rebinding with SO_REUSEADDR does not
    // fail in practice.
    if (!openListener(&error))
        whisper_warn("wire-server: listener reopen failed: ", error);
}

bool
WireServer::start(std::string *error)
{
    if (running_.load())
        return true;
    stopRequested_.store(false);

    epollFd_ = ::epoll_create1(0);
    if (epollFd_ < 0) {
        if (error)
            *error = std::string("epoll_create1: ") +
                     std::strerror(errno);
        return false;
    }
    wakeupFd_ = ::eventfd(0, EFD_NONBLOCK);
    if (wakeupFd_ < 0) {
        if (error)
            *error =
                std::string("eventfd: ") + std::strerror(errno);
        ::close(epollFd_);
        epollFd_ = -1;
        return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wakeupFd_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeupFd_, &ev);

    boundPort_ = 0; // resolve from cfg_.port on this open
    if (!openListener(error)) {
        ::close(wakeupFd_);
        ::close(epollFd_);
        wakeupFd_ = epollFd_ = -1;
        return false;
    }

    running_.store(true);
    thread_ = std::thread([this] { eventLoop(); });
    return true;
}

void
WireServer::stop()
{
    if (!running_.load() && !thread_.joinable())
        return;
    stopRequested_.store(true);
    if (wakeupFd_ >= 0) {
        uint64_t one = 1;
        [[maybe_unused]] ssize_t n =
            ::write(wakeupFd_, &one, sizeof(one));
    }
    if (thread_.joinable())
        thread_.join();
    // The wakeup/epoll fds are closed here, after the join — never
    // on the loop thread — so this write can't race their close.
    if (wakeupFd_ >= 0) {
        ::close(wakeupFd_);
        wakeupFd_ = -1;
    }
    if (epollFd_ >= 0) {
        ::close(epollFd_);
        epollFd_ = -1;
    }
    running_.store(false);
}

void
WireServer::eventLoop()
{
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];

    while (!stopRequested_.load()) {
        // Wake at least every 250 ms for the slow-loris sweep.
        int n = ::epoll_wait(epollFd_, events, kMaxEvents, 250);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (int i = 0; i < n && !stopRequested_.load(); ++i) {
            int fd = events[i].data.fd;
            if (fd == wakeupFd_) {
                uint64_t drain = 0;
                [[maybe_unused]] ssize_t r =
                    ::read(wakeupFd_, &drain, sizeof(drain));
                continue;
            }
            if (fd == listenFd_) {
                acceptReady();
                continue;
            }
            auto it = connections_.find(fd);
            if (it == connections_.end())
                continue; // closed earlier in this batch
            Connection &conn = *it->second;
            if (events[i].events & (EPOLLHUP | EPOLLERR)) {
                closeConnection(fd);
                continue;
            }
            if (events[i].events & EPOLLIN)
                readReady(conn);
            // readReady may have closed the connection.
            auto again = connections_.find(fd);
            if (again != connections_.end() &&
                (events[i].events & EPOLLOUT))
                writeReady(*again->second);
        }
        sweepStalledConnections();
    }

    // Teardown of the sockets happens on the loop thread so no
    // connection fd is touched concurrently; the wakeup/epoll fds
    // are left for stop() to close after the join, because stop()
    // may still be writing the wakeup eventfd while we exit.
    closeListener();
    while (!connections_.empty())
        closeConnection(connections_.begin()->first);
    running_.store(false);
}

void
WireServer::acceptReady()
{
    for (;;) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            return; // EAGAIN or transient — nothing more to accept
        if (connections_.size() >= cfg_.maxConnections ||
            !setNonBlocking(fd)) {
            ::close(fd);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        conn->lastActivityMs = steadyMs();
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
            ::close(fd);
            continue;
        }
        connections_.emplace(fd, std::move(conn));
        stats_.connectionsAccepted.fetch_add(1);
    }
}

void
WireServer::readReady(Connection &conn)
{
    // Anything below that sends a reply can close — and thereby
    // destroy — `conn` (send error, slow-reader cap, fault-injected
    // listener restart). Liveness is always re-checked through this
    // captured fd, never through the reference.
    const int fd = conn.fd;

    unsigned char buf[64 * 1024];
    for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n > 0) {
            conn.lastActivityMs = steadyMs();
            conn.parser.feed(buf, static_cast<size_t>(n));
            if (static_cast<size_t>(n) < sizeof(buf))
                break;
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        closeConnection(fd); // EOF or hard error
        return;
    }

    for (;;) {
        WireFrame frame;
        FrameParser::Result r = conn.parser.next(frame);
        if (r == FrameParser::Result::NeedMore)
            break;
        if (r == FrameParser::Result::BadCrc) {
            stats_.badCrcFrames.fetch_add(1);
            if (!sendError(conn, WireError::BadCrc,
                           "payload crc mismatch"))
                return; // the reply closed the connection
            continue; // framing is intact; keep the connection
        }
        if (r != FrameParser::Result::Frame) {
            // BadMagic / TooLarge: the byte stream is broken.
            stats_.badStreamCloses.fetch_add(1);
            closeConnection(fd);
            return;
        }
        stats_.framesReceived.fetch_add(1);
        handleFrame(conn, frame);
        if (connections_.find(fd) == connections_.end())
            return; // handleFrame closed it
    }
}

void
WireServer::handleFrame(Connection &conn, const WireFrame &frame)
{
    switch (frame.op) {
    case WireOp::Hello: {
        HelloMsg hello;
        if (!decodeHello(frame.payload, hello)) {
            sendError(conn, WireError::BadFrame, "bad HELLO");
            return;
        }
        if (hello.version != kWireProtocolVersion) {
            if (sendError(conn, WireError::BadVersion,
                          "unsupported protocol version"))
                conn.doomed = true; // close once the error drains
            return;
        }
        HelloMsg ok;
        ok.client = "whisperd";
        sendFrame(conn, WireOp::HelloOk, encodeHelloOk(ok));
        return;
    }
    case WireOp::IngestChunk:
        handleIngest(conn, frame);
        return;
    case WireOp::PullBundle:
        handlePull(conn, frame);
        return;
    default:
        sendError(conn, WireError::BadFrame,
                  "unexpected opcode " +
                      std::to_string(static_cast<uint32_t>(
                          frame.op)));
        return;
    }
}

void
WireServer::handleIngest(Connection &conn, const WireFrame &frame)
{
    IngestChunkMsg msg;
    if (!decodeIngestChunk(frame.payload, msg)) {
        sendError(conn, WireError::BadFrame, "bad INGEST_CHUNK");
        return;
    }

    std::string streamKey = msg.app;
    streamKey.push_back('\0');
    streamKey += msg.stream;

    // Idempotency: anything below the next expected sequence was
    // already ingested — a retransmission after a lost ack. Anything
    // at or above it is new (gaps can only mean this server restarted
    // or rotated the stream out of its bounded table; the chunk
    // itself was never ingested, so accepting it is the safe
    // direction). The lookup is read-only: state is recorded only
    // once the sink accepts, so rejected apps leave no trace.
    const uint64_t *nextSeq = findNextSeq(streamKey);
    if (nextSeq && msg.seq < *nextSeq) {
        stats_.duplicateChunks.fetch_add(1);
        ChunkAckMsg ack;
        ack.seq = msg.seq;
        ack.status = ChunkAckMsg::kDuplicate;
        sendFrame(conn, WireOp::ChunkAck, encodeChunkAck(ack));
        return;
    }

    TraceChunk chunk;
    chunk.app = msg.app;
    chunk.inputId = msg.inputId;
    chunk.records = std::move(msg.records);
    size_t recordCount = chunk.records.size();

    ChunkSinkResult result = sink_(std::move(chunk));
    switch (result) {
    case ChunkSinkResult::Accepted: {
        storeNextSeq(streamKey, msg.seq + 1);
        stats_.chunksAccepted.fetch_add(1);
        stats_.recordsAccepted.fetch_add(recordCount);
        ChunkAckMsg ack;
        ack.seq = msg.seq;
        ack.status = ChunkAckMsg::kAccepted;
        sendFrame(conn, WireOp::ChunkAck, encodeChunkAck(ack));
        if (FaultInjector::instance().shouldRestartListener())
            restartListener();
        return;
    }
    case ChunkSinkResult::Backpressure: {
        stats_.retryAfterSent.fetch_add(1);
        RetryAfterMsg retry;
        retry.seq = msg.seq;
        retry.waitMs = cfg_.retryAfterMs;
        sendFrame(conn, WireOp::RetryAfter,
                  encodeRetryAfter(retry));
        return;
    }
    case ChunkSinkResult::UnknownApp:
        stats_.unknownAppChunks.fetch_add(1);
        sendError(conn, WireError::UnknownApp,
                  "unknown app '" + msg.app + "'");
        return;
    }
}

void
WireServer::handlePull(Connection &conn, const WireFrame &frame)
{
    PullBundleMsg msg;
    if (!decodePullBundle(frame.payload, msg)) {
        sendError(conn, WireError::BadFrame, "bad PULL_BUNDLE");
        return;
    }
    std::optional<HintStore::Snapshot> snap = bundles_(msg.app);
    if (!snap) {
        sendError(conn, WireError::UnknownApp,
                  "unknown app '" + msg.app + "'");
        return;
    }
    uint64_t epoch = *snap ? (*snap)->epoch : 0;
    if (epoch == msg.cachedEpoch) {
        // Unchanged epoch = one compare; no bundle re-encode.
        stats_.bundlesUnchanged.fetch_add(1);
        sendFrame(conn, WireOp::BundleUnchanged,
                  encodeBundleUnchanged(epoch));
        return;
    }
    VersionedHintBundle empty;
    const VersionedHintBundle &bundle = *snap ? **snap : empty;
    stats_.bundlesSent.fetch_add(1);
    sendFrame(conn, WireOp::Bundle, encodeVersionedBundle(bundle));
}

const uint64_t *
WireServer::findNextSeq(const std::string &streamKey) const
{
    auto it = nextSeqCur_.find(streamKey);
    if (it != nextSeqCur_.end())
        return &it->second;
    it = nextSeqPrev_.find(streamKey);
    if (it != nextSeqPrev_.end())
        return &it->second;
    return nullptr;
}

void
WireServer::storeNextSeq(const std::string &streamKey, uint64_t next)
{
    auto it = nextSeqCur_.find(streamKey);
    if (it != nextSeqCur_.end()) {
        it->second = next;
        return;
    }
    // Two-generation rotation: each generation holds at most half
    // the bound, so live total never exceeds maxTrackedStreams and
    // an active stream survives at least one full rotation before
    // it can be forgotten.
    size_t half = std::max<size_t>(1, cfg_.maxTrackedStreams / 2);
    if (nextSeqCur_.size() >= half) {
        nextSeqPrev_ = std::move(nextSeqCur_);
        nextSeqCur_.clear();
    }
    nextSeqCur_[streamKey] = next;
    nextSeqPrev_.erase(streamKey); // the current generation shadows it
    stats_.streamsTracked.store(nextSeqCur_.size() +
                                nextSeqPrev_.size());
}

bool
WireServer::sendError(Connection &conn, WireError code,
                      const std::string &message)
{
    stats_.errorsSent.fetch_add(1);
    ErrorMsg msg;
    msg.code = code;
    msg.message = message;
    return sendFrame(conn, WireOp::Error, encodeError(msg));
}

bool
WireServer::sendFrame(Connection &conn, WireOp op,
                      const std::vector<unsigned char> &payload)
{
    std::vector<unsigned char> frame = encodeFrame(op, payload);
    const int fd = conn.fd;

    // Fast path: nothing queued, try a direct send.
    size_t sent = 0;
    if (conn.pendingOut() == 0) {
        ssize_t n =
            ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
        if (n >= 0)
            sent = static_cast<size_t>(n);
        else if (errno != EAGAIN && errno != EWOULDBLOCK) {
            closeConnection(fd);
            return false;
        }
    }
    if (sent == frame.size())
        return true;

    // Slow-reader cap, measured against the bytes queued behind the
    // frame currently being delivered: the in-flight frame itself is
    // exempt, so one bundle larger than the cap (legal up to
    // kMaxPayload) still drains over multiple EPOLLOUT rounds
    // instead of tripping the close on its first send.
    if (conn.backlogBehindCurrentFrame() > cfg_.maxSendBuffer) {
        stats_.slowReaderCloses.fetch_add(1);
        closeConnection(fd);
        return false;
    }

    // Compact the drained prefix before appending.
    if (conn.outPos > 0) {
        conn.out.erase(conn.out.begin(),
                       conn.out.begin() +
                           static_cast<ptrdiff_t>(conn.outPos));
        conn.outPos = 0;
    }
    conn.out.insert(conn.out.end(), frame.begin() + sent,
                    frame.end());
    conn.outFrames.push_back(frame.size() - sent);
    updateEpollOut(conn);
    return true;
}

void
WireServer::writeReady(Connection &conn)
{
    while (conn.pendingOut() > 0) {
        ssize_t n = ::send(conn.fd, conn.out.data() + conn.outPos,
                           conn.pendingOut(), MSG_NOSIGNAL);
        if (n > 0) {
            conn.outPos += static_cast<size_t>(n);
            conn.drainFrames(static_cast<size_t>(n));
            // Draining counts as liveness: a reader slowly working
            // through a large bundle is progressing, not stalled.
            conn.lastActivityMs = steadyMs();
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        closeConnection(conn.fd);
        return;
    }
    if (conn.pendingOut() == 0) {
        conn.out.clear();
        conn.outPos = 0;
        conn.outFrames.clear();
        if (conn.doomed) {
            closeConnection(conn.fd);
            return;
        }
        updateEpollOut(conn);
    }
}

void
WireServer::updateEpollOut(Connection &conn)
{
    bool want = conn.pendingOut() > 0;
    if (want == conn.wantWrite)
        return;
    conn.wantWrite = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.fd = conn.fd;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void
WireServer::sweepStalledConnections()
{
    if (cfg_.idleTimeoutMs == 0)
        return;
    uint64_t now = steadyMs();
    std::vector<int> stalledWriters;
    std::vector<int> stalledReaders;
    for (auto &[fd, conn] : connections_) {
        // Only connections holding a partial frame hostage or
        // sitting on undrained output are reaped — an idle but
        // frame-aligned connection with nothing pending is a
        // healthy keep-alive client between pulls.
        if (now - conn->lastActivityMs <= cfg_.idleTimeoutMs)
            continue;
        if (conn->parser.buffered() > 0)
            stalledWriters.push_back(fd);
        else if (conn->pendingOut() > 0)
            stalledReaders.push_back(fd);
    }
    for (int fd : stalledWriters) {
        stats_.slowLorisCloses.fetch_add(1);
        closeConnection(fd);
    }
    for (int fd : stalledReaders) {
        stats_.slowReaderCloses.fetch_add(1);
        closeConnection(fd);
    }
}

void
WireServer::closeConnection(int fd)
{
    auto it = connections_.find(fd);
    if (it == connections_.end())
        return;
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    connections_.erase(it);
    stats_.connectionsClosed.fetch_add(1);
}

WireServerStats
WireServer::stats() const
{
    WireServerStats out;
    out.connectionsAccepted = stats_.connectionsAccepted.load();
    out.connectionsClosed = stats_.connectionsClosed.load();
    out.framesReceived = stats_.framesReceived.load();
    out.chunksAccepted = stats_.chunksAccepted.load();
    out.recordsAccepted = stats_.recordsAccepted.load();
    out.duplicateChunks = stats_.duplicateChunks.load();
    out.retryAfterSent = stats_.retryAfterSent.load();
    out.badCrcFrames = stats_.badCrcFrames.load();
    out.badStreamCloses = stats_.badStreamCloses.load();
    out.slowLorisCloses = stats_.slowLorisCloses.load();
    out.slowReaderCloses = stats_.slowReaderCloses.load();
    out.bundlesSent = stats_.bundlesSent.load();
    out.bundlesUnchanged = stats_.bundlesUnchanged.load();
    out.errorsSent = stats_.errorsSent.load();
    out.unknownAppChunks = stats_.unknownAppChunks.load();
    out.listenerRestarts = stats_.listenerRestarts.load();
    out.streamsTracked = stats_.streamsTracked.load();
    return out;
}

} // namespace whisper
