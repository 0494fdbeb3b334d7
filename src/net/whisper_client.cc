#include "net/whisper_client.hh"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/fault_injection.hh"

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

/** SplitMix64 step for deterministic backoff jitter. */
uint64_t
nextRand(uint64_t &state)
{
    uint64_t x = (state += 0x9E3779B97F4A7C15ULL);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** A nonce that differs across process incarnations: the server
 * remembers next-expected sequences per stream, so a restarted agent
 * replaying seq 0 under its predecessor's stream identity would draw
 * silent duplicate-acks for every chunk. */
uint64_t
incarnationNonce()
{
    std::random_device rd;
    uint64_t state = (static_cast<uint64_t>(rd()) << 32) ^ rd();
    state ^= static_cast<uint64_t>(::getpid()) << 48;
    state ^= steadyMs();
    uint64_t nonce = nextRand(state);
    return nonce ? nonce : 1;
}

} // namespace

WhisperClient::WhisperClient(WhisperClientConfig cfg)
    : cfg_(std::move(cfg)), jitterState_(cfg_.jitterSeed * 2 + 1)
{
    uint64_t nonce = cfg_.incarnation ? cfg_.incarnation
                                      : incarnationNonce();
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(nonce));
    wireStream_ = cfg_.stream + "#" + hex;
}

WhisperClient::~WhisperClient() { disconnect(); }

void
WhisperClient::disconnect()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    parser_ = FrameParser(); // a torn stream dies with its socket
}

bool
WhisperClient::ensureConnected()
{
    if (fd_ >= 0)
        return true;

    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        lastError_ = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg_.port);
    if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) !=
        1) {
        lastError_ = "bad host '" + cfg_.host + "'";
        disconnect();
        return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        lastError_ =
            std::string("connect: ") + std::strerror(errno);
        disconnect();
        return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{};
    tv.tv_sec = cfg_.recvTimeoutMs / 1000;
    tv.tv_usec =
        static_cast<long>(cfg_.recvTimeoutMs % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    stats_.reconnects += 1;
    // Announce the protocol version without waiting: the reply
    // (HELLO_OK, or ERROR(BadVersion) from a server on another
    // version) comes ahead of the first answer, and recvUntil() skips
    // the one and fails permanently on the other.
    HelloMsg hello;
    hello.client = wireStream_;
    std::vector<unsigned char> frame =
        encodeFrame(WireOp::Hello, encodeHello(hello));
    if (!sendAll(frame.data(), frame.size())) {
        disconnect();
        return false;
    }
    return true;
}

bool
WhisperClient::sendAll(const unsigned char *data, size_t n)
{
    size_t sent = 0;
    while (sent < n) {
        ssize_t w =
            ::send(fd_, data + sent, n - sent, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<size_t>(w);
    }
    return true;
}

bool
WhisperClient::sendFrameFaulted(
    const std::vector<unsigned char> &frame, unsigned attempt)
{
    FaultInjector &fi = FaultInjector::instance();
    switch (fi.wireSendPlan(attempt)) {
    case FaultInjector::WireSendPlan::Normal:
        return sendAll(frame.data(), frame.size());
    case FaultInjector::WireSendPlan::CorruptPayload: {
        // Flip one payload byte after the CRC was computed; the
        // receiver must detect and reject the frame.
        std::vector<unsigned char> bad = frame;
        if (bad.size() > WireFrame::kHeaderBytes)
            bad[WireFrame::kHeaderBytes] ^= 0x20;
        return sendAll(bad.data(), bad.size());
    }
    case FaultInjector::WireSendPlan::TearAndDrop:
        // Half a frame, then a hard close: the server sees a torn
        // stream (stalled partial frame) on this connection.
        sendAll(frame.data(), frame.size() / 2);
        disconnect();
        return false;
    case FaultInjector::WireSendPlan::KillAfterSend:
        // Deliver the whole frame but never read the ack: the
        // retransmission must draw a duplicate-ack.
        sendAll(frame.data(), frame.size());
        disconnect();
        return false;
    case FaultInjector::WireSendPlan::StallMidFrame: {
        // Slow-loris writer: header, a long pause, then the rest.
        size_t head =
            std::min<size_t>(WireFrame::kHeaderBytes, frame.size());
        if (!sendAll(frame.data(), head))
            return false;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(fi.wireStallMs()));
        return sendAll(frame.data() + head, frame.size() - head);
    }
    }
    return false;
}

WhisperClient::RecvOutcome
WhisperClient::recvUntil(WireOp op, WireOp op2, WireFrame &out,
                         uint32_t &waitMs)
{
    uint64_t deadline = steadyMs() + cfg_.recvTimeoutMs;
    for (;;) {
        // Drain parsed frames first.
        for (;;) {
            WireFrame frame;
            FrameParser::Result r = parser_.next(frame);
            if (r == FrameParser::Result::NeedMore)
                break;
            if (r == FrameParser::Result::BadCrc) {
                // A damaged reply; the request outcome is unknown,
                // so treat as transient and retransmit.
                disconnect();
                return RecvOutcome::Transient;
            }
            if (r != FrameParser::Result::Frame) {
                disconnect();
                return RecvOutcome::Transient;
            }
            if (frame.op == op || frame.op == op2) {
                out = std::move(frame);
                return RecvOutcome::Got;
            }
            if (frame.op == WireOp::RetryAfter) {
                RetryAfterMsg retry;
                if (decodeRetryAfter(frame.payload, retry)) {
                    waitMs = retry.waitMs;
                    return RecvOutcome::RetryAfter;
                }
                disconnect();
                return RecvOutcome::Transient;
            }
            if (frame.op == WireOp::Error) {
                ErrorMsg err;
                if (!decodeError(frame.payload, err)) {
                    disconnect();
                    return RecvOutcome::Transient;
                }
                if (err.code == WireError::BadCrc) {
                    // Our frame arrived damaged; retransmit.
                    stats_.crcRejects += 1;
                    return RecvOutcome::Transient;
                }
                if (err.code == WireError::ShuttingDown) {
                    disconnect();
                    return RecvOutcome::Transient;
                }
                lastError_ = err.message.empty()
                                 ? "server error"
                                 : err.message;
                return RecvOutcome::Permanent;
            }
            // Unsolicited frame (e.g. stale HELLO_OK) — skip it.
        }

        if (steadyMs() >= deadline) {
            stats_.timeouts += 1;
            disconnect();
            return RecvOutcome::Transient;
        }
        unsigned char buf[64 * 1024];
        ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n > 0) {
            parser_.feed(buf, static_cast<size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                      errno == EINTR)) {
            // SO_RCVTIMEO tick; loop to check the deadline.
            continue;
        }
        disconnect(); // EOF or hard error
        return RecvOutcome::Transient;
    }
}

void
WhisperClient::backoff(unsigned attempt, uint32_t serverWaitMs)
{
    uint64_t wait;
    if (serverWaitMs > 0) {
        wait = serverWaitMs; // server knows its queue; trust it
    } else {
        uint64_t base = cfg_.initialBackoffMs;
        for (unsigned i = 1; i < attempt && base < cfg_.maxBackoffMs;
             ++i)
            base *= 2;
        if (base > cfg_.maxBackoffMs)
            base = cfg_.maxBackoffMs;
        // Deterministic jitter desynchronizes agent herds without
        // making failing runs unreproducible.
        wait = base / 2 + nextRand(jitterState_) % (base / 2 + 1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(wait));
}

bool
WhisperClient::ingestChunk(const std::string &app, uint32_t inputId,
                           const std::vector<BranchRecord> &records)
{
    AppState &state = apps_[app];
    const uint64_t seq = state.nextSeq;
    std::vector<unsigned char> frame = encodeFrame(
        WireOp::IngestChunk,
        encodeIngestChunk(app, wireStream_, inputId, seq, records));

    for (unsigned attempt = 1; attempt <= cfg_.maxAttempts;
         ++attempt) {
        if (attempt > 1)
            stats_.retries += 1;
        if (!ensureConnected()) {
            backoff(attempt, 0);
            continue;
        }
        if (!sendFrameFaulted(frame, attempt)) {
            backoff(attempt, 0);
            continue;
        }
        WireFrame reply;
        uint32_t waitMs = 0;
        switch (recvUntil(WireOp::ChunkAck, WireOp::ChunkAck, reply,
                          waitMs)) {
        case RecvOutcome::Got: {
            ChunkAckMsg ack;
            if (!decodeChunkAck(reply.payload, ack) ||
                ack.seq != seq) {
                disconnect();
                backoff(attempt, 0);
                continue;
            }
            if (ack.status == ChunkAckMsg::kDuplicate)
                stats_.duplicateAcks += 1;
            stats_.chunksAcked += 1;
            state.nextSeq = seq + 1;
            return true;
        }
        case RecvOutcome::RetryAfter:
            stats_.retryAfters += 1;
            backoff(attempt, waitMs);
            continue;
        case RecvOutcome::Transient:
            backoff(attempt, 0);
            continue;
        case RecvOutcome::Permanent:
            return false;
        }
    }
    lastError_ = "chunk " + std::to_string(seq) + " for '" +
                 app + "': retries exhausted";
    return false;
}

std::optional<VersionedHintBundle>
WhisperClient::pullBundle(const std::string &app)
{
    AppState &state = apps_[app];
    PullBundleMsg msg;
    msg.app = app;
    // A cold cache must never collide with a real epoch (0 = nothing
    // deployed is itself cacheable), so it sends an impossible one.
    msg.cachedEpoch =
        state.haveCached ? state.cachedEpoch : ~uint64_t{0};
    std::vector<unsigned char> frame =
        encodeFrame(WireOp::PullBundle, encodePullBundle(msg));

    for (unsigned attempt = 1; attempt <= cfg_.maxAttempts;
         ++attempt) {
        if (!ensureConnected() ||
            !sendAll(frame.data(), frame.size())) {
            backoff(attempt, 0);
            continue;
        }
        stats_.bundlePulls += 1;
        WireFrame reply;
        uint32_t waitMs = 0;
        switch (recvUntil(WireOp::Bundle, WireOp::BundleUnchanged,
                          reply, waitMs)) {
        case RecvOutcome::Got: {
            if (reply.op == WireOp::BundleUnchanged) {
                uint64_t epoch = 0;
                if (state.haveCached &&
                    decodeBundleUnchanged(reply.payload, epoch) &&
                    epoch == state.cachedEpoch) {
                    stats_.bundleHits += 1;
                    return state.cached;
                }
                // Unchanged against an epoch we do not hold —
                // protocol confusion; reconnect and re-pull.
                disconnect();
                backoff(attempt, 0);
                continue;
            }
            VersionedHintBundle bundle;
            if (!decodeVersionedBundle(bundle, reply.payload.data(),
                                       reply.payload.size())) {
                disconnect();
                backoff(attempt, 0);
                continue;
            }
            state.cachedEpoch = bundle.epoch;
            state.cached = bundle;
            state.haveCached = true;
            return bundle;
        }
        case RecvOutcome::RetryAfter:
            backoff(attempt, waitMs);
            continue;
        case RecvOutcome::Permanent:
            return std::nullopt;
        case RecvOutcome::Transient:
            backoff(attempt, 0);
            continue;
        }
    }
    lastError_ = "pull for '" + app + "': retries exhausted";
    return std::nullopt;
}

uint64_t
WhisperClient::nextSeq(const std::string &app) const
{
    auto it = apps_.find(app);
    return it == apps_.end() ? 0 : it->second.nextSeq;
}

} // namespace whisper
