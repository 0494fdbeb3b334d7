/**
 * @file
 * Wire-protocol and server tests (`ctest -R net.`): frame codec
 * round-trips, incremental parsing under adversarial framing (split
 * feeds, bad magic, hostile lengths, corrupt CRCs), and the loopback
 * server/client contract — ack/duplicate idempotency, RETRY_AFTER
 * backpressure, retransmission under injected wire faults, epoch-
 * cached bundle pulls, slow-loris reaping, listener restart, prompt
 * shutdown, and the tenant router's ingest counters behind the
 * server.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/whisper_client.hh"
#include "net/wire_protocol.hh"
#include "net/wire_server.hh"
#include "record_image.hh"
#include "service/tenant_router.hh"
#include "sim/experiment.hh"
#include "trace/branch_trace.hh"
#include "util/crc32.hh"
#include "util/fault_injection.hh"
#include "workloads/app_workload.hh"

using namespace whisper;

namespace
{

/** Clears any installed fault spec around each test — the injector
 * is a process-wide singleton shared by client and server. */
class NetTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }
};

std::vector<BranchRecord>
someRecords(uint64_t count, uint32_t inputId = 0)
{
    AppWorkload workload(appByName("kafka"), inputId, count);
    std::vector<BranchRecord> records;
    records.reserve(count);
    BranchRecord rec;
    while (workload.next(rec))
        records.push_back(rec);
    return records;
}

VersionedHintBundle
makeBundle(uint64_t epoch, size_t hints)
{
    VersionedHintBundle v;
    v.epoch = epoch;
    v.validationAccuracy = 0.9;
    for (size_t i = 0; i < hints; ++i) {
        TrainedHint h;
        h.pc = 0x400000 + 16 * (epoch * 100 + i);
        h.hint.pcPointer = BrHint::pcPointerFor(h.pc);
        h.hint.formula =
            static_cast<uint16_t>((i + epoch) % (1u << 14));
        h.historyLength = 64;
        v.bundle.hints.push_back(h);
    }
    return v;
}

/** A deterministic in-memory sink standing in for the tenant
 * router: scriptable verdicts, thread-safe capture. */
struct ScriptedSink
{
    std::mutex mutex;
    std::vector<TraceChunk> accepted;
    /** Upcoming verdicts; empty = Accepted forever. */
    std::vector<ChunkSinkResult> script;

    WireServer::ChunkSink
    fn()
    {
        return [this](TraceChunk chunk) {
            std::lock_guard<std::mutex> lock(mutex);
            ChunkSinkResult verdict = ChunkSinkResult::Accepted;
            if (!script.empty()) {
                verdict = script.front();
                script.erase(script.begin());
            }
            if (verdict == ChunkSinkResult::Accepted)
                accepted.push_back(std::move(chunk));
            return verdict;
        };
    }

    size_t
    acceptedCount()
    {
        std::lock_guard<std::mutex> lock(mutex);
        return accepted.size();
    }
};

/** Bundle provider for a single known app with a mutable epoch. */
struct OneAppBundles
{
    std::string app;
    std::mutex mutex;
    HintStore::Snapshot snap;

    void
    deploy(uint64_t epoch, size_t hints)
    {
        auto bundle = std::make_shared<VersionedHintBundle>(
            makeBundle(epoch, hints));
        std::lock_guard<std::mutex> lock(mutex);
        snap = std::move(bundle);
    }

    WireServer::BundleProvider
    fn()
    {
        return [this](const std::string &name)
                   -> std::optional<HintStore::Snapshot> {
            if (name != app)
                return std::nullopt;
            std::lock_guard<std::mutex> lock(mutex);
            return snap;
        };
    }
};

WhisperClientConfig
clientConfig(uint16_t port, const std::string &stream = "t")
{
    WhisperClientConfig cfg;
    cfg.port = port;
    cfg.stream = stream;
    cfg.recvTimeoutMs = 2'000;
    cfg.initialBackoffMs = 1;
    cfg.maxBackoffMs = 20;
    return cfg;
}

/** Raw TCP connection for byte-level protocol tests. */
class RawConn
{
  public:
    explicit RawConn(uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~RawConn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool connected() const { return fd_ >= 0; }

    bool
    sendBytes(const std::vector<unsigned char> &bytes)
    {
        size_t off = 0;
        while (off < bytes.size()) {
            ssize_t n = ::send(fd_, bytes.data() + off,
                               bytes.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            off += static_cast<size_t>(n);
        }
        return true;
    }

    /** Read until one frame parses (or the peer closes / 3s pass).
     * @return false on EOF/timeout. */
    bool
    recvFrame(WireFrame &out)
    {
        timeval tv{3, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        for (;;) {
            if (parser_.next(out) == FrameParser::Result::Frame)
                return true;
            unsigned char buf[4096];
            ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n <= 0)
                return false;
            parser_.feed(buf, static_cast<size_t>(n));
        }
    }

    /** True once the peer has closed the connection (polls up to
     * @p waitMs while discarding any pending replies). */
    bool
    peerClosed(int waitMs)
    {
        timeval tv{0, 100'000};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(waitMs);
        unsigned char buf[256];
        while (std::chrono::steady_clock::now() < deadline) {
            ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n == 0)
                return true;
            if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)
                return true;
        }
        return false;
    }

  private:
    int fd_ = -1;
    FrameParser parser_;
};

struct ServerHarness
{
    ScriptedSink sink;
    OneAppBundles bundles;
    std::unique_ptr<WireServer> server;

    explicit ServerHarness(const std::string &app = "kafka",
                           WireServerConfig cfg = {})
    {
        bundles.app = app;
        server = std::make_unique<WireServer>(cfg, sink.fn(),
                                              bundles.fn());
        std::string error;
        EXPECT_TRUE(server->start(&error)) << error;
    }
    ~ServerHarness()
    {
        if (server)
            server->stop();
    }
    uint16_t port() const { return server->boundPort(); }
};

} // namespace

// ---- frame codec -------------------------------------------------

TEST(WireCodec, FrameRoundTripsThroughParser)
{
    IngestChunkMsg msg;
    msg.app = "kafka";
    msg.stream = "agent7";
    msg.inputId = 3;
    msg.seq = 42;
    msg.records = someRecords(100);

    std::vector<unsigned char> wire =
        encodeFrame(WireOp::IngestChunk, encodeIngestChunk(msg));

    FrameParser parser;
    parser.feed(wire.data(), wire.size());
    WireFrame frame;
    ASSERT_EQ(parser.next(frame), FrameParser::Result::Frame);
    EXPECT_EQ(frame.op, WireOp::IngestChunk);

    IngestChunkMsg back;
    ASSERT_TRUE(decodeIngestChunk(frame.payload, back));
    EXPECT_EQ(back.app, msg.app);
    EXPECT_EQ(back.stream, msg.stream);
    EXPECT_EQ(back.inputId, msg.inputId);
    EXPECT_EQ(back.seq, msg.seq);
    EXPECT_EQ(test::imageOf(back.records), test::imageOf(msg.records));
    EXPECT_EQ(parser.next(frame), FrameParser::Result::NeedMore);
    EXPECT_EQ(parser.buffered(), 0u);
}

TEST(WireCodec, AllControlMessagesRoundTrip)
{
    ChunkAckMsg ack{};
    ack.seq = 9;
    ack.status = ChunkAckMsg::kDuplicate;
    ChunkAckMsg ack2;
    ASSERT_TRUE(decodeChunkAck(encodeChunkAck(ack), ack2));
    EXPECT_EQ(ack2.seq, 9u);
    EXPECT_EQ(ack2.status, ChunkAckMsg::kDuplicate);

    RetryAfterMsg retry{};
    retry.seq = 5;
    retry.waitMs = 75;
    RetryAfterMsg retry2;
    ASSERT_TRUE(decodeRetryAfter(encodeRetryAfter(retry), retry2));
    EXPECT_EQ(retry2.seq, 5u);
    EXPECT_EQ(retry2.waitMs, 75u);

    PullBundleMsg pull;
    pull.app = "nginx";
    pull.cachedEpoch = 12;
    PullBundleMsg pull2;
    ASSERT_TRUE(decodePullBundle(encodePullBundle(pull), pull2));
    EXPECT_EQ(pull2.app, "nginx");
    EXPECT_EQ(pull2.cachedEpoch, 12u);

    uint64_t epoch = 0;
    ASSERT_TRUE(decodeBundleUnchanged(encodeBundleUnchanged(33),
                                      epoch));
    EXPECT_EQ(epoch, 33u);

    ErrorMsg err;
    err.code = WireError::ShuttingDown;
    err.message = "draining";
    ErrorMsg err2;
    ASSERT_TRUE(decodeError(encodeError(err), err2));
    EXPECT_EQ(err2.code, WireError::ShuttingDown);
    EXPECT_EQ(err2.message, "draining");

    HelloMsg hello;
    hello.client = "loadgen";
    HelloMsg hello2;
    ASSERT_TRUE(decodeHello(encodeHello(hello), hello2));
    EXPECT_EQ(hello2.version, kWireProtocolVersion);
    EXPECT_EQ(hello2.client, "loadgen");
}

TEST(WireCodec, ParserReassemblesBytewiseFeeds)
{
    // Three frames delivered one byte at a time — worst-case
    // fragmentation — must come out identical and in order.
    std::vector<unsigned char> wire;
    for (uint64_t seq = 0; seq < 3; ++seq) {
        ChunkAckMsg ack{};
        ack.seq = seq;
        auto f = encodeFrame(WireOp::ChunkAck, encodeChunkAck(ack));
        wire.insert(wire.end(), f.begin(), f.end());
    }
    FrameParser parser;
    uint64_t expect = 0;
    for (unsigned char byte : wire) {
        parser.feed(&byte, 1);
        WireFrame frame;
        while (parser.next(frame) == FrameParser::Result::Frame) {
            ChunkAckMsg ack;
            ASSERT_TRUE(decodeChunkAck(frame.payload, ack));
            EXPECT_EQ(ack.seq, expect++);
        }
    }
    EXPECT_EQ(expect, 3u);
}

TEST(WireCodec, BadMagicIsUnrecoverable)
{
    auto wire = encodeFrame(WireOp::ChunkAck,
                            encodeChunkAck(ChunkAckMsg{}));
    wire[0] ^= 0xFF;
    FrameParser parser;
    parser.feed(wire.data(), wire.size());
    WireFrame frame;
    EXPECT_EQ(parser.next(frame), FrameParser::Result::BadMagic);
}

TEST(WireCodec, HostileLengthNeverAllocates)
{
    // A 4 GiB length field must be rejected from the 16 header
    // bytes alone, not honored with an allocation.
    std::vector<unsigned char> header(WireFrame::kHeaderBytes, 0);
    uint32_t magic = WireFrame::kMagic;
    uint32_t op = static_cast<uint32_t>(WireOp::IngestChunk);
    uint32_t length = 0xFFFFFFFFu;
    std::memcpy(header.data(), &magic, 4);
    std::memcpy(header.data() + 4, &op, 4);
    std::memcpy(header.data() + 8, &length, 4);
    FrameParser parser;
    parser.feed(header.data(), header.size());
    WireFrame frame;
    EXPECT_EQ(parser.next(frame), FrameParser::Result::TooLarge);
}

TEST(WireCodec, CorruptCrcConsumesOnlyThatFrame)
{
    ChunkAckMsg ack{};
    ack.seq = 1;
    auto bad = encodeFrame(WireOp::ChunkAck, encodeChunkAck(ack));
    bad.back() ^= 0x01; // flip one payload bit after the CRC was set
    ack.seq = 2;
    auto good = encodeFrame(WireOp::ChunkAck, encodeChunkAck(ack));

    FrameParser parser;
    parser.feed(bad.data(), bad.size());
    parser.feed(good.data(), good.size());
    WireFrame frame;
    EXPECT_EQ(parser.next(frame), FrameParser::Result::BadCrc);
    ASSERT_EQ(parser.next(frame), FrameParser::Result::Frame);
    ChunkAckMsg out;
    ASSERT_TRUE(decodeChunkAck(frame.payload, out));
    EXPECT_EQ(out.seq, 2u); // the good frame survived its neighbor
}

TEST(WireCodec, ReaderOverrunPoisonsNotCrashes)
{
    // A string length pointing past the payload end must fail the
    // decode, not read out of bounds.
    ByteWriter w;
    w.put(uint32_t{4096}); // claims 4096 bytes follow; none do
    auto payload = w.take();
    ByteReader r(payload);
    std::string s;
    EXPECT_FALSE(r.getStr(s));
    EXPECT_EQ(s, "");
    EXPECT_FALSE(r.ok());

    IngestChunkMsg msg;
    EXPECT_FALSE(decodeIngestChunk(payload, msg));
}

TEST(WireCodec, IngestRecordCountMustMatchPayload)
{
    IngestChunkMsg msg;
    msg.app = "kafka";
    msg.stream = "s";
    msg.records = someRecords(8);
    const auto payload = encodeIngestChunk(msg);
    IngestChunkMsg out;
    auto cut = payload;
    cut.pop_back(); // the last record is torn
    EXPECT_FALSE(decodeIngestChunk(cut, out));
    // The count (after app "kafka", stream "s", inputId and seq) one
    // off either way.
    const size_t countAt = 4 + 5 + 4 + 1 + 4 + 8;
    for (uint32_t count : {7u, 9u}) {
        auto bad = payload;
        std::memcpy(bad.data() + countAt, &count, sizeof(count));
        EXPECT_FALSE(decodeIngestChunk(bad, out)) << count;
    }
}

TEST(WireCodec, IngestRecordsAreTheTraceFrameBody)
{
    // Garbage in BranchRecord's tail padding never reaches the wire:
    // identical chunks encode to identical bytes, and the record
    // section is the frame payload BranchTrace::save() writes.
    IngestChunkMsg clean;
    clean.app = "kafka";
    clean.stream = "s";
    clean.records = someRecords(50);
    IngestChunkMsg dirty = clean;
    auto *raw = reinterpret_cast<unsigned char *>(dirty.records.data());
    for (size_t i = 0; i < dirty.records.size(); ++i)
        std::memset(raw + i * sizeof(BranchRecord) + 20, 0xAB, 4);

    std::vector<unsigned char> payload = encodeIngestChunk(dirty);
    EXPECT_EQ(payload, encodeIngestChunk(clean));

    BranchTrace trace("kafka", 0);
    for (const BranchRecord &rec : dirty.records)
        trace.append(rec);
    std::string path = "/tmp/whisper_test_wire_frame_body.whrt";
    ASSERT_TRUE(trace.save(path));
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::vector<unsigned char> file(4096);
    file.resize(std::fread(file.data(), 1, file.size(), f));
    std::fclose(f);
    std::remove(path.c_str());

    // Header: app "kafka", stream "s", inputId, seq, count.
    const size_t body = payload.size() - (4 + 5 + 4 + 1 + 4 + 8 + 4);
    ASSERT_GT(file.size(), body);
    EXPECT_TRUE(std::equal(payload.end() - body, payload.end(),
                           file.end() - body, file.end()));
}

TEST(WireCodec, NonCanonicalRecordsAreRejected)
{
    // The decoder accepts only what the encoder produces, so an
    // accepted chunk re-encodes to the bytes it arrived as and never
    // carries a kind out of range. The last record is a reference
    // ending in its one-byte gap.
    IngestChunkMsg msg;
    msg.app = "kafka";
    msg.stream = "s";
    msg.records = someRecords(8);
    msg.records.push_back(msg.records.front());
    msg.records.back().instGap = 5;
    const std::vector<unsigned char> payload = encodeIngestChunk(msg);
    IngestChunkMsg out;
    ASSERT_TRUE(decodeIngestChunk(payload, out));
    EXPECT_EQ(encodeIngestChunk(out), payload);
    ASSERT_EQ(payload.back(), 5);

    std::vector<unsigned char> overlongGap(payload.begin(),
                                           payload.end() - 1);
    overlongGap.push_back(0x85); // gap 5 in two bytes
    overlongGap.push_back(0x00);
    auto trailing = payload;
    trailing.push_back(0x00);
    auto badKind = payload;
    const size_t firstRecord = 4 + 5 + 4 + 1 + 4 + 8 + 4;
    ASSERT_EQ(badKind[firstRecord] & 1, 1); // a new-PC tag
    badKind[firstRecord] |= 7 << 2;
    for (const auto &bad : {overlongGap, trailing, badKind})
        EXPECT_FALSE(decodeIngestChunk(bad, out));
}

// ---- loopback server/client --------------------------------------

TEST_F(NetTest, LoopbackIngestAcksInOrder)
{
    ServerHarness h;
    WhisperClient client(clientConfig(h.port()));

    for (uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(client.nextSeq("kafka"), i);
        ASSERT_TRUE(
            client.ingestChunk("kafka", i, someRecords(64, i)));
    }
    EXPECT_EQ(client.stats().chunksAcked, 4u);
    EXPECT_EQ(client.stats().retries, 0u);
    EXPECT_EQ(h.sink.acceptedCount(), 4u);
    {
        std::lock_guard<std::mutex> lock(h.sink.mutex);
        for (size_t i = 0; i < 4; ++i) {
            EXPECT_EQ(h.sink.accepted[i].app, "kafka");
            EXPECT_EQ(h.sink.accepted[i].inputId, i);
            EXPECT_EQ(h.sink.accepted[i].records.size(), 64u);
        }
    }
    WireServerStats stats = h.server->stats();
    EXPECT_EQ(stats.chunksAccepted, 4u);
    EXPECT_EQ(stats.recordsAccepted, 256u);
    EXPECT_EQ(stats.duplicateChunks, 0u);
}

TEST_F(NetTest, RetransmitOfAckedChunkIsDuplicateNotDoubleIngest)
{
    ServerHarness h;
    auto records = someRecords(32);

    // Two clients sharing one stream identity (name AND pinned
    // incarnation): the second replays the same (app, stream, seq)
    // the first already got acked — exactly what a reconnecting
    // client does when the ack was lost in flight. The server must
    // ack it (the client needs closure) but not ingest it twice.
    auto cfg = clientConfig(h.port(), "shared");
    cfg.incarnation = 42;
    WhisperClient first(cfg);
    ASSERT_TRUE(first.ingestChunk("kafka", 0, records));

    WhisperClient second(cfg);
    EXPECT_EQ(second.wireStream(), first.wireStream());
    ASSERT_TRUE(second.ingestChunk("kafka", 0, records));

    EXPECT_EQ(second.stats().duplicateAcks, 1u);
    EXPECT_EQ(h.sink.acceptedCount(), 1u);
    WireServerStats stats = h.server->stats();
    EXPECT_EQ(stats.chunksAccepted, 1u);
    EXPECT_EQ(stats.duplicateChunks, 1u);
}

TEST_F(NetTest, RestartedClientWithReusedStreamNameIsNotDropped)
{
    ServerHarness h;
    auto records = someRecords(32);

    // Two clients reusing the stream *name* without pinning an
    // incarnation model an agent that restarted: the second one's
    // seq restarts at 0, but its fresh incarnation nonce gives it a
    // fresh sequence space, so its chunks are really ingested — not
    // silently absorbed as duplicate-acks of the dead predecessor.
    WhisperClient before(clientConfig(h.port(), "agent0"));
    ASSERT_TRUE(before.ingestChunk("kafka", 0, records));
    ASSERT_TRUE(before.ingestChunk("kafka", 1, records));

    WhisperClient after(clientConfig(h.port(), "agent0"));
    EXPECT_NE(after.wireStream(), before.wireStream());
    ASSERT_TRUE(after.ingestChunk("kafka", 0, records));

    EXPECT_EQ(after.stats().duplicateAcks, 0u);
    EXPECT_EQ(h.sink.acceptedCount(), 3u);
    WireServerStats stats = h.server->stats();
    EXPECT_EQ(stats.chunksAccepted, 3u);
    EXPECT_EQ(stats.duplicateChunks, 0u);
}

TEST_F(NetTest, BackpressureBecomesRetryAfterNotLoss)
{
    WireServerConfig cfg;
    cfg.retryAfterMs = 10;
    ServerHarness h("kafka", cfg);
    {
        std::lock_guard<std::mutex> lock(h.sink.mutex);
        h.sink.script = {ChunkSinkResult::Backpressure,
                         ChunkSinkResult::Backpressure,
                         ChunkSinkResult::Accepted};
    }
    WhisperClient client(clientConfig(h.port()));
    ASSERT_TRUE(client.ingestChunk("kafka", 0, someRecords(16)));

    EXPECT_EQ(client.stats().retryAfters, 2u);
    EXPECT_GE(client.stats().retries, 2u);
    EXPECT_EQ(h.sink.acceptedCount(), 1u);
    WireServerStats stats = h.server->stats();
    EXPECT_EQ(stats.retryAfterSent, 2u);
    EXPECT_EQ(stats.chunksAccepted, 1u);
}

TEST_F(NetTest, UnknownAppFailsFastAndPermanently)
{
    ServerHarness h;
    {
        std::lock_guard<std::mutex> lock(h.sink.mutex);
        h.sink.script = {ChunkSinkResult::UnknownApp};
    }
    auto cfg = clientConfig(h.port());
    cfg.maxAttempts = 10;
    WhisperClient client(cfg);
    EXPECT_FALSE(client.ingestChunk("nosuch", 0, someRecords(16)));
    // Permanent error: one attempt, no retry storm.
    EXPECT_EQ(client.stats().retries, 0u);
    EXPECT_NE(client.lastError().find("unknown"),
              std::string::npos)
        << client.lastError();
}

TEST_F(NetTest, RejectedIngestLeavesNoStreamState)
{
    ServerHarness h;
    {
        std::lock_guard<std::mutex> lock(h.sink.mutex);
        h.sink.script = {ChunkSinkResult::UnknownApp};
    }
    auto cfg = clientConfig(h.port());
    cfg.maxAttempts = 3;
    WhisperClient client(cfg);
    EXPECT_FALSE(client.ingestChunk("nosuch", 0, someRecords(8)));

    // The hostile-cost model: an ingest the sink rejected must not
    // have grown the per-stream idempotency table.
    EXPECT_EQ(h.server->stats().streamsTracked, 0u);

    ASSERT_TRUE(client.ingestChunk("kafka", 0, someRecords(8)));
    EXPECT_EQ(h.server->stats().streamsTracked, 1u);
}

TEST_F(NetTest, StreamIdempotencyStateIsBounded)
{
    WireServerConfig cfg;
    cfg.maxTrackedStreams = 8;
    ServerHarness h("kafka", cfg);

    // One hostile peer inventing a fresh stream name per chunk: the
    // chunks are all legal (the sink accepts them), but the table
    // must rotate instead of growing one entry per invented name.
    RawConn conn(h.port());
    ASSERT_TRUE(conn.connected());
    auto records = someRecords(4);
    for (int i = 0; i < 64; ++i) {
        IngestChunkMsg msg;
        msg.app = "kafka";
        msg.stream = "invented" + std::to_string(i);
        msg.seq = 0;
        msg.records = records;
        ASSERT_TRUE(conn.sendBytes(encodeFrame(
            WireOp::IngestChunk, encodeIngestChunk(msg))));
        WireFrame ack;
        ASSERT_TRUE(conn.recvFrame(ack)) << "chunk " << i;
        ASSERT_EQ(ack.op, WireOp::ChunkAck);
    }
    WireServerStats stats = h.server->stats();
    EXPECT_EQ(stats.chunksAccepted, 64u);
    EXPECT_LE(stats.streamsTracked, 8u);
    EXPECT_GE(stats.streamsTracked, 1u);
}

TEST_F(NetTest, BundleLargerThanSendBufferCapIsDeliverable)
{
    // A deployed bundle whose frame dwarfs maxSendBuffer must drain
    // over multiple EPOLLOUT rounds — the in-flight frame is exempt
    // from the slow-reader cap, so a client that (legitimately)
    // reads slower than the server writes still gets its bundle
    // instead of a permanent reconnect/re-pull loop.
    WireServerConfig cfg;
    cfg.maxSendBuffer = 64 * 1024;
    ServerHarness h("kafka", cfg);
    h.bundles.deploy(3, 300'000); // several MiB encoded

    RawConn conn(h.port());
    ASSERT_TRUE(conn.connected());
    PullBundleMsg pull;
    pull.app = "kafka";
    pull.cachedEpoch = ~uint64_t{0};
    ASSERT_TRUE(conn.sendBytes(
        encodeFrame(WireOp::PullBundle, encodePullBundle(pull))));
    // Give the server time to hit the partial-send path before we
    // start draining, so the frame really does sit in the queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    WireFrame frame;
    ASSERT_TRUE(conn.recvFrame(frame));
    ASSERT_EQ(frame.op, WireOp::Bundle);
    VersionedHintBundle bundle;
    ASSERT_TRUE(decodeVersionedBundle(bundle, frame.payload.data(),
                                      frame.payload.size()));
    EXPECT_EQ(bundle.epoch, 3u);
    EXPECT_EQ(bundle.bundle.hints.size(), 300'000u);
    EXPECT_GT(frame.payload.size(), cfg.maxSendBuffer);
    EXPECT_EQ(h.server->stats().slowReaderCloses, 0u);
}

TEST_F(NetTest, CorruptFramesAreRetransmittedToSuccess)
{
    std::string error;
    ASSERT_TRUE(FaultInjector::instance().configure(
        "wire-corrupt=2", &error))
        << error;

    ServerHarness h;
    WhisperClient client(clientConfig(h.port()));
    for (uint32_t i = 0; i < 4; ++i)
        ASSERT_TRUE(
            client.ingestChunk("kafka", 0, someRecords(32)));

    // Every other first transmission was corrupted in flight; the
    // server rejected each with ERROR(BadCrc) and the clean
    // retransmission got through. No chunk lost, none doubled.
    EXPECT_GE(client.stats().crcRejects, 1u);
    EXPECT_GE(client.stats().retries, 1u);
    EXPECT_EQ(h.sink.acceptedCount(), 4u);
    WireServerStats stats = h.server->stats();
    EXPECT_GE(stats.badCrcFrames, 1u);
    EXPECT_EQ(stats.chunksAccepted, 4u);
    EXPECT_EQ(stats.duplicateChunks, 0u);
}

TEST_F(NetTest, TornFramesForceReconnectAndResume)
{
    std::string error;
    ASSERT_TRUE(FaultInjector::instance().configure("wire-tear=3",
                                                    &error))
        << error;

    ServerHarness h;
    WhisperClient client(clientConfig(h.port()));
    for (uint32_t i = 0; i < 6; ++i)
        ASSERT_TRUE(
            client.ingestChunk("kafka", 0, someRecords(32)));

    // Torn mid-frame writes desynchronized the stream; the server
    // closed those connections and the client reconnected and
    // retransmitted. All six chunks landed exactly once.
    EXPECT_GE(client.stats().reconnects, 2u);
    EXPECT_EQ(h.sink.acceptedCount(), 6u);
    EXPECT_EQ(h.server->stats().chunksAccepted, 6u);
}

TEST_F(NetTest, MidFrameKillsNeverLoseAckedChunks)
{
    std::string error;
    ASSERT_TRUE(FaultInjector::instance().configure("wire-kill=4",
                                                    &error))
        << error;

    ServerHarness h;
    WhisperClient client(clientConfig(h.port()));
    for (uint32_t i = 0; i < 8; ++i)
        ASSERT_TRUE(
            client.ingestChunk("kafka", 0, someRecords(32)));

    // A kill lands after the frame is sent but before the ack is
    // read, so the server may have ingested the chunk: the
    // retransmission on the fresh connection must come back as a
    // duplicate-ack, not a second ingestion.
    EXPECT_EQ(h.sink.acceptedCount(), 8u);
    EXPECT_EQ(h.server->stats().chunksAccepted, 8u);
    EXPECT_GE(client.stats().duplicateAcks, 1u);
}

TEST_F(NetTest, ListenerRestartMidLoadIsAbsorbed)
{
    std::string error;
    ASSERT_TRUE(FaultInjector::instance().configure(
        "restart-listener=3", &error))
        << error;

    ServerHarness h;
    WhisperClient client(clientConfig(h.port()));
    for (uint32_t i = 0; i < 6; ++i)
        ASSERT_TRUE(
            client.ingestChunk("kafka", 0, someRecords(32)));

    WireServerStats stats = h.server->stats();
    EXPECT_EQ(stats.listenerRestarts, 1u);
    EXPECT_EQ(h.sink.acceptedCount(), 6u);
    // The restart severed the connection; the client reconnected to
    // the same port (the listener rebinds it) and resumed.
    EXPECT_GE(client.stats().reconnects, 2u);
}

TEST_F(NetTest, PullBundleUsesEpochCache)
{
    ServerHarness h;
    h.bundles.deploy(7, 3);
    WhisperClient client(clientConfig(h.port()));

    auto first = client.pullBundle("kafka");
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->epoch, 7u);
    EXPECT_EQ(first->bundle.hints.size(), 3u);

    auto second = client.pullBundle("kafka");
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->epoch, 7u);
    EXPECT_EQ(client.stats().bundleHits, 1u);

    h.bundles.deploy(8, 5);
    auto third = client.pullBundle("kafka");
    ASSERT_TRUE(third.has_value());
    EXPECT_EQ(third->epoch, 8u);
    EXPECT_EQ(third->bundle.hints.size(), 5u);
    EXPECT_EQ(client.stats().bundleHits, 1u);

    WireServerStats stats = h.server->stats();
    EXPECT_EQ(stats.bundlesSent, 2u);
    EXPECT_EQ(stats.bundlesUnchanged, 1u);
}

TEST_F(NetTest, PullBeforeAnyDeploymentYieldsEmptyBundle)
{
    ServerHarness h;
    WhisperClient client(clientConfig(h.port()));
    auto bundle = client.pullBundle("kafka");
    ASSERT_TRUE(bundle.has_value());
    EXPECT_EQ(bundle->epoch, 0u);
    EXPECT_TRUE(bundle->bundle.hints.empty());
}

TEST_F(NetTest, PullUnknownAppFails)
{
    ServerHarness h;
    auto cfg = clientConfig(h.port());
    cfg.maxAttempts = 5;
    WhisperClient client(cfg);
    EXPECT_FALSE(client.pullBundle("nosuch").has_value());
    EXPECT_EQ(client.stats().retries, 0u); // permanent, no storm
}

TEST_F(NetTest, BadVersionHelloIsRejected)
{
    // Version 1 carried 24-byte native records; a peer still on it
    // is turned away rather than fed a payload it cannot read.
    ServerHarness h;
    for (uint32_t version : {1u, kWireProtocolVersion + 1}) {
        RawConn conn(h.port());
        ASSERT_TRUE(conn.connected());
        HelloMsg hello;
        hello.version = version;
        ASSERT_TRUE(conn.sendBytes(
            encodeFrame(WireOp::Hello, encodeHello(hello))));
        WireFrame frame;
        ASSERT_TRUE(conn.recvFrame(frame)) << version;
        ASSERT_EQ(frame.op, WireOp::Error) << version;
        ErrorMsg err;
        ASSERT_TRUE(decodeError(frame.payload, err));
        EXPECT_EQ(err.code, WireError::BadVersion) << version;
    }
}

TEST_F(NetTest, SlowLorisWriterIsReaped)
{
    WireServerConfig cfg;
    cfg.idleTimeoutMs = 200;
    ServerHarness h("kafka", cfg);

    // Hold half a frame hostage and go quiet. The sweep must close
    // us; a healthy frame-aligned keep-alive peer must survive.
    RawConn staller(h.port());
    ASSERT_TRUE(staller.connected());
    auto wire = encodeFrame(WireOp::ChunkAck,
                            encodeChunkAck(ChunkAckMsg{}));
    wire.resize(wire.size() / 2);
    ASSERT_TRUE(staller.sendBytes(wire));

    WhisperClient healthy(clientConfig(h.port()));
    ASSERT_TRUE(healthy.ingestChunk("kafka", 0, someRecords(16)));

    EXPECT_TRUE(staller.peerClosed(3'000));
    EXPECT_GE(h.server->stats().slowLorisCloses, 1u);

    // The aligned connection is still usable after the sweep.
    ASSERT_TRUE(healthy.ingestChunk("kafka", 0, someRecords(16)));
    EXPECT_EQ(healthy.stats().reconnects, 1u);
}

TEST_F(NetTest, StopIsPromptAndIdempotent)
{
    auto h = std::make_unique<ServerHarness>();
    uint16_t port = h->port();
    WhisperClient client(clientConfig(port));
    ASSERT_TRUE(client.ingestChunk("kafka", 0, someRecords(16)));

    auto t0 = std::chrono::steady_clock::now();
    h->server->stop();
    h->server->stop(); // idempotent
    double stopMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    EXPECT_LT(stopMs, 2'000.0);
    EXPECT_FALSE(h->server->running());

    // With the server gone the client fails after its attempt
    // budget instead of hanging.
    auto cfg = clientConfig(port);
    cfg.maxAttempts = 3;
    cfg.recvTimeoutMs = 200;
    WhisperClient orphan(cfg);
    EXPECT_FALSE(orphan.ingestChunk("kafka", 0, someRecords(16)));
}

TEST_F(NetTest, EphemeralPortsAreIndependent)
{
    ServerHarness a, b;
    EXPECT_NE(a.port(), 0);
    EXPECT_NE(b.port(), 0);
    EXPECT_NE(a.port(), b.port());

    WhisperClient ca(clientConfig(a.port()));
    WhisperClient cb(clientConfig(b.port()));
    ASSERT_TRUE(ca.ingestChunk("kafka", 0, someRecords(16)));
    ASSERT_TRUE(cb.ingestChunk("kafka", 0, someRecords(16)));
    EXPECT_EQ(a.sink.acceptedCount(), 1u);
    EXPECT_EQ(b.sink.acceptedCount(), 1u);
}

TEST_F(NetTest, ManyAgentsConcurrently)
{
    ServerHarness h;
    constexpr unsigned kAgents = 16;
    constexpr unsigned kChunks = 4;
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> fleet;
    for (unsigned a = 0; a < kAgents; ++a) {
        fleet.emplace_back([&, a] {
            auto cfg =
                clientConfig(h.port(), "a" + std::to_string(a));
            cfg.jitterSeed = a + 1;
            WhisperClient client(cfg);
            for (unsigned c = 0; c < kChunks; ++c)
                if (!client.ingestChunk("kafka", a % 4,
                                        someRecords(32)))
                    failures.fetch_add(1);
        });
    }
    for (auto &t : fleet)
        t.join();
    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(h.sink.acceptedCount(), kAgents * kChunks);
    EXPECT_EQ(h.server->stats().chunksAccepted, kAgents * kChunks);
}

TEST_F(NetTest, RouterCountsWireChunksAsIngested)
{
    // whisperd --listen: the router's offer path is the wire sink, and
    // the ingest counters count every chunk the router decided on,
    // the refused unknown-app chunk included.
    TenantRouterConfig rcfg;
    rcfg.epochChunks = 2;
    rcfg.trainWorkers = 1;
    rcfg.tageBudgetKB = 16;
    rcfg.profilePolicy.maxHardBranches = 16;
    rcfg.verbose = false;
    TenantRouter router(rcfg, globalTruthTables());
    router.addTenant("kafka");
    router.start();
    WireServer server(
        WireServerConfig{},
        [&router](TraceChunk chunk) {
            return router.tryOffer(std::move(chunk));
        },
        [](const std::string &) -> std::optional<HintStore::Snapshot> {
            return std::nullopt;
        });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    constexpr uint32_t kChunks = 4;
    uint64_t recordsSent = 0;
    WhisperClient client(clientConfig(server.boundPort()));
    for (uint32_t i = 0; i < kChunks; ++i) {
        std::vector<BranchRecord> records =
            someRecords(1'000 + 250 * i, i);
        recordsSent += records.size();
        ASSERT_TRUE(client.ingestChunk("kafka", i, records));
    }
    EXPECT_FALSE(client.ingestChunk("nosuch", 0, someRecords(100)));
    server.stop();
    router.finish();

    ServiceMetrics m = router.metrics();
    EXPECT_EQ(server.stats().chunksAccepted, kChunks);
    EXPECT_EQ(m.chunksIngested, kChunks + 1);
    EXPECT_EQ(m.recordsIngested, recordsSent + 100);
    EXPECT_EQ(m.unknownAppChunks, 1u);
    EXPECT_EQ(m.tenants.at("kafka").chunksRouted, kChunks);
    EXPECT_GT(m.ingestRate, 0.0);
}
