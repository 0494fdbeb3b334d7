/**
 * @file
 * The whisperd wire protocol: length-prefixed, CRC32-framed binary
 * messages over TCP.
 *
 * Frame grammar (all integers little-endian, matching the .whrt
 * on-disk byte order; every header and payload is written and read
 * with util/byte_codec.hh):
 *
 *   frame   := magic:u32 opcode:u32 length:u32 crc:u32 payload
 *   magic   := 0x5746524D ("WFRM")
 *   length  := payload bytes (<= kMaxPayload, hostile lengths are a
 *              protocol error, never an allocation)
 *   crc     := CRC32 of the payload bytes — the same IEEE CRC32 the
 *              .whrt v2 trace frames and the hint-store journal use
 *
 * Message payloads (str := len:u32 bytes, capped at kMaxStringBytes):
 *
 *   HELLO            ver:u32 client:str
 *   HELLO_OK         ver:u32 server:str
 *   INGEST_CHUNK     app:str stream:str inputId:u32 seq:u64
 *                    count:u32 records[count]   (record images
 *                    from appendRecordImage, exactly the .whrt v2
 *                    frame payload; invalid kind/taken bytes or
 *                    nonzero padding are rejected)
 *   CHUNK_ACK        seq:u64 status:u32         (0 = accepted,
 *                    1 = duplicate — the idempotency reply)
 *   RETRY_AFTER      seq:u64 waitMs:u32         (backpressure: the
 *                    tenant queue is full; retransmit after waitMs)
 *   PULL_BUNDLE      app:str cachedEpoch:u64
 *   BUNDLE           <encodeVersionedBundle payload>
 *   BUNDLE_UNCHANGED epoch:u64                  (cache hit: the
 *                    deployed epoch equals cachedEpoch; one compare)
 *   ERROR            code:u32 message:str
 *
 * Failure model: a frame whose CRC fails is dropped by the receiver
 * and answered with ERROR(BadCrc) — the sender retransmits (ingest
 * is idempotent per (app, stream, seq), so retransmitting an already
 * accepted chunk yields a duplicate-ack, never double ingestion).
 * A frame whose magic is wrong means the byte stream itself is
 * broken (torn mid-frame write from a killed peer): the connection
 * is closed and the client reconnects and resumes from its lowest
 * unacknowledged sequence number.
 */

#ifndef WHISPER_NET_WIRE_PROTOCOL_HH
#define WHISPER_NET_WIRE_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/whisper_io.hh"
#include "trace/branch_record.hh"
#include "util/byte_codec.hh"

namespace whisper
{

/** Frame opcodes. */
enum class WireOp : uint32_t
{
    Hello = 1,
    HelloOk = 2,
    IngestChunk = 3,
    ChunkAck = 4,
    RetryAfter = 5,
    PullBundle = 6,
    Bundle = 7,
    BundleUnchanged = 8,
    Error = 9,
};

/** ERROR frame codes. */
enum class WireError : uint32_t
{
    BadFrame = 1,     //!< malformed payload (permanent for the frame)
    BadCrc = 2,       //!< CRC mismatch (transient: retransmit)
    UnknownApp = 3,   //!< no such tenant (permanent)
    ShuttingDown = 4, //!< server is draining (reconnect later)
    BadVersion = 5,   //!< protocol version mismatch (permanent)
};

struct WireFrame
{
    static constexpr uint32_t kMagic = 0x5746524D; // "WFRM"
    static constexpr uint32_t kMaxPayload = 1u << 26;
    static constexpr size_t kHeaderBytes = 16;

    WireOp op = WireOp::Error;
    std::vector<unsigned char> payload;
};

constexpr uint32_t kWireProtocolVersion = 1;

/** Serialize one frame (header + CRC32 + payload). */
std::vector<unsigned char>
encodeFrame(WireOp op, const std::vector<unsigned char> &payload);

/**
 * Incremental frame decoder: feed() raw bytes as they arrive, then
 * drain next() until NeedMore. BadCrc consumes the damaged frame
 * (the connection can continue); BadMagic/TooLarge mean the stream
 * itself is unusable and the connection must be dropped.
 */
class FrameParser
{
  public:
    enum class Result
    {
        NeedMore, //!< no complete frame buffered yet
        Frame,    //!< one valid frame delivered
        BadCrc,   //!< framed correctly but payload CRC failed
        BadMagic, //!< stream desynchronized; close the connection
        TooLarge, //!< hostile length field; close the connection
    };

    void feed(const void *data, size_t n);
    Result next(WireFrame &out);

    /** Bytes buffered but not yet consumed (a nonzero value with no
     * complete frame = a partial frame in flight; the server's
     * slow-loris guard keys off this). */
    size_t buffered() const { return buffer_.size() - pos_; }

  private:
    std::vector<unsigned char> buffer_;
    size_t pos_ = 0;
};

// ---- typed messages ----------------------------------------------

struct HelloMsg
{
    uint32_t version = kWireProtocolVersion;
    std::string client;
};

struct IngestChunkMsg
{
    std::string app;
    std::string stream; //!< sequence-number namespace (client id)
    uint32_t inputId = 0;
    uint64_t seq = 0;   //!< per-(app, stream) chunk sequence
    std::vector<BranchRecord> records;
};

struct ChunkAckMsg
{
    static constexpr uint32_t kAccepted = 0;
    static constexpr uint32_t kDuplicate = 1;
    uint64_t seq = 0;
    uint32_t status = kAccepted;
};

struct RetryAfterMsg
{
    uint64_t seq = 0;
    uint32_t waitMs = 0;
};

struct PullBundleMsg
{
    std::string app;
    uint64_t cachedEpoch = 0;
};

struct ErrorMsg
{
    WireError code = WireError::BadFrame;
    std::string message;
};

std::vector<unsigned char> encodeHello(const HelloMsg &m);
std::vector<unsigned char> encodeHelloOk(const HelloMsg &m);
std::vector<unsigned char> encodeIngestChunk(const IngestChunkMsg &m);
std::vector<unsigned char> encodeChunkAck(const ChunkAckMsg &m);
std::vector<unsigned char> encodeRetryAfter(const RetryAfterMsg &m);
std::vector<unsigned char> encodePullBundle(const PullBundleMsg &m);
std::vector<unsigned char> encodeBundleUnchanged(uint64_t epoch);
std::vector<unsigned char> encodeError(const ErrorMsg &m);

bool decodeHello(const std::vector<unsigned char> &p, HelloMsg &m);
bool decodeIngestChunk(const std::vector<unsigned char> &p,
                       IngestChunkMsg &m);
bool decodeChunkAck(const std::vector<unsigned char> &p,
                    ChunkAckMsg &m);
bool decodeRetryAfter(const std::vector<unsigned char> &p,
                      RetryAfterMsg &m);
bool decodePullBundle(const std::vector<unsigned char> &p,
                      PullBundleMsg &m);
bool decodeBundleUnchanged(const std::vector<unsigned char> &p,
                           uint64_t &epoch);
bool decodeError(const std::vector<unsigned char> &p, ErrorMsg &m);

// BUNDLE payloads reuse the journal's record encoding directly:
// encodeVersionedBundle / decodeVersionedBundle from whisper_io.

} // namespace whisper

#endif // WHISPER_NET_WIRE_PROTOCOL_HH
