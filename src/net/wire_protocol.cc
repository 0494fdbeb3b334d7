#include "net/wire_protocol.hh"

#include "trace/branch_trace.hh"
#include "util/crc32.hh"

namespace whisper
{

std::vector<unsigned char>
encodeFrame(WireOp op, const std::vector<unsigned char> &payload)
{
    ByteWriter w;
    w.reserve(WireFrame::kHeaderBytes + payload.size());
    w.put(WireFrame::kMagic);
    w.put(static_cast<uint32_t>(op));
    w.put(static_cast<uint32_t>(payload.size()));
    w.put(crc32(payload.data(), payload.size()));
    w.putBytes(payload.data(), payload.size());
    return w.take();
}

void
FrameParser::feed(const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    buffer_.insert(buffer_.end(), p, p + n);
}

FrameParser::Result
FrameParser::next(WireFrame &out)
{
    // Reclaim consumed prefix once it dominates the buffer.
    if (pos_ > 0 && pos_ >= buffer_.size() / 2) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() +
                          static_cast<ptrdiff_t>(pos_));
        pos_ = 0;
    }
    if (buffered() < WireFrame::kHeaderBytes)
        return Result::NeedMore;

    const unsigned char *hdr = buffer_.data() + pos_;
    ByteReader r(hdr, WireFrame::kHeaderBytes);
    uint32_t magic = 0, op = 0, length = 0, crc = 0;
    r.get(magic);
    r.get(op);
    r.get(length);
    r.get(crc);
    if (magic != WireFrame::kMagic)
        return Result::BadMagic;
    if (length > WireFrame::kMaxPayload)
        return Result::TooLarge;
    if (buffered() < WireFrame::kHeaderBytes + length)
        return Result::NeedMore;

    const unsigned char *payload = hdr + WireFrame::kHeaderBytes;
    bool crcOk = crc32(payload, length) == crc;
    if (crcOk) {
        out.op = static_cast<WireOp>(op);
        out.payload.assign(payload, payload + length);
    }
    pos_ += WireFrame::kHeaderBytes + length;
    return crcOk ? Result::Frame : Result::BadCrc;
}

// ---- typed messages ----------------------------------------------

std::vector<unsigned char>
encodeHello(const HelloMsg &m)
{
    ByteWriter w;
    w.put(m.version);
    w.putStr(m.client);
    return w.take();
}

std::vector<unsigned char>
encodeHelloOk(const HelloMsg &m)
{
    return encodeHello(m);
}

bool
decodeHello(const std::vector<unsigned char> &p, HelloMsg &m)
{
    ByteReader r(p);
    r.get(m.version);
    r.getStr(m.client);
    return r.done();
}

std::vector<unsigned char>
encodeIngestChunk(const IngestChunkMsg &m)
{
    ByteWriter w;
    w.putStr(m.app);
    w.putStr(m.stream);
    w.put(m.inputId);
    w.put(m.seq);
    w.put(static_cast<uint32_t>(m.records.size()));
    std::vector<unsigned char> payload = w.take();
    appendRecordImage(payload, m.records);
    return payload;
}

bool
decodeIngestChunk(const std::vector<unsigned char> &p,
                  IngestChunkMsg &m)
{
    ByteReader r(p);
    uint32_t count = 0;
    r.getStr(m.app);
    r.getStr(m.stream);
    r.get(m.inputId);
    r.get(m.seq);
    r.get(count);
    if (!r.ok() ||
        static_cast<uint64_t>(count) * sizeof(BranchRecord) !=
            r.remaining()) {
        return false;
    }
    m.records.resize(count);
    return r.getBytes(m.records.data(), count * sizeof(BranchRecord)) &&
           isCanonicalImage(m.records);
}

std::vector<unsigned char>
encodeChunkAck(const ChunkAckMsg &m)
{
    ByteWriter w;
    w.put(m.seq);
    w.put(m.status);
    return w.take();
}

bool
decodeChunkAck(const std::vector<unsigned char> &p, ChunkAckMsg &m)
{
    ByteReader r(p);
    r.get(m.seq);
    r.get(m.status);
    return r.done();
}

std::vector<unsigned char>
encodeRetryAfter(const RetryAfterMsg &m)
{
    ByteWriter w;
    w.put(m.seq);
    w.put(m.waitMs);
    return w.take();
}

bool
decodeRetryAfter(const std::vector<unsigned char> &p,
                 RetryAfterMsg &m)
{
    ByteReader r(p);
    r.get(m.seq);
    r.get(m.waitMs);
    return r.done();
}

std::vector<unsigned char>
encodePullBundle(const PullBundleMsg &m)
{
    ByteWriter w;
    w.putStr(m.app);
    w.put(m.cachedEpoch);
    return w.take();
}

bool
decodePullBundle(const std::vector<unsigned char> &p,
                 PullBundleMsg &m)
{
    ByteReader r(p);
    r.getStr(m.app);
    r.get(m.cachedEpoch);
    return r.done();
}

std::vector<unsigned char>
encodeBundleUnchanged(uint64_t epoch)
{
    ByteWriter w;
    w.put(epoch);
    return w.take();
}

bool
decodeBundleUnchanged(const std::vector<unsigned char> &p,
                      uint64_t &epoch)
{
    ByteReader r(p);
    r.get(epoch);
    return r.done();
}

std::vector<unsigned char>
encodeError(const ErrorMsg &m)
{
    ByteWriter w;
    w.put(m.code);
    w.putStr(m.message);
    return w.take();
}

bool
decodeError(const std::vector<unsigned char> &p, ErrorMsg &m)
{
    ByteReader r(p);
    r.get(m.code);
    r.getStr(m.message);
    return r.done();
}

} // namespace whisper
