/**
 * @file
 * The one in-memory byte codec: hint bundles, journal records and
 * every wire header and payload are written with ByteWriter and read
 * with ByteReader, and the varints of the .whrt v3 / INGEST_CHUNK
 * record payload with putVarint() and getVarint().
 *
 * Values are stored as native bytes, which is little-endian on every
 * supported host (asserted below): the byte order of .whrt traces and
 * of the file-backed BinFile in core/whisper_io.cc. A ByteReader never
 * reads past its buffer; an overrun or an over-cap length poisons it
 * (ok() turns false) and every later get is a no-op.
 */

#ifndef WHISPER_UTIL_BYTE_CODEC_HH
#define WHISPER_UTIL_BYTE_CODEC_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace whisper
{

static_assert(std::endian::native == std::endian::little,
              "serialized formats are little-endian native bytes");

/** Cap on every length-prefixed string a reader accepts: wire
 * strings and the .whrt app name. */
constexpr uint32_t kMaxStringBytes = 4096;

/** Longest varint: ten 7-bit groups hold 64 bits. */
constexpr size_t kMaxVarintBytes = 10;

/** Write @p v as a LEB128 varint (7 bits a byte, low group first,
 * the top bit set on every byte but the last) at @p p, which must
 * have kMaxVarintBytes of room. @return the byte after it. */
inline unsigned char *
putVarint(unsigned char *p, uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<unsigned char>(v | 0x80);
        v >>= 7;
    }
    *p++ = static_cast<unsigned char>(v);
    return p;
}

/** Read into @p v the varint starting at @p p, reading no byte at
 * or past @p end. Only the shortest encoding of a 64-bit value is
 * accepted, so every value has exactly one encoding. @return the
 * byte after it, or nullptr on an overrun, a last byte of zero (a
 * longer form than needed) or bits past 64. */
inline const unsigned char *
getVarint(const unsigned char *p, const unsigned char *end, uint64_t &v)
{
    if (p == end)
        return nullptr;
    if (*p < 0x80) {
        v = *p;
        return p + 1;
    }
    uint64_t x = *p++ & 0x7F;
    for (unsigned shift = 7;; shift += 7) {
        if (p == end)
            return nullptr;
        uint64_t b = *p++;
        if (shift == 63 && b > 1)
            return nullptr;
        x |= (b & 0x7F) << shift;
        if (b < 0x80) {
            if (b == 0)
                return nullptr;
            v = x;
            return p;
        }
    }
}

/** Appends values to a growing byte buffer. */
class ByteWriter
{
  public:
    /** Memory writes cannot fail; ok() lets one template drive this,
     * ByteReader and BinFile alike. */
    bool ok() const { return true; }

    void reserve(size_t bytes) { buf_.reserve(bytes); }

    template <typename T>
    void
    put(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        putBytes(&v, sizeof(T));
    }

    void
    putBytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        buf_.insert(buf_.end(), p, p + n);
    }

    /** u32 length, then the bytes. */
    void
    putStr(const std::string &s)
    {
        put(static_cast<uint32_t>(s.size()));
        putBytes(s.data(), s.size());
    }

    /** u64 element count, then the elements. */
    void
    putVec32(const std::vector<uint32_t> &v)
    {
        put(static_cast<uint64_t>(v.size()));
        putBytes(v.data(), v.size() * sizeof(uint32_t));
    }

    std::vector<unsigned char> take() { return std::move(buf_); }

  private:
    std::vector<unsigned char> buf_;
};

/** Bounds-checked reader over a byte buffer it does not own. */
class ByteReader
{
  public:
    ByteReader(const unsigned char *data, size_t size)
        : data_(data), size_(size)
    {
    }
    explicit ByteReader(const std::vector<unsigned char> &buf)
        : ByteReader(buf.data(), buf.size())
    {
    }

    bool ok() const { return ok_; }
    /** ok() and every byte consumed. */
    bool done() const { return ok_ && pos_ == size_; }
    size_t remaining() const { return size_ - pos_; }

    /** On overrun @p v is left unchanged. */
    template <typename T>
    void
    get(T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        getBytes(&v, sizeof(T));
    }

    bool
    getBytes(void *out, size_t n)
    {
        if (!ok_ || remaining() < n)
            return ok_ = false;
        if (n > 0)
            std::memcpy(out, data_ + pos_, n);
        pos_ += n;
        return true;
    }

    /** A putStr() string of at most kMaxStringBytes. */
    bool
    getStr(std::string &s)
    {
        uint32_t len = 0;
        get(len);
        if (!ok_ || len > kMaxStringBytes || remaining() < len)
            return ok_ = false;
        s.assign(reinterpret_cast<const char *>(data_ + pos_), len);
        pos_ += len;
        return true;
    }

    /** A putVec32() vector of at most @p maxSize elements. */
    bool
    getVec32(std::vector<uint32_t> &v, uint64_t maxSize)
    {
        uint64_t n = 0;
        get(n);
        if (!ok_ || n > maxSize || remaining() / sizeof(uint32_t) < n)
            return ok_ = false;
        v.resize(n);
        return getBytes(v.data(), n * sizeof(uint32_t));
    }

  private:
    const unsigned char *data_;
    size_t size_;
    size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace whisper

#endif // WHISPER_UTIL_BYTE_CODEC_HH
