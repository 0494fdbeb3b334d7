/**
 * @file
 * The one in-memory byte codec: hint bundles, journal records and
 * every wire header and payload are written with ByteWriter and read
 * with ByteReader.
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
