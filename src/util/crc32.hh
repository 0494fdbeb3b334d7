/**
 * @file
 * CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte buffers.
 *
 * Used to frame on-disk and wire records (trace chunks, hint-store
 * journal entries, whisperd frames) so that torn writes and bit flips
 * are detected at read time instead of silently corrupting profiles
 * or deployed hints.
 *
 * The kernel is slicing-by-16 (Kounavis & Berry, "A Systematic
 * Approach to Building High Performance Software-Based CRC
 * Generators", ISCC 2005). Table k maps a byte b to the CRC register
 * contribution of b followed by k zero bytes, so table 0 is the
 * classic bytewise table and table k+1 is table k advanced by one
 * more zero byte. A 16-byte block then folds into the register with
 * 16 independent lookups: byte i of the block (the first four XORed
 * with the register) goes through table 15 - i. The 16 x 256 tables
 * (16 KiB) are built at compile time. Every load is a byte load, so
 * the result does not depend on alignment or endianness, and the
 * last len % 16 bytes take the bytewise loop. The output is that of
 * the bytewise loop, bit for bit.
 */

#ifndef WHISPER_UTIL_CRC32_HH
#define WHISPER_UTIL_CRC32_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace whisper
{

namespace detail
{

using Crc32Tables = std::array<std::array<uint32_t, 256>, 16>;

inline constexpr Crc32Tables kCrc32Tables = [] {
    Crc32Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (size_t k = 1; k < t.size(); ++k)
        for (uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    return t;
}();

} // namespace detail

/** CRC-32 of @p len bytes at @p data, continuing from @p seed
 * (pass the previous return value to checksum in pieces). */
inline uint32_t
crc32(const void *data, size_t len, uint32_t seed = 0)
{
    const auto &t = detail::kCrc32Tables;
    const auto *p = static_cast<const unsigned char *>(data);
    uint32_t crc = ~seed;
    for (; len >= 16; p += 16, len -= 16) {
        crc = t[15][(crc ^ p[0]) & 0xFF] ^
              t[14][((crc >> 8) ^ p[1]) & 0xFF] ^
              t[13][((crc >> 16) ^ p[2]) & 0xFF] ^
              t[12][(crc >> 24) ^ p[3]] ^
              t[11][p[4]] ^ t[10][p[5]] ^ t[9][p[6]] ^ t[8][p[7]] ^
              t[7][p[8]] ^ t[6][p[9]] ^ t[5][p[10]] ^ t[4][p[11]] ^
              t[3][p[12]] ^ t[2][p[13]] ^ t[1][p[14]] ^ t[0][p[15]];
    }
    for (; len > 0; ++p, --len)
        crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
    return ~crc;
}

} // namespace whisper

#endif // WHISPER_UTIL_CRC32_HH
