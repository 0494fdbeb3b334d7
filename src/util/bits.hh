/**
 * @file
 * Small bit-manipulation helpers shared across predictor and hashing code.
 */

#ifndef WHISPER_UTIL_BITS_HH
#define WHISPER_UTIL_BITS_HH

#include <cstdint>
#include <cstddef>

namespace whisper
{

/** Return a mask with the low @p n bits set (n may be 0..64). */
inline uint64_t
maskBits(unsigned n)
{
    return n >= 64 ? ~0ULL : ((1ULL << n) - 1);
}

/** Extract bits [lo, lo+len) of @p value. */
inline uint64_t
bitsOf(uint64_t value, unsigned lo, unsigned len)
{
    return (value >> lo) & maskBits(len);
}

/**
 * Mix a 64-bit value into a well-distributed 64-bit hash
 * (splitmix64 finalizer). Used for table indexing and synthetic
 * workload decisions; cheap and deterministic.
 */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Combine two hashes (boost::hash_combine flavoured, 64-bit). */
inline uint64_t
hashCombine(uint64_t seed, uint64_t v)
{
    return seed ^ (mix64(v) + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                   (seed >> 2));
}

/**
 * Fold a branch PC into well-mixed low index bits.
 *
 * Predictor tables index with the PC's low bits; xoring two shifts
 * keeps the mapping dense for both byte-dense real code and the
 * 16-byte-aligned addresses the synthetic workloads emit.
 */
inline uint64_t
pcIndexBits(uint64_t pc)
{
    return (pc >> 1) ^ (pc >> 4);
}

/** True if @p v is a power of two (v != 0). */
inline bool
isPowerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** ceil(log2(v)) for v >= 1. */
inline unsigned
ceilLog2(uint64_t v)
{
    unsigned n = 0;
    uint64_t p = 1;
    while (p < v) {
        p <<= 1;
        ++n;
    }
    return n;
}

/** floor(log2(v)) for v >= 1. */
inline unsigned
floorLog2(uint64_t v)
{
    unsigned n = 0;
    while (v >>= 1)
        ++n;
    return n;
}

} // namespace whisper

#endif // WHISPER_UTIL_BITS_HH
