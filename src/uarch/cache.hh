/**
 * @file
 * Set-associative cache model with true-LRU replacement.
 *
 * Used for the L1i/L2/L3 instruction path of the frontend model
 * (Table II: 32KB 8-way L1i, 1MB 16-way L2, 10MB 20-way L3).
 */

#ifndef WHISPER_UARCH_CACHE_HH
#define WHISPER_UARCH_CACHE_HH

#include <cstdint>
#include <vector>

namespace whisper
{

/**
 * A single cache level. Each set holds its resident line numbers
 * ordered most recent first, so the LRU victim is always the tail
 * way; empty ways hold a sentinel and sort last.
 */
class Cache
{
  public:
    /**
     * @param sizeBytes total capacity
     * @param ways associativity
     * @param lineBytes line size (power of two)
     *
     * The resulting set count must be a power of two.
     */
    Cache(uint64_t sizeBytes, unsigned ways,
          unsigned lineBytes = 64);

    /**
     * Access the line containing @p addr; fills on miss.
     * @return true on hit
     */
    bool access(uint64_t addr);

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    unsigned numSets() const { return static_cast<unsigned>(setMask_ + 1); }

  private:
    unsigned ways_;
    unsigned lineShift_;
    uint64_t setMask_;
    std::vector<uint64_t> lines_; //!< numSets x ways, MRU first
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

/** Three-level instruction-side hierarchy with fixed latencies. */
class InstructionHierarchy
{
  public:
    struct Config
    {
        uint64_t l1Bytes = 32 * 1024;
        unsigned l1Ways = 8;
        uint64_t l2Bytes = 1024 * 1024;
        unsigned l2Ways = 16;
        uint64_t l3Bytes = 10 * 1024 * 1024;
        unsigned l3Ways = 20;
        unsigned l2Latency = 12;   //!< cycles on L1 miss, L2 hit
        unsigned l3Latency = 40;
        unsigned memLatency = 200;
    };

    explicit InstructionHierarchy(const Config &cfg);

    /**
     * Demand-fetch the line of @p addr through the hierarchy.
     * @return added latency in cycles (0 = L1 hit)
     */
    unsigned fetch(uint64_t addr);

  private:
    Config cfg_;
    Cache l1_;
    Cache l2_;
    Cache l3_;
};

} // namespace whisper

#endif // WHISPER_UARCH_CACHE_HH
