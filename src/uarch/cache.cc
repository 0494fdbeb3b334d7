#include "uarch/cache.hh"

#include <algorithm>

#include "util/bits.hh"
#include "util/logging.hh"

namespace whisper
{

namespace
{

/** Marks an empty way; no line number reaches it. */
constexpr uint64_t kEmpty = ~uint64_t{0};

} // namespace

Cache::Cache(uint64_t sizeBytes, unsigned ways, unsigned lineBytes)
    : ways_(ways), lineShift_(floorLog2(lineBytes))
{
    whisper_assert(isPowerOfTwo(lineBytes));
    whisper_assert(ways >= 1);
    uint64_t lines = sizeBytes / lineBytes;
    whisper_assert(lines >= ways, "cache smaller than one set");
    uint64_t sets = lines / ways;
    whisper_assert(isPowerOfTwo(sets), "set count must be a power of two");
    setMask_ = sets - 1;
    lines_.assign(sets * ways_, kEmpty);
}

bool
Cache::access(uint64_t addr)
{
    uint64_t line = addr >> lineShift_;
    uint64_t *set = &lines_[(line & setMask_) * ways_];
    // Stop at the match, else at the tail: the LRU line or, while
    // the set is not yet full, an empty way.
    unsigned w = 0;
    while (w + 1 < ways_ && set[w] != line)
        ++w;
    bool hit = set[w] == line;
    std::copy_backward(set, set + w, set + w + 1);
    set[0] = line;
    ++(hit ? hits_ : misses_);
    return hit;
}

InstructionHierarchy::InstructionHierarchy(const Config &cfg)
    : cfg_(cfg), l1_(cfg.l1Bytes, cfg.l1Ways),
      l2_(cfg.l2Bytes, cfg.l2Ways), l3_(cfg.l3Bytes, cfg.l3Ways)
{
}

unsigned
InstructionHierarchy::fetch(uint64_t addr)
{
    if (l1_.access(addr))
        return 0;
    if (l2_.access(addr))
        return cfg_.l2Latency;
    if (l3_.access(addr))
        return cfg_.l3Latency;
    return cfg_.memLatency;
}

} // namespace whisper
