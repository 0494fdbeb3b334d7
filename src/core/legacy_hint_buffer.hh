/**
 * @file
 * Reference model of the hint buffer: a std::list LRU chained to a
 * std::unordered_map node index.
 *
 * It is the test oracle, not used by any predictor: LRU order is
 * obvious from a list, so tests/test_hintbuf.cc replays identical
 * access scripts against this and HintBuffer and asserts
 * bit-identical hits/misses/insertions/refreshes/evictions, sizes
 * and recency order; bench_micro_throughput replays the same op
 * stream through both, asserts the same equality, and reports this
 * model's rate next to HintBuffer's.
 *
 * Its counters follow HintBuffer's semantics (a refresh of a
 * resident PC counts as a refresh, not an insertion; clear()
 * preserves counters; resetStats() zeroes them) so the two
 * implementations are comparable field for field.
 */

#ifndef WHISPER_CORE_LEGACY_HINT_BUFFER_HH
#define WHISPER_CORE_LEGACY_HINT_BUFFER_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "core/brhint.hh"

namespace whisper
{

/** Pointer-chasing LRU buffer of decoded brhints (legacy layout). */
class LegacyHintBuffer
{
  public:
    explicit LegacyHintBuffer(unsigned entries = 32);

    /** Not copyable: a memberwise copy would alias the source's
     * list nodes through the PC-to-node index. */
    LegacyHintBuffer(const LegacyHintBuffer &) = delete;
    LegacyHintBuffer &operator=(const LegacyHintBuffer &) = delete;
    LegacyHintBuffer(LegacyHintBuffer &&) = default;
    LegacyHintBuffer &operator=(LegacyHintBuffer &&) = default;

    /** Install a hint (brhint executed); LRU-evicts when full. */
    void insert(uint64_t branchPc, const BrHint &hint);

    /**
     * Query for the branch at @p pc; refreshes LRU on hit.
     * @return pointer valid until the next insert, or nullptr.
     */
    const BrHint *lookup(uint64_t branchPc);

    unsigned capacity() const { return capacity_; }
    size_t size() const { return map_.size(); }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t insertions() const { return insertions_; }
    uint64_t refreshes() const { return refreshes_; }
    uint64_t evictions() const { return evictions_; }

    /** Drop all entries; counters are preserved (see HintBuffer). */
    void clear();

    /** Zero the hit/miss/insertion/refresh/eviction counters. */
    void resetStats();

    /** Resident PCs in recency order, most recently used first. */
    std::vector<uint64_t> lruOrder() const;

  private:
    struct Node
    {
        uint64_t pc;
        BrHint hint;
    };

    unsigned capacity_;
    std::list<Node> lru_; //!< front = most recently used
    std::unordered_map<uint64_t, std::list<Node>::iterator> map_;

    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t insertions_ = 0;
    uint64_t refreshes_ = 0;
    uint64_t evictions_ = 0;
};

} // namespace whisper

#endif // WHISPER_CORE_LEGACY_HINT_BUFFER_HH
