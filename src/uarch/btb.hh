/**
 * @file
 * Branch Target Buffer model (Table II: 8192-entry, 4-way).
 */

#ifndef WHISPER_UARCH_BTB_HH
#define WHISPER_UARCH_BTB_HH

#include <cstdint>
#include <vector>

namespace whisper
{

/**
 * Set-associative BTB with true-LRU replacement. Each set holds its
 * entries ordered most recent first, so the LRU victim is always the
 * tail way; empty ways hold a sentinel pc (~0) and sort last.
 */
class Btb
{
  public:
    /**
     * @param entries total entries
     * @param ways associativity; entries / ways must be a power of
     *        two
     */
    explicit Btb(unsigned entries = 8192, unsigned ways = 4);

    /**
     * Look up the target for the branch at @p pc.
     * @param target receives the stored target on hit
     * @return true on hit
     */
    bool lookup(uint64_t pc, uint64_t &target);

    /** Install/refresh the mapping after resolution. */
    void update(uint64_t pc, uint64_t target);

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

  private:
    struct Entry
    {
        uint64_t pc;
        uint64_t target;
    };

    Entry *setFor(uint64_t pc);

    unsigned ways_;
    uint64_t setMask_;
    std::vector<Entry> entries_; //!< numSets x ways, MRU first
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

} // namespace whisper

#endif // WHISPER_UARCH_BTB_HH
