/**
 * @file
 * The flat PC table: a 64-bit key (a branch PC, or a packed pair of
 * ids) maps to a dense id, given in first-insertion order, so
 * callers keep per-key data in plain vectors. Open addressing with
 * Fibonacci hashing and linear probing over 8-byte slots (an id and
 * the product's top 32 bits); the keys sit apart, in id order. The
 * table starts at most half full for the expected key count and
 * doubles before it would be more than three quarters full.
 */

#ifndef WHISPER_UTIL_PC_INDEX_HH
#define WHISPER_UTIL_PC_INDEX_HH

#include <bit>
#include <cstdint>
#include <vector>

namespace whisper
{

class PcIndex
{
  public:
    static constexpr uint32_t kNone = ~0u;

    /** Room for @p expected keys at most half full. */
    explicit PcIndex(size_t expected = 0) { rehash(2 * expected + 2); }

    size_t size() const { return keys_.size(); }
    const std::vector<uint64_t> &keys() const { return keys_; } //!< by id

    /** The id of @p key, or kNone. */
    uint32_t find(uint64_t key) const { return slots_[probe(key)].id; }

    /** The id of @p key; a new key gets id size(). */
    uint32_t
    insert(uint64_t key)
    {
        const size_t i = probe(key);
        if (slots_[i].id != kNone)
            return slots_[i].id;
        uint32_t id = static_cast<uint32_t>(size());
        keys_.push_back(key);
        if (4 * size() > 3 * slots_.size())
            rehash(2 * slots_.size());
        else
            slots_[i] = {id, top(key)};
        return id;
    }

  private:
    struct Slot
    {
        uint32_t id = kNone; //!< kNone marks an empty slot
        uint32_t top = 0;    //!< top(key)
    };

    static uint64_t hash(uint64_t key) { return key * 0x9E3779B97F4A7C15ULL; }
    static uint32_t top(uint64_t key) { return hash(key) >> 32; }

    /** A table of bit_ceil(@p minSlots) slots holding every key. */
    void
    rehash(size_t minSlots)
    {
        slots_ = std::vector<Slot>(); // free the old table first
        slots_.resize(std::bit_ceil(minSlots));
        shift_ = 64 - std::countr_zero(slots_.size());
        for (uint32_t id = 0; id < size(); ++id)
            slots_[probe(keys_[id])] = {id, top(keys_[id])};
    }

    /** @p key's slot, or the empty slot ending its probe sequence. */
    size_t
    probe(uint64_t key) const
    {
        size_t i = static_cast<size_t>(hash(key) >> shift_);
        while (slots_[i].id != kNone &&
               (slots_[i].top != top(key) || keys_[slots_[i].id] != key))
            i = (i + 1) & (slots_.size() - 1);
        return i;
    }

    std::vector<Slot> slots_;
    std::vector<uint64_t> keys_;
    unsigned shift_ = 0;
};

} // namespace whisper

#endif // WHISPER_UTIL_PC_INDEX_HH
