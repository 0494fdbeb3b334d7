/**
 * @file
 * The run-time hint buffer (paper SIV, "Run-time hint usage"):
 * executing a brhint places its decoded parameters in a small
 * fully-associative buffer keyed by the hinted branch's PC, and a
 * hit overrides the dynamic prediction. The paper settles on 32
 * entries.
 *
 * The model is that structure: parallel PC, payload and last-use
 * stamp arrays. A lookup scans the PCs; an insert evicts the
 * smallest stamp, which is exact LRU. A count of the resident PCs
 * per hash bucket lets a lookup whose bucket is empty (three in four
 * on mysql) skip the scan: WhisperPredictor::step() decides a
 * block's hint uses before its TAGE walk, so the scan no longer
 * hides behind the TAGE lookups.
 * tests/test_hintbuf.cc pins exact LRU equivalence to a list+map
 * reference model defined there.
 */

#ifndef WHISPER_CORE_HINT_BUFFER_HH
#define WHISPER_CORE_HINT_BUFFER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/brhint.hh"

namespace whisper
{

/** Fully-associative exact-LRU buffer of decoded brhints. */
class HintBuffer
{
  public:
    /** Copies are deep: they keep contents, order and counters. */
    explicit HintBuffer(unsigned entries = 32);

    /** Install a hint (brhint executed); LRU-evicts when full. A
     * re-insert of a resident PC refreshes the payload and recency
     * and counts as a refresh, not an insertion. */
    void insert(uint64_t branchPc, const BrHint &hint);

    /** Query for the branch at @p pc; refreshes recency on hit.
     * @return pointer valid until the next insert, or nullptr. */
    const BrHint *
    lookup(uint64_t branchPc)
    {
        size_t s = find(branchPc);
        if (s == size_) {
            ++misses_;
            return nullptr;
        }
        ++hits_;
        lastUse_[s] = ++clock_;
        return &hints_[s];
    }

    unsigned capacity() const { return capacity_; }
    size_t size() const { return size_; }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    /** Installs of a PC not currently resident. */
    uint64_t insertions() const { return insertions_; }
    /** Re-inserts of a resident PC (payload/recency refresh only). */
    uint64_t refreshes() const { return refreshes_; }
    uint64_t evictions() const { return evictions_; }

    /** Drop all entries but keep the counters: a hint-bundle
     * redeploy empties the buffer, and the totals are cumulative
     * service metrics that must survive it. */
    void
    clear()
    {
        size_ = 0;
        resident_.fill(0);
    }

    /** Zero the hit/miss/insertion/refresh/eviction counters. */
    void
    resetStats()
    {
        hits_ = misses_ = insertions_ = refreshes_ = evictions_ = 0;
    }

    /** Resident PCs in recency order, most recently used first.
     * Introspection for the differential/golden tests. */
    std::vector<uint64_t> lruOrder() const;

  private:
    /** Slot holding @p branchPc, or size_ if it is not resident. */
    size_t
    find(uint64_t branchPc) const
    {
        if (!resident_[bucket(branchPc)])
            return size_;
        for (size_t s = 0; s < size_; ++s)
            if (pcs_[s] == branchPc)
                return s;
        return size_;
    }

    /** The top byte of a Fibonacci hash of @p pc. */
    static size_t bucket(uint64_t pc) { return pc * 0x9E3779B97F4A7C15 >> 56; }

    std::array<uint32_t, 256> resident_{}; //!< resident PCs per bucket
    unsigned capacity_;
    size_t size_ = 0;    //!< slots [0, size_) are resident
    uint64_t clock_ = 0; //!< bumped on every hit, insert and refresh

    std::vector<uint64_t> pcs_;
    std::vector<BrHint> hints_;
    std::vector<uint64_t> lastUse_; //!< clock_ at the slot's last use

    uint64_t hits_ = 0, misses_ = 0, insertions_ = 0, refreshes_ = 0,
             evictions_ = 0;
};

} // namespace whisper

#endif // WHISPER_CORE_HINT_BUFFER_HH
