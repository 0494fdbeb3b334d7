/**
 * @file
 * Global branch history registers: a raw bit ring plus TAGE-style
 * folded (hashed) views of configurable lengths.
 */

#ifndef WHISPER_TRACE_GLOBAL_HISTORY_HH
#define WHISPER_TRACE_GLOBAL_HISTORY_HH

#include <array>
#include <cstdint>
#include <vector>

#include "util/bits.hh"
#include "util/logging.hh"

namespace whisper
{

/**
 * Global direction history with random access to recent bits and a
 * bank of folded views.
 *
 * The raw ring stores the most recent 'capacity' outcomes (default
 * 4096, comfortably above Whisper's N = 1024 maximum correlation
 * length). bit(0) is the most recent outcome.
 *
 * A folded view of length L and width w is the value of TAGE's
 * circular-shift register over the last L bits (paper SIII-A:
 * "branch predictors used in today's hardware already use a similar
 * hashing mechanism"). That register always equals
 *
 *     fold(L) = XOR over i < L of h_i << (i mod w)
 *
 * with h_0 the newest bit. Writing b_a for the a-th bit ever pushed
 * and keeping, per distinct width, the prefix register
 *
 *     R(n) = XOR over a < n of b_a << ((-a) mod w)
 *
 * plus a ring of its past values, every view of that width is
 *
 *     fold(L) = rotl_w(R(n) ^ R(n - L), (n - 1) mod w).
 *
 * So push() costs one XOR and one ring store per distinct width,
 * however many views share it, and a read costs two loads, an XOR
 * and a rotate. The rotate's right shift by up to w = 32 is done as
 * two shifts, so no shift reaches the width of its 32-bit operand.
 * Each ring holds the next power of two above its longest view, so
 * R(n - L) is never overwritten; before L pushes that slot has never
 * been written and reads 0, matching a register that has not yet
 * filled its window.
 *
 * foldedValues() reads every view in one call. Views are batched in
 * registration order: each run of up to four consecutively
 * registered views of the same width is one group, read with one
 * load of its width's prefix register and rotate amount and four
 * ring loads, XORs and rotates by that same amount. A caller that
 * registers its views four at a time per width (as TageScl does)
 * gets only full groups; any order is correct.
 */
class GlobalHistory
{
  public:
    explicit GlobalHistory(unsigned capacity = 4096);

    /** Record one resolved conditional-branch direction. */
    void
    push(bool taken)
    {
        uint32_t b = taken ? 1 : 0;
        bits_[count_ & bitsMask_] = static_cast<uint8_t>(b);
        recent_ = (recent_ << 1) | b;
        ++count_;
        for (Lane &lane : lanes_) {
            // Bit number count-1 lands at (-(count-1)) mod width.
            lane.prefix ^= b << (lane.rshift - 1);
            lane.ring[count_ & lane.ringMask] = lane.prefix;
            lane.rshift = lane.rshift == 1 ? lane.width : lane.rshift - 1;
        }
    }

    /** The i-th most recent direction (i = 0 is the newest). */
    bool
    bit(unsigned i) const
    {
        whisper_assert(i < capacity_);
        return bits_[(count_ - 1 - i) & bitsMask_];
    }

    /** Number of outcomes pushed so far (not capped). */
    uint64_t count() const { return count_; }
    unsigned capacity() const { return capacity_; }

    /**
     * The last @p n bits packed into a uint64 (bit 0 = most recent).
     * @p n must be <= 64.
     */
    uint64_t
    lastBits(unsigned n) const
    {
        whisper_assert(n <= 64 && n <= capacity_);
        return recent_ & maskBits(n);
    }

    /**
     * XOR-fold of the last @p length bits into @p width bits,
     * computed from the raw ring by running the circular-shift
     * register bit by bit (reference implementation for the folded
     * views).
     */
    uint32_t foldedHash(unsigned length, unsigned width) const;

    /**
     * Register a folded view of the last @p length bits (1 ..
     * capacity()) folded to @p width bits (1 .. 32). Returns the
     * view's index for later lookup. Must be called before any
     * push().
     */
    size_t addFoldedView(unsigned length, unsigned width);

    /** Current value of folded view @p idx. */
    uint32_t
    foldedValue(size_t idx) const
    {
        const View &view = views_[idx];
        const Lane &lane = lanes_[view.lane];
        return lane.rotate(
            lane.prefix ^ lane.ring[(count_ - view.length) & lane.ringMask]);
    }

    /** Number of registered folded views. */
    size_t numViews() const { return views_.size(); }

    /**
     * Every view's current value in one call: out[i] = foldedValue(i)
     * for each i < numViews(). @p out must hold numViews() values.
     */
    void
    foldedValues(uint32_t *out) const
    {
        if (groups_.empty())
            return;
        // Every group but the last stores all four values: a partial
        // group's spare values land on the next group's slots, which
        // that group then overwrites.
        for (size_t g = 0; g + 1 < groups_.size(); ++g)
            readGroup(groups_[g], out + groups_[g].first);
        const Group &last = groups_.back();
        uint32_t v[4];
        readGroup(last, v);
        for (unsigned k = 0; k < last.count; ++k)
            out[last.first + k] = v[k];
    }

    void reset();

  private:
    /** The prefix register and its ring for one distinct width. */
    struct Lane
    {
        unsigned width = 0;
        unsigned rshift = 1;  //!< width - ((count - 1) mod width)
        uint32_t mask = 0;    //!< the low 'width' bits
        uint32_t prefix = 0;  //!< R(count)
        uint64_t ringMask = 0;
        std::vector<uint32_t> ring; //!< ring[n & ringMask] = R(n)

        /** rotl_width(@p x, (count - 1) mod width) of a width-bit
         * @p x. The right shift by rshift (1 .. width, so up to 32)
         * is split in two so that neither shift reaches 32. */
        uint32_t
        rotate(uint32_t x) const
        {
            return ((x << (width - rshift)) | ((x >> 1) >> (rshift - 1))) &
                   mask;
        }
    };

    struct View
    {
        unsigned lane;
        unsigned length;
    };

    /** Up to four consecutively registered views of one width. A
     * group of fewer than four repeats its first length in the spare
     * slots, whose values are computed but not stored. */
    struct Group
    {
        unsigned lane;
        unsigned first; //!< index of the group's first view
        unsigned count; //!< views in the group, 1..4
        std::array<unsigned, 4> length;
    };

    /** The four values of group @p g (spare slots included). */
    void
    readGroup(const Group &g, uint32_t *out) const
    {
        const Lane &lane = lanes_[g.lane];
        for (unsigned k = 0; k < 4; ++k) {
            out[k] = lane.rotate(
                lane.prefix ^ lane.ring[(count_ - g.length[k]) & lane.ringMask]);
        }
    }

    unsigned capacity_;
    uint64_t bitsMask_;
    std::vector<uint8_t> bits_; //!< raw ring, power-of-two sized
    uint64_t count_ = 0;
    uint64_t recent_ = 0;       //!< the last 64 bits, newest at bit 0
    std::vector<Lane> lanes_;
    std::vector<View> views_;
    std::vector<Group> groups_;
};

} // namespace whisper

#endif // WHISPER_TRACE_GLOBAL_HISTORY_HH
