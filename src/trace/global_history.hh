/**
 * @file
 * Global branch history registers: a raw bit ring plus TAGE-style
 * folded (hashed) views of configurable lengths.
 */

#ifndef WHISPER_TRACE_GLOBAL_HISTORY_HH
#define WHISPER_TRACE_GLOBAL_HISTORY_HH

#include <cstddef>
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
 * length).
 *
 * A folded view of length L and width w is the value of TAGE's
 * circular-shift register over the last L bits (paper SIII-A:
 * "branch predictors used in today's hardware already use a similar
 * hashing mechanism"). That register always equals
 *
 *     fold(L) = XOR over i < L of h_i << (i mod w)
 *
 * with h_0 the newest bit. Keeping, per distinct width, the register
 * of unbounded length
 *
 *     A(n) = XOR over i < n of h_i << (i mod w)
 *
 * (n bits pushed; A(n + 1) = rotl_w(A(n), 1) ^ b with b the pushed
 * bit) plus a ring of its past values, every view of that width is
 *
 *     fold(L) = A(n) ^ rotl_w(A(n - L), L mod w),
 *
 * since the bits older than the window sit in A(n - L), each L places
 * further from the newest. So push() costs one rotate, one XOR and
 * one ring store per distinct width, however many views share it,
 * and a read costs a load, a rotate by the view's constant amount
 * and an XOR. The rotate's right shift by w - (L mod w), up to 32,
 * is done as two shifts, so no shift reaches the width of its 32-bit
 * operand. Before L pushes the ring slot of A(n - L) has never been
 * written and reads 0, matching a register that has not yet filled
 * its window.
 *
 * foldedValues() reads every view at the current position.
 * pushRun() pushes a run of outcomes and writes every view's value
 * before each push, the same values push() and foldedValues() would
 * give one at a time. It steps the registers through up to kMaxRun
 * outcomes, then reads each view over those positions with one
 * vectorizable loop: since the rotate amount is a constant of the
 * view, the values are a lane-wise XOR and rotate of two runs of
 * ring slots. Each ring holds a power of two above its longest view
 * plus kMaxRun, so A(n - L) outlives a run's stores, and its first
 * kMaxRun slots are mirrored past its end, so both runs are
 * contiguous.
 */
class GlobalHistory
{
  public:
    /** Longest run pushRun() reads in one pass; longer runs are
     * read in passes of this many outcomes. */
    static constexpr size_t kMaxRun = 64;

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
            lane.reg = lane.rotl1(lane.reg) ^ b;
            lane.store(count_, lane.reg);
        }
    }

    /**
     * Push the @p n outcomes @p taken[0..n) (each 0 or 1), oldest
     * first. Before each push j, every view's value is written to
     * out[v * stride + j] for view v; @p stride must be at least
     * @p n, and @p out must hold numViews() rows of @p stride.
     */
    void pushRun(const uint8_t *taken, size_t n, uint32_t *out,
                 size_t stride);

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
        return lane.reg ^
               view.rotate(lane.ring[(count_ - view.length) & lane.ringMask]);
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
        for (size_t i = 0; i < views_.size(); ++i)
            out[i] = foldedValue(i);
    }

    void reset();

  private:
    /** The register A and its ring for one distinct width. */
    struct Lane
    {
        unsigned width = 0;
        uint32_t mask = 0;    //!< the low 'width' bits
        uint32_t reg = 0;     //!< A(count)
        uint64_t ringMask = 0;
        /** ring[n & ringMask] = A(n); slots below kMaxRun are
         * mirrored at ringMask + 1 + slot. */
        std::vector<uint32_t> ring;

        uint32_t
        rotl1(uint32_t x) const
        {
            return ((x << 1) | (x >> (width - 1))) & mask;
        }

        void
        store(uint64_t n, uint32_t value)
        {
            uint64_t slot = n & ringMask;
            ring[slot] = value;
            if (slot < kMaxRun)
                ring[ringMask + 1 + slot] = value;
        }
    };

    struct View
    {
        unsigned lane;
        unsigned length;
        uint32_t mask;   //!< the lane's width mask
        unsigned shl;    //!< length mod width
        unsigned shr;    //!< width - 1 - shl: the right shift less one

        /** rotl_width(@p x, length mod width) of a width-bit @p x. */
        uint32_t
        rotate(uint32_t x) const
        {
            return ((x << shl) | ((x >> 1) >> shr)) & mask;
        }
    };

    unsigned capacity_;
    uint64_t bitsMask_;
    std::vector<uint8_t> bits_; //!< raw ring, power-of-two sized
    uint64_t count_ = 0;
    uint64_t recent_ = 0;       //!< the last 64 bits, newest at bit 0
    std::vector<Lane> lanes_;
    std::vector<View> views_;
};

} // namespace whisper

#endif // WHISPER_TRACE_GLOBAL_HISTORY_HH
