#include "trace/global_history.hh"

#include <algorithm>
#include <bit>

namespace whisper
{

GlobalHistory::GlobalHistory(unsigned capacity)
    : capacity_(capacity), bitsMask_(std::bit_ceil(capacity) - 1),
      bits_(bitsMask_ + 1, 0)
{
    whisper_assert(capacity >= 1);
}

uint32_t
GlobalHistory::foldedHash(unsigned length, unsigned width) const
{
    whisper_assert(length <= capacity_);
    whisper_assert(width >= 1 && width <= 32);
    // 64 bits wide so that 'folded >> width' is defined at width 32.
    uint64_t folded = 0;
    // Walk the history oldest-to-newest, the circular-shift
    // register's insertion order.
    for (unsigned i = length; i-- > 0;) {
        uint64_t b = count_ > i ? bits_[(count_ - 1 - i) & bitsMask_] : 0;
        folded = (folded << 1) | b;
        folded ^= folded >> width;
        folded &= maskBits(width);
    }
    return static_cast<uint32_t>(folded);
}

size_t
GlobalHistory::addFoldedView(unsigned length, unsigned width)
{
    whisper_assert(count_ == 0,
                   "folded views must be added before pushes");
    whisper_assert(length >= 1 && length <= capacity_);
    whisper_assert(width >= 1 && width <= 32);
    auto lane = std::find_if(lanes_.begin(), lanes_.end(),
                             [&](const Lane &l) { return l.width == width; });
    if (lane == lanes_.end()) {
        lane = lanes_.emplace(lanes_.end());
        lane->width = width;
        lane->mask = static_cast<uint32_t>(maskBits(width));
    }
    // A run's stores reach kMaxRun past the oldest slot it reads.
    size_t slots = std::bit_ceil(length + kMaxRun + 1);
    if (lane->ring.empty() || slots > lane->ringMask + 1) {
        lane->ring.assign(slots + kMaxRun, 0);
        lane->ringMask = slots - 1;
    }
    unsigned shl = length % width;
    views_.push_back({static_cast<unsigned>(lane - lanes_.begin()), length,
                      lane->mask, shl, width - 1 - shl});
    return views_.size() - 1;
}

void
GlobalHistory::pushRun(const uint8_t *taken, size_t n, uint32_t *out,
                       size_t stride)
{
    whisper_assert(stride >= n);
    for (size_t done = 0; done < n; done += kMaxRun) {
        size_t m = std::min(kMaxRun, n - done);
        const uint8_t *t = taken + done;
        uint64_t first = count_;
        for (size_t j = 0; j < m; ++j) {
            bits_[(first + j) & bitsMask_] = t[j];
            recent_ = (recent_ << 1) | t[j];
        }
        // Registers first: a short view's window reaches into the
        // run itself.
        for (Lane &lane : lanes_) {
            uint32_t reg = lane.reg;
            for (size_t j = 0; j < m; ++j) {
                reg = lane.rotl1(reg) ^ t[j];
                lane.store(first + j + 1, reg);
            }
            lane.reg = reg;
        }
        // View v before push j: A(first + j) ^ rotate(A(first + j - L)),
        // over two contiguous runs of ring slots (the mirror).
        for (size_t v = 0; v < views_.size(); ++v) {
            const View view = views_[v];
            const Lane &lane = lanes_[view.lane];
            const uint32_t *cur = lane.ring.data() + (first & lane.ringMask);
            const uint32_t *past =
                lane.ring.data() + ((first - view.length) & lane.ringMask);
            uint32_t *o = out + v * stride + done;
            for (size_t j = 0; j < m; ++j)
                o[j] = cur[j] ^ view.rotate(past[j]);
        }
        count_ += m;
    }
}

void
GlobalHistory::reset()
{
    std::fill(bits_.begin(), bits_.end(), 0);
    count_ = 0;
    recent_ = 0;
    for (Lane &lane : lanes_) {
        std::fill(lane.ring.begin(), lane.ring.end(), 0);
        lane.reg = 0;
    }
}

} // namespace whisper
