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
        bool b = count_ > i ? bit(i) : false;
        folded = (folded << 1) | static_cast<uint64_t>(b);
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
        lane->dup = (uint64_t{1} << width) + 1;
    }
    size_t slots = std::bit_ceil(length + size_t{1});
    if (slots > lane->ring.size()) {
        lane->ring.assign(slots, 0);
        lane->ringMask = slots - 1;
    }
    views_.push_back({static_cast<unsigned>(lane - lanes_.begin()),
                      length});
    return views_.size() - 1;
}

void
GlobalHistory::reset()
{
    std::fill(bits_.begin(), bits_.end(), 0);
    count_ = 0;
    recent_ = 0;
    for (Lane &lane : lanes_) {
        std::fill(lane.ring.begin(), lane.ring.end(), 0);
        lane.prefix = 0;
        lane.doubled = 0;
        lane.rshift = 1;
    }
}

} // namespace whisper
