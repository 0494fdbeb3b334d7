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
    }
    size_t slots = std::bit_ceil(length + size_t{1});
    if (slots > lane->ring.size()) {
        lane->ring.assign(slots, 0);
        lane->ringMask = slots - 1;
    }
    unsigned laneIdx = static_cast<unsigned>(lane - lanes_.begin());
    unsigned viewIdx = static_cast<unsigned>(views_.size());
    views_.push_back({laneIdx, length});

    // Join the previous view's group when it has the same width and
    // room; otherwise open a group padded with this length.
    if (groups_.empty() || groups_.back().lane != laneIdx ||
        groups_.back().count == 4) {
        groups_.push_back({laneIdx, viewIdx, 0, {}});
        groups_.back().length.fill(length);
    }
    Group &g = groups_.back();
    g.length[g.count++] = length;
    return viewIdx;
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
        lane.rshift = 1;
    }
}

} // namespace whisper
