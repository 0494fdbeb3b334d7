#include "core/hint_buffer.hh"

#include <algorithm>
#include <utility>

namespace whisper
{

HintBuffer::HintBuffer(unsigned entries)
    : capacity_(entries ? entries : 1), pcs_(capacity_),
      hints_(capacity_), lastUse_(capacity_)
{
}

void
HintBuffer::insert(uint64_t branchPc, const BrHint &hint)
{
    size_t s = find(branchPc);
    if (s < size_) {
        ++refreshes_;
    } else if (size_ < capacity_) {
        ++insertions_;
        s = size_++;
        ++resident_[bucket(branchPc)];
    } else {
        ++insertions_;
        ++evictions_;
        s = leastRecentlyUsed();
        --resident_[bucket(pcs_[s])];
        ++resident_[bucket(branchPc)];
    }
    pcs_[s] = branchPc;
    hints_[s] = hint;
    lastUse_[s] = ++clock_;
}

size_t
HintBuffer::leastRecentlyUsed() const
{
    // A select per slot, not a branch: which slot holds the running
    // minimum is a coin flip on a thrashing buffer. Stamps are unique,
    // so this is the one slot std::min_element would pick.
    size_t victim = 0;
    uint64_t least = lastUse_[0];
    for (size_t s = 1; s < lastUse_.size(); ++s) {
        bool older = lastUse_[s] < least;
        least = older ? lastUse_[s] : least;
        victim = older ? s : victim;
    }
    return victim;
}

std::vector<uint64_t>
HintBuffer::lruOrder() const
{
    std::vector<std::pair<uint64_t, uint64_t>> byUse; // (stamp, pc)
    for (size_t s = 0; s < size_; ++s)
        byUse.emplace_back(lastUse_[s], pcs_[s]);
    std::sort(byUse.rbegin(), byUse.rend());
    std::vector<uint64_t> order;
    for (const auto &[stamp, pc] : byUse)
        order.push_back(pc);
    return order;
}

} // namespace whisper
