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
        s = static_cast<size_t>(
            std::min_element(lastUse_.begin(), lastUse_.end()) -
            lastUse_.begin());
        --resident_[bucket(pcs_[s])];
        ++resident_[bucket(branchPc)];
    }
    pcs_[s] = branchPc;
    hints_[s] = hint;
    lastUse_[s] = ++clock_;
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
