#include "core/legacy_hint_buffer.hh"

#include "util/logging.hh"

namespace whisper
{

LegacyHintBuffer::LegacyHintBuffer(unsigned entries)
    : capacity_(entries)
{
    whisper_assert(entries >= 1);
}

void
LegacyHintBuffer::insert(uint64_t branchPc, const BrHint &hint)
{
    auto it = map_.find(branchPc);
    if (it != map_.end()) {
        // Refresh the existing entry and move it to MRU.
        ++refreshes_;
        it->second->hint = hint;
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    if (map_.size() >= capacity_) {
        ++evictions_;
        map_.erase(lru_.back().pc);
        lru_.pop_back();
    }
    ++insertions_;
    lru_.push_front(Node{branchPc, hint});
    map_[branchPc] = lru_.begin();
}

const BrHint *
LegacyHintBuffer::lookup(uint64_t branchPc)
{
    auto it = map_.find(branchPc);
    if (it == map_.end()) {
        ++misses_;
        return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->hint;
}

void
LegacyHintBuffer::clear()
{
    lru_.clear();
    map_.clear();
}

void
LegacyHintBuffer::resetStats()
{
    hits_ = 0;
    misses_ = 0;
    insertions_ = 0;
    refreshes_ = 0;
    evictions_ = 0;
}

std::vector<uint64_t>
LegacyHintBuffer::lruOrder() const
{
    std::vector<uint64_t> order;
    order.reserve(lru_.size());
    for (const auto &node : lru_)
        order.push_back(node.pc);
    return order;
}

} // namespace whisper
