#include "uarch/btb.hh"

#include <algorithm>

#include "util/bits.hh"
#include "util/logging.hh"

namespace whisper
{

namespace
{

/** Marks an empty way. */
constexpr uint64_t kEmpty = ~uint64_t{0};

} // namespace

Btb::Btb(unsigned entries, unsigned ways) : ways_(ways)
{
    whisper_assert(entries >= ways && ways >= 1);
    uint64_t sets = entries / ways;
    whisper_assert(isPowerOfTwo(sets));
    setMask_ = sets - 1;
    entries_.assign(sets * ways_, Entry{kEmpty, 0});
}

Btb::Entry *
Btb::setFor(uint64_t pc)
{
    return &entries_[(pcIndexBits(pc) & setMask_) * ways_];
}

bool
Btb::lookup(uint64_t pc, uint64_t &target)
{
    Entry *set = setFor(pc);
    for (unsigned w = 0; w < ways_; ++w) {
        if (set[w].pc == pc) {
            target = set[w].target;
            std::rotate(set, set + w, set + w + 1);
            ++hits_;
            return true;
        }
    }
    ++misses_;
    return false;
}

void
Btb::update(uint64_t pc, uint64_t target)
{
    whisper_assert(pc != kEmpty, "pc ~0 marks an empty BTB way");
    Entry *set = setFor(pc);
    // Stop at the match, else at the tail: the LRU entry or, while
    // the set is not yet full, an empty way.
    unsigned w = 0;
    while (w + 1 < ways_ && set[w].pc != pc)
        ++w;
    std::copy_backward(set, set + w, set + w + 1);
    set[0] = {pc, target};
}

} // namespace whisper
