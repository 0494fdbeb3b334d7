#include "bp/simple_predictors.hh"

#include "util/bits.hh"

namespace whisper
{

BimodalPredictor::BimodalPredictor(unsigned log2Entries)
    : table_(1ULL << log2Entries, SatCounter(2, 1))
{
}

size_t
BimodalPredictor::indexFor(uint64_t pc) const
{
    return pcIndexBits(pc) & (table_.size() - 1);
}

bool
BimodalPredictor::predict(uint64_t pc, bool)
{
    return table_[indexFor(pc)].predictTaken();
}

void
BimodalPredictor::update(uint64_t pc, bool taken, bool, bool)
{
    table_[indexFor(pc)].update(taken);
}

GsharePredictor::GsharePredictor(unsigned log2Entries,
                                 unsigned historyLen)
    : historyLen_(historyLen),
      table_(1ULL << log2Entries, SatCounter(2, 1))
{
}

size_t
GsharePredictor::indexFor(uint64_t pc) const
{
    uint64_t idx = pcIndexBits(pc) ^ foldXor(history_ & maskBits(historyLen_),
                                       ceilLog2(table_.size()));
    return idx & (table_.size() - 1);
}

bool
GsharePredictor::predict(uint64_t pc, bool)
{
    return table_[indexFor(pc)].predictTaken();
}

void
GsharePredictor::update(uint64_t pc, bool taken, bool, bool)
{
    table_[indexFor(pc)].update(taken);
    history_ = (history_ << 1) | static_cast<uint64_t>(taken);
}

} // namespace whisper
