#include "core/static_profile.hh"

#include "core/profile.hh"

namespace whisper
{

StaticProfilePredictor::StaticProfilePredictor(
    const BranchProfile &profile, bool fallbackTaken)
    : fallbackTaken_(fallbackTaken)
{
    for (const auto &[pc, e] : profile.entries()) {
        if (e.executions > 0)
            direction_[pc] = e.takenCount >= e.notTakenCount();
    }
}

void
StaticProfilePredictor::step(std::span<const BranchRecord> records,
                             uint8_t *miss, const uint8_t *)
{
    for (size_t i = 0; i < records.size(); ++i) {
        const BranchRecord &rec = records[i];
        miss[i] = 0;
        if (!rec.isConditional())
            continue;
        auto it = direction_.find(rec.pc);
        miss[i] = (it == direction_.end() ? fallbackTaken_ : it->second) !=
                  rec.taken;
    }
}

} // namespace whisper
