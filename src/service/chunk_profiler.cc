#include "service/chunk_profiler.hh"

#include "sim/runner.hh"
#include "trace/branch_trace.hh"
#include "util/logging.hh"

namespace whisper
{

ChunkProfiler::ChunkProfiler(const WhisperConfig &cfg,
                             std::unique_ptr<BranchPredictor> baseline,
                             const Options &opt)
    : opt_(opt), baseline_(std::move(baseline)),
      history_(sampleHistory(cfg)), profile_(cfg)
{
    whisper_assert(baseline_ != nullptr);
}

void
ChunkProfiler::profileChunk(const std::vector<BranchRecord> &records)
{
    TraceSource source(records);
    stepBlocks(source, *baseline_, [&](const BranchRecord &rec, bool miss) {
        // During warm-up the baseline and history still train, but
        // nothing is recorded into the profile.
        bool warm = recordsProfiled_++ >= opt_.statsWarmupRecords;
        if (!rec.isConditional()) {
            if (warm)
                profile_.count(rec, miss);
            return;
        }
        if (warm) {
            uint32_t id = ids_.insert(rec.pc);
            if (id == slots_.size())
                slots_.emplace_back();
            Slot &slot = slots_[id];
            slot.entry = profile_.count(rec, miss, slot.entry);
            BranchProfileEntry &e = *slot.entry;
            if (miss && !e.hard && hardBranches_ < opt_.maxHardBranches &&
                ++slot.lifetimeMispredicts >=
                    profile_.config().minMispredictions) {
                profile_.markHard(rec.pc);
                ++hardBranches_;
            }
            if (e.hard)
                e.sample(rec.taken, history_);
        }
        history_.push(rec.taken);
    });
}

} // namespace whisper
