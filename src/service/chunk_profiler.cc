#include "service/chunk_profiler.hh"

#include "sim/runner.hh"
#include "util/logging.hh"

namespace whisper
{

ChunkProfiler::ChunkProfiler(const WhisperConfig &cfg,
                             std::unique_ptr<BranchPredictor> baseline,
                             const Options &opt)
    : cfg_(cfg), opt_(opt), baseline_(std::move(baseline)),
      history_(sampleHistory(cfg))
{
    whisper_assert(baseline_ != nullptr);
}

BranchProfile
ChunkProfiler::profileChunk(const std::vector<BranchRecord> &records)
{
    BranchProfile profile(cfg_);

    for (const BranchRecord &rec : records) {
        bool miss = stepPredictor(*baseline_, rec);
        // During warm-up the baseline and history still train, but
        // nothing is recorded into the profile.
        bool warm = recordsProfiled_++ >= opt_.statsWarmupRecords;
        BranchProfileEntry *e = warm ? profile.count(rec, miss) : nullptr;
        if (!rec.isConditional())
            continue;

        if (e) {
            if (miss && !hard_.contains(rec.pc) &&
                hard_.size() < opt_.maxHardBranches &&
                ++lifetimeMispredicts_[rec.pc] >= cfg_.minMispredictions)
                hard_.insert(rec.pc);
            if (hard_.contains(rec.pc)) {
                if (!e->hard)
                    profile.markHard(rec.pc);
                e->sample(rec.taken, history_);
            }
        }
        history_.push(rec.taken);
    }
    return profile;
}

} // namespace whisper
