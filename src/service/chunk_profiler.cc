#include "service/chunk_profiler.hh"

#include "util/logging.hh"

namespace whisper
{

ChunkProfiler::ChunkProfiler(const WhisperConfig &cfg,
                             std::unique_ptr<BranchPredictor> baseline,
                             const Options &opt)
    : cfg_(cfg), opt_(opt), baseline_(std::move(baseline)),
      lengths_(geometricLengths(cfg)),
      history_(2 * cfg.maxHistoryLength)
{
    whisper_assert(baseline_ != nullptr);
    for (unsigned len : lengths_)
        history_.addFoldedView(len, cfg_.hashWidth);
}

void
ChunkProfiler::trackHard(uint64_t pc)
{
    hard_.insert(pc);
}

BranchProfile
ChunkProfiler::profileChunk(const std::vector<BranchRecord> &records)
{
    BranchProfile profile(cfg_);

    for (const BranchRecord &rec : records) {
        // During warm-up the baseline and history still train, but
        // nothing is recorded into the profile.
        bool warm = recordsProfiled_ >= opt_.statsWarmupRecords;
        ++recordsProfiled_;
        if (warm)
            profile.totalInstructions +=
                static_cast<uint64_t>(rec.instGap) + 1;
        if (!rec.isConditional()) {
            baseline_->onRecord(rec);
            continue;
        }

        bool pred = baseline_->predict(rec.pc, rec.taken);
        baseline_->update(rec.pc, rec.taken, pred);
        baseline_->onRecord(rec);

        if (!warm) {
            history_.push(rec.taken);
            continue;
        }

        ++profile.totalConditionals;
        BranchProfileEntry &e = profile.entry(rec.pc);
        ++e.executions;
        if (rec.taken)
            ++e.takenCount;
        bool mispredicted = pred != rec.taken;
        if (mispredicted) {
            ++e.baselineMispredicts;
            ++profile.totalMispredicts;
            if (opt_.adaptivePromotion &&
                !hard_.contains(rec.pc) &&
                hard_.size() < opt_.maxHardBranches) {
                uint64_t &misses = lifetimeMispredicts_[rec.pc];
                if (++misses >= opt_.promoteMispredicts)
                    hard_.insert(rec.pc);
            }
        }

        if (hard_.contains(rec.pc)) {
            if (!e.hard)
                profile.markHard(rec.pc);
            for (size_t l = 0; l < lengths_.size(); ++l)
                e.byLength[l].record(history_.foldedValue(l),
                                     rec.taken);
            e.raw4.record(
                static_cast<unsigned>(history_.lastBits(4)),
                rec.taken);
            e.raw8.record(
                static_cast<unsigned>(history_.lastBits(8)),
                rec.taken);
        }
        history_.push(rec.taken);
    }
    return profile;
}

} // namespace whisper
