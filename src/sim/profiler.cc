#include "sim/profiler.hh"

#include <algorithm>

#include "branchnet/branchnet_predictor.hh"
#include "sim/runner.hh"
#include "util/pc_index.hh"

namespace whisper
{

BranchProfile
collectProfile(BranchSource &trace, BranchPredictor &baseline,
               const WhisperConfig &cfg, const ProfileOptions &opt)
{
    BranchProfile profile(cfg);

    // The warm-up window is defined in records; count the stream
    // first so both passes agree on it.
    trace.rewind();
    BranchRecord rec;
    uint64_t totalRecords = 0;
    while (trace.next(rec))
        ++totalRecords;
    uint64_t warmupRecords = static_cast<uint64_t>(
        opt.statsWarmupFraction * totalRecords);

    // ---- Pass 1: baseline accuracy per branch (LBR stand-in) ----
    trace.rewind();
    uint64_t seen = 0;
    stepBlocks(trace, baseline, [&](const BranchRecord &rec, bool miss) {
        if (++seen > warmupRecords)
            profile.count(rec, miss);
    });

    // ---- Hard-branch selection ----
    std::vector<BranchProfileEntry *> candidates;
    for (auto &[pc, e] : profile.entries()) {
        if (e.baselineMispredicts >= cfg.minMispredictions &&
            e.baselineAccuracy() <= opt.maxAccuracy) {
            candidates.push_back(&e);
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const BranchProfileEntry *a,
                 const BranchProfileEntry *b) {
                  if (a->baselineMispredicts !=
                      b->baselineMispredicts)
                      return a->baselineMispredicts >
                             b->baselineMispredicts;
                  return a->pc < b->pc;
              });
    if (candidates.size() > opt.maxHardBranches)
        candidates.resize(opt.maxHardBranches);
    // Pass 2 finds a hard branch as candidates[hardIds.find(pc)].
    PcIndex hardIds(candidates.size());
    for (auto *e : candidates) {
        profile.markHard(e->pc);
        hardIds.insert(e->pc);
    }
    if (opt.branchNetStore)
        opt.branchNetStore->setTracked(hardIds.keys());

    // ---- Pass 2: sample tables for hard branches (PT stand-in) ----
    GlobalHistory history = sampleHistory(cfg);
    TokenHistory tokens;

    trace.rewind();
    seen = 0;
    while (trace.next(rec)) {
        bool counting = ++seen > warmupRecords;
        if (!rec.isConditional())
            continue;
        uint32_t id = counting ? hardIds.find(rec.pc) : PcIndex::kNone;
        if (id != PcIndex::kNone) {
            candidates[id]->sample(rec.taken, history);
            if (opt.branchNetStore) {
                BranchNetSample sample;
                sample.tokens = tokens.snapshot();
                sample.taken = rec.taken;
                opt.branchNetStore->record(rec.pc, sample);
            }
        }
        history.push(rec.taken);
        if (opt.branchNetStore)
            tokens.push(rec.pc, rec.taken);
    }

    return profile;
}

} // namespace whisper
