/**
 * @file
 * Single-pass streaming profile collection for whisperd.
 *
 * The offline profiler (sim/collectProfile) makes two passes over a
 * materialized trace; a service consuming an endless chunk stream
 * gets one look at each record. ChunkProfiler therefore keeps the
 * baseline predictor, the global history, the hard-branch set and
 * the tenant's one running BranchProfile alive across chunks, and
 * counts every chunk straight into that profile. Because all of
 * this state threads through chunk boundaries, chunk boundaries do
 * not change the running profile:
 *
 *   profileChunk(A); profileChunk(B)   ==   profileChunk(A ++ B)
 *
 * so a tenant's profile after any number of chunks is exactly the
 * profile of their concatenation.
 *
 * Each record runs the same two steps as the offline profiler:
 * BranchProfile's count step, then its sample step for hard
 * branches. Hard branches are promoted adaptively: once a branch has
 * accumulated WhisperConfig::minMispredictions lifetime
 * mispredictions it starts collecting the hashed-history sample
 * tables of Algorithm 1 (the offline profiler instead selects them
 * between its two passes). A flat PC table gives each branch a slot
 * with its profile entry and lifetime mispredictions, so a record
 * costs one probe.
 */

#ifndef WHISPER_SERVICE_CHUNK_PROFILER_HH
#define WHISPER_SERVICE_CHUNK_PROFILER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bp/branch_predictor.hh"
#include "core/profile.hh"
#include "trace/global_history.hh"
#include "util/pc_index.hh"

namespace whisper
{

/** Factory for fresh baseline predictor instances. */
using BaselineFactory =
    std::function<std::unique_ptr<BranchPredictor>()>;

/** Streaming profiler with state persisting across chunks. */
class ChunkProfiler
{
  public:
    struct Options
    {
        /** Cap on branches with detailed tables (memory bound). */
        unsigned maxHardBranches = 512;
        /**
         * Lifetime records to run through the baseline before any
         * statistics are recorded — the streaming analog of the
         * offline profiler's statsWarmupFraction: cold-start
         * mispredictions would otherwise make the baseline look
         * worse than its steady state and skew hint selection.
         * Counted from profiler birth, so chunking does not move it.
         */
        uint64_t statsWarmupRecords = 0;
    };

    ChunkProfiler(const WhisperConfig &cfg,
                  std::unique_ptr<BranchPredictor> baseline,
                  const Options &opt);
    ChunkProfiler(const WhisperConfig &cfg,
                  std::unique_ptr<BranchPredictor> baseline)
        : ChunkProfiler(cfg, std::move(baseline), Options{})
    {
    }

    /** Count one chunk into the running profile. */
    void profileChunk(const std::vector<BranchRecord> &records);

    /** The running profile of every record profiled so far. */
    const BranchProfile &profile() const { return profile_; }

    /** Move the running profile out, ending the stream: the profiler
     * must not profile again. */
    BranchProfile takeProfile() && { return std::move(profile_); }

  private:
    /** One branch's slot, by its PcIndex id. */
    struct Slot
    {
        BranchProfileEntry *entry = nullptr; //!< stable across rehash
        uint64_t lifetimeMispredicts = 0;    //!< drives promotion
    };

    Options opt_;
    std::unique_ptr<BranchPredictor> baseline_;
    GlobalHistory history_;
    BranchProfile profile_;
    PcIndex ids_;
    std::vector<Slot> slots_;
    unsigned hardBranches_ = 0;
    uint64_t recordsProfiled_ = 0;
};

} // namespace whisper

#endif // WHISPER_SERVICE_CHUNK_PROFILER_HH
