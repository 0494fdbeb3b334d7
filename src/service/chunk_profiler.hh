/**
 * @file
 * Single-pass streaming profile collection for whisperd.
 *
 * The offline profiler (sim/collectProfile) makes two passes over a
 * materialized trace; a service consuming an endless chunk stream
 * gets one look at each record. ChunkProfiler therefore keeps the
 * baseline predictor, the global history and the hard-branch set
 * alive across chunks and emits one partial BranchProfile per chunk.
 * Because every piece of profiling state threads through chunk
 * boundaries, the per-chunk profiles combine exactly:
 *
 *   Profile::merge(profile(chunk A), profile(chunk B))
 *     == profile(chunk A ++ chunk B)
 *
 * so a tenant's accumulated profile after any number of chunks is
 * exactly the profile of their concatenation.
 *
 * Each record runs the same two steps as the offline profiler:
 * BranchProfile's count step, then its sample step for hard
 * branches. Hard branches are promoted adaptively: once a branch has
 * accumulated WhisperConfig::minMispredictions lifetime
 * mispredictions it starts collecting the hashed-history sample
 * tables of Algorithm 1 (the offline profiler instead selects them
 * between its two passes).
 */

#ifndef WHISPER_SERVICE_CHUNK_PROFILER_HH
#define WHISPER_SERVICE_CHUNK_PROFILER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bp/branch_predictor.hh"
#include "core/profile.hh"
#include "trace/global_history.hh"

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
         * Counted from profiler birth, so merge equality holds.
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

    /** Profile one chunk, advancing the persistent state. */
    BranchProfile profileChunk(const std::vector<BranchRecord> &records);

  private:
    WhisperConfig cfg_;
    Options opt_;
    std::unique_ptr<BranchPredictor> baseline_;
    GlobalHistory history_;
    std::unordered_set<uint64_t> hard_;
    /** Lifetime misprediction counts driving promotion. */
    std::unordered_map<uint64_t, uint64_t> lifetimeMispredicts_;
    uint64_t recordsProfiled_ = 0;
};

} // namespace whisper

#endif // WHISPER_SERVICE_CHUNK_PROFILER_HH
