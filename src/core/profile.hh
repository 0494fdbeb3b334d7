/**
 * @file
 * In-production profile data (paper SIV, step 1-2).
 *
 * A BranchProfile is what Whisper's offline analysis consumes: for
 * every static conditional branch, its execution/taken counts and the
 * profiled processor's misprediction count (the information Intel
 * LBR provides); and for branches selected as "hard", the
 * taken/not-taken sample tables keyed by hashed history at each
 * candidate length (the information derived from Intel PT traces).
 *
 * Both profilers (sim/collectProfile over a trace, service/
 * ChunkProfiler over a chunk stream) fill a profile through the same
 * two steps: count() per record, then sample() per hard-branch
 * execution, reading a history from sampleHistory().
 */

#ifndef WHISPER_CORE_PROFILE_HH
#define WHISPER_CORE_PROFILE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/history_hash.hh"
#include "trace/branch_record.hh"
#include "trace/global_history.hh"

namespace whisper
{

/**
 * Taken/not-taken counts per hashed-history value (the T and NT
 * hash tables of Algorithm 1) for one history length.
 */
struct HashedSampleTable
{
    std::vector<uint32_t> taken;
    std::vector<uint32_t> notTaken;

    HashedSampleTable() = default;
    explicit HashedSampleTable(unsigned keyBits)
        : taken(1u << keyBits, 0), notTaken(1u << keyBits, 0)
    {
    }

    void
    record(unsigned key, bool wasTaken)
    {
        if (wasTaken)
            ++taken[key];
        else
            ++notTaken[key];
    }

    /** Elementwise sum (profile merging). */
    void addFrom(const HashedSampleTable &other);

    /** Total samples recorded. */
    uint64_t totalSamples() const;

    /**
     * Mispredictions of the best possible per-key constant
     * prediction: sum over keys of min(T, NT). This is the floor any
     * formula over this key space can reach.
     */
    uint64_t oracleMispredicts() const;

    bool empty() const { return taken.empty(); }

    bool operator==(const HashedSampleTable &o) const = default;
};

/** Profile record for one static conditional branch. */
struct BranchProfileEntry
{
    /** Bound on the candidate history lengths (sampleHistory()). */
    static constexpr size_t kMaxLengths = 64;

    uint64_t pc = 0;
    uint64_t executions = 0;
    uint64_t takenCount = 0;
    /** Mispredictions of the profiled (baseline) predictor. */
    uint64_t baselineMispredicts = 0;
    /** True when detailed sample tables were collected. */
    bool hard = false;

    /** Hashed tables, one per candidate history length. */
    std::vector<HashedSampleTable> byLength;
    /** Raw (unhashed) last-4 and last-8 tables for the ROMBF
     * baselines. */
    HashedSampleTable raw4;
    HashedSampleTable raw8;

    uint64_t notTakenCount() const { return executions - takenCount; }

    /** Mispredictions of the best static (always/never) prediction. */
    uint64_t
    biasMispredicts() const
    {
        return std::min(takenCount, notTakenCount());
    }

    double
    baselineAccuracy() const
    {
        return executions == 0
            ? 1.0
            : 1.0 - static_cast<double>(baselineMispredicts) /
                    executions;
    }

    /**
     * Sample step (PT stand-in): record one execution of this hard
     * branch resolving @p taken under every hashed-history view of
     * @p history (built by sampleHistory()), read in one batch, and
     * under the raw last-4 and last-8 bits.
     */
    void
    sample(bool taken, const GlobalHistory &history)
    {
        uint32_t folded[kMaxLengths];
        history.foldedValues(folded);
        for (size_t l = 0; l < byLength.size(); ++l)
            byLength[l].record(folded[l], taken);
        raw4.record(static_cast<unsigned>(history.lastBits(4)), taken);
        raw8.record(static_cast<unsigned>(history.lastBits(8)), taken);
    }

    bool operator==(const BranchProfileEntry &o) const = default;
};

/**
 * The global history the sample step reads: one folded view of
 * hashWidth bits per candidate length of @p cfg, in series order.
 */
GlobalHistory sampleHistory(const WhisperConfig &cfg);

/**
 * Whole-application profile: per-branch entries plus trace-level
 * totals. Profiles from multiple inputs can be merged (Fig. 18).
 */
class BranchProfile
{
  public:
    explicit BranchProfile(const WhisperConfig &cfg = WhisperConfig{});

    const WhisperConfig &config() const { return cfg_; }
    const std::vector<unsigned> &lengths() const { return lengths_; }

    /** Find-or-create the entry for @p pc. */
    BranchProfileEntry &entry(uint64_t pc);

    /**
     * Count step (LBR stand-in): add @p rec's instructions to the
     * totals and, for a conditional, one execution to its branch's
     * entry, with a baseline misprediction when @p miss (the
     * step() verdict of the profiled predictor). @p known,
     * when given, is that entry, which saves the lookup.
     * @return the branch's entry, or nullptr for a non-conditional.
     */
    BranchProfileEntry *count(const BranchRecord &rec, bool miss,
                              BranchProfileEntry *known = nullptr);

    /** Allocate the detailed tables for @p pc and mark it hard. */
    void markHard(uint64_t pc);

    size_t numBranches() const { return entries_.size(); }
    size_t numHardBranches() const;

    const std::unordered_map<uint64_t, BranchProfileEntry> &
    entries() const
    {
        return entries_;
    }
    std::unordered_map<uint64_t, BranchProfileEntry> &
    entries()
    {
        return entries_;
    }

    /** Hard entries sorted by descending baseline mispredictions. */
    std::vector<const BranchProfileEntry *> hardBranches() const;

    /**
     * Merge another profile (same config) into this one, summing all
     * counts; a branch is hard in the union if hard in either.
     */
    void mergeFrom(const BranchProfile &other);

    /** Structural equality of all counts and tables (test support;
     * the config itself is compared via its length series). */
    bool operator==(const BranchProfile &o) const
    {
        return lengths_ == o.lengths_ &&
               totalInstructions == o.totalInstructions &&
               totalConditionals == o.totalConditionals &&
               totalMispredicts == o.totalMispredicts &&
               entries_ == o.entries_;
    }

    uint64_t totalInstructions = 0;
    uint64_t totalConditionals = 0;
    uint64_t totalMispredicts = 0;

  private:
    WhisperConfig cfg_;
    std::vector<unsigned> lengths_;
    std::unordered_map<uint64_t, BranchProfileEntry> entries_;
};

} // namespace whisper

#endif // WHISPER_CORE_PROFILE_HH
