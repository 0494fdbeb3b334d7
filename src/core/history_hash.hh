/**
 * @file
 * Hashed history correlation support (paper SIII-A).
 *
 * Whisper considers m candidate history lengths in a geometric
 * series a, ar, ar^2, ..., ar^(m-1) with r = (N/a)^(1/(m-1)) and
 * XOR-folds each candidate history into a fixed hashWidth-bit value.
 */

#ifndef WHISPER_CORE_HISTORY_HASH_HH
#define WHISPER_CORE_HISTORY_HASH_HH

#include <cstdint>
#include <vector>

namespace whisper
{

/** Whisper design parameters (paper Table III defaults). */
struct WhisperConfig
{
    unsigned minHistoryLength = 8;    //!< a
    unsigned maxHistoryLength = 1024; //!< N
    unsigned numHistoryLengths = 16;  //!< m
    unsigned hashWidth = 8;           //!< bits of the hashed history
    unsigned hintBufferEntries = 32;  //!< run-time hint buffer size
    /**
     * Fraction of all formula encodings scored per candidate length
     * (randomized formula testing). The paper's operating point is
     * 0.001 (0.1%) on profiles of 100M+ instructions; at this
     * reproduction's ~10M-instruction profiles the per-branch
     * sample tables cover less of the key space, and a slightly
     * larger sample (1%) is needed for formulas that generalize to
     * unseen inputs. bench_fig15_randomized sweeps the tradeoff.
     */
    double formulaFraction = 0.01;
    /** Seed of the global Fisher-Yates formula permutation. */
    uint64_t formulaShuffleSeed = 0xF0F0F0F0ULL;
    /**
     * A branch receives a hint only when the formula removes at
     * least this fraction of its profiled mispredictions. The bar
     * is deliberately high: a hint that merely ties the dynamic
     * predictor on the training input tends to lose on unseen
     * inputs (SV-B's input-sensitivity discussion).
     */
    double minImprovement = 0.15;
    /**
     * ...and save at least this many mispredictions per execution
     * of the branch. Filters hints whose absolute benefit is too
     * thin to survive input shift (a hint that wins 0.2% of
     * executions on the training input easily loses that margin on
     * an unseen one).
     */
    double minGainPerExecution = 0.005;
    /**
     * Fewest baseline mispredictions that make a branch hard: the
     * offline and streaming profilers collect sample tables only at
     * or above it, and the trainer ignores branches below it.
     */
    uint64_t minMispredictions = 16;
    /**
     * Warm-start quality retention. A warm seed skips the cold
     * search only when its mispredict ratio on the *fresh* profile
     * (best / baseline) is no worse than the ratio it achieved when
     * it was trained, scaled by this slack plus a small absolute
     * allowance for sampling noise between profiles. Without this,
     * a drifted formula that still clears the 15% bias gate — while
     * a cold search would find a far better one — pins the branch
     * at degraded quality for as long as it keeps passing gates.
     */
    double warmRetentionSlack = 1.25;
    double warmRetentionNoise = 0.02;
};

/**
 * The geometric history-length series, exactly as specified in the
 * paper: lengths[i] = round(a * r^i), forced strictly increasing and
 * capped at N, ending exactly at N. Defaults give
 * {8, 11, 15, 20, 26, ..., 1024}. When m is large relative to N - a
 * the monotonicity walk would overrun N; such duplicates are dropped,
 * so the result may carry fewer than m (but at least two) entries —
 * e.g. (a=1, n=4, m=8) yields {1, 2, 3, 4}.
 */
std::vector<unsigned> geometricLengths(unsigned a, unsigned n,
                                       unsigned m);

/** Convenience: the series for a given config. */
std::vector<unsigned> geometricLengths(const WhisperConfig &cfg);

} // namespace whisper

#endif // WHISPER_CORE_HISTORY_HASH_HH
