/**
 * @file
 * Sparse-correlation screening of the formula-search space.
 *
 * Algorithm 1 is exhaustive in two dimensions: it scans every
 * candidate history length and scores a fixed randomized slice of
 * all formula encodings at each one. Zouzias et al. ("Identifying
 * and Exploiting Sparse Branch Correlations...", PAPERS.md) observe
 * that hard branches correlate with only a handful of history
 * positions — most lengths and most input bits carry no signal for
 * a given branch. This pass scores each candidate length and each
 * hashed-history input bit against the branch outcome using the
 * per-branch sample tables the profiler already collects, and emits
 * a pruned per-branch candidate set:
 *
 *  - the top-K *distinct* history lengths by achievable gain (the
 *    oracle headroom of that length's table over the static bias),
 *    K counting distinct length values even when the caller's
 *    series contains duplicates;
 *  - a mask of informative input bits, scored by mutual information
 *    between the bit of the hashed key and the outcome.
 *
 * Guarantee: a position with *perfect* correlation (a length, or a
 * bit within a kept length, whose value determines the outcome on
 * every recorded sample) is never pruned, regardless of budgets —
 * the screening may only drop provably-weaker candidates.
 *
 * The trainer uses the mask to discard candidate encodings whose
 * support touches an uninformative bit (see
 * TruthTableCache::supportMask), and the length list to skip
 * FIND-BOOLEAN-FORMULA calls entirely.
 *
 * Cost model: each (branch, length) table is read once for its
 * sample, taken and oracle (sum of min(T, NT)) mass, which gives the
 * length's gain. Per-bit side sums cost one more pass, taken only
 * where they can matter: for a table whose oracle is 0 (a key seen
 * both ways puts both outcomes on one side of every bit, so no other
 * table can hold a perfectly correlated bit) and for the at most
 * maxLengths kept tables, whose bits are scored by mutual
 * information. The screen thus costs about one pass per table.
 */

#ifndef WHISPER_CORE_CORRELATION_SCREEN_HH
#define WHISPER_CORE_CORRELATION_SCREEN_HH

#include <cstdint>
#include <vector>

#include "core/profile.hh"

namespace whisper
{

/** Screening budgets and thresholds. */
struct ScreenConfig
{
    /** Master switch: disabled = the trainer keeps the exhaustive
     * length scan and the full randomized candidate slice. */
    bool enabled = true;
    /** Distinct history lengths kept per branch (duplicates in the
     * caller's series collapse before this budget applies). */
    unsigned maxLengths = 4;
    /** Keep input bits scoring at least this fraction of the
     * best bit's mutual information. */
    double bitKeepFraction = 1.0 / 64.0;
    /** Never mask the input space below this many bits (a formula
     * over too few inputs cannot express much). */
    unsigned minBits = 4;
    /** When mask-filtering leaves fewer than this many candidate
     * encodings, the trainer falls back to the unfiltered slice. */
    unsigned minFormulaCandidates = 32;
};

/** Pruned per-branch candidate set. */
struct BranchScreen
{
    /** Kept indices into the caller's length series, ascending (so
     * BrHint::historyIdx keeps its meaning). Empty only when the
     * entry has no populated tables. */
    std::vector<unsigned> lengthIdx;
    /** Informative hashed-history bits (bit b set = keep input b). */
    uint8_t inputMask = 0xFF;
};

/** The screening pass (stateless; one instance per trainer). */
class CorrelationScreen
{
  public:
    explicit CorrelationScreen(const ScreenConfig &cfg = ScreenConfig{});

    const ScreenConfig &config() const { return cfg_; }

    /**
     * Score and prune the candidate set of one hard branch.
     * @p lengths is the caller's candidate series; entry.byLength
     * must be parallel to it.
     */
    BranchScreen screenBranch(const BranchProfileEntry &entry,
                              const std::vector<unsigned> &lengths) const;

    /**
     * Indices of the first occurrence of each distinct value of
     * @p lengths, in series order. The "top-K lengths" budget
     * counts distinct lengths through this, so a series with
     * duplicated entries cannot eat the budget with copies.
     */
    static std::vector<unsigned>
    distinctLengthIndices(const std::vector<unsigned> &lengths);

  private:
    ScreenConfig cfg_;
};

} // namespace whisper

#endif // WHISPER_CORE_CORRELATION_SCREEN_HH
