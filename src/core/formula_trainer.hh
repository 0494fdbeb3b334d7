/**
 * @file
 * Algorithm 1 (FIND-BOOLEAN-FORMULA) and randomized formula testing
 * (paper SIII-B).
 */

#ifndef WHISPER_CORE_FORMULA_TRAINER_HH
#define WHISPER_CORE_FORMULA_TRAINER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/formula.hh"
#include "core/profile.hh"

namespace whisper
{

/**
 * Shared cache of formula truth tables.
 *
 * Scoring a formula against a sample table only needs the formula's
 * truth table; caching all 2^15 of them (1MB) makes exhaustive
 * sweeps and repeated randomized searches cheap.
 */
class TruthTableCache
{
  public:
    explicit TruthTableCache(unsigned numInputs = 8);

    const TruthTable &table(uint16_t encoding) const;
    unsigned numInputs() const { return numInputs_; }

    /**
     * Support mask of @p encoding: bit i is set iff flipping input
     * bit i changes the formula's output for some input vector.
     * A formula's mispredictions depend only on its supported bits,
     * so the sparse-correlation screen can discard candidates whose
     * support touches an uninformative input.
     */
    uint8_t
    supportMask(uint16_t encoding) const
    {
        return supports_[encoding];
    }

    /** Evaluate encoding on packed inputs via the cached table. */
    bool
    evaluate(uint16_t encoding, uint8_t inputs) const
    {
        const TruthTable &tt = tables_[encoding];
        return (tt[inputs / 64] >> (inputs % 64)) & 1;
    }

  private:
    unsigned numInputs_;
    std::vector<TruthTable> tables_;
    std::vector<uint8_t> supports_;
};

/**
 * The candidate set produced by randomized formula testing.
 *
 * One global Fisher-Yates permutation of all encodings is generated
 * once (from the config seed) and reused for every branch, exactly
 * as the paper specifies; a branch's candidates are the first
 * fraction * count entries of that permutation.
 */
class FormulaCandidates
{
  public:
    /**
     * @param numInputs formula arity (8 for Whisper)
     * @param fraction fraction of all encodings to consider (0..1]
     * @param seed Fisher-Yates shuffle seed
     */
    FormulaCandidates(unsigned numInputs, double fraction,
                      uint64_t seed);

    const std::vector<uint16_t> &encodings() const { return selected_; }
    unsigned numInputs() const { return numInputs_; }
    double fraction() const { return fraction_; }

    /** A different selection fraction over the same permutation. */
    std::vector<uint16_t> withFraction(double fraction) const;

  private:
    unsigned numInputs_;
    double fraction_;
    std::vector<uint16_t> permutation_;
    std::vector<uint16_t> selected_;
};

/** Result of Algorithm 1. */
struct FormulaSearchResult
{
    BoolFormula formula;
    /** m': mispredictions the chosen formula incurs on the profile. */
    uint64_t mispredicts = ~0ULL;
    /** Number of formulas actually scored. */
    uint64_t explored = 0;
    bool valid = false;
};

/**
 * Algorithm 1's inner loop (lines 5-11) over words, for one T/NT
 * table pair.
 *
 * A formula mispredicts the taken samples of every key it maps to 0
 * and the not-taken samples of every key it maps to 1, so
 *   m(tt) = sum_k T[k] + sum_{k : tt(k) = 1} (NT[k] - T[k]).
 * The scorer holds sum_k T[k] and, for each byte of keys, the sum of
 * NT - T over each of the 256 subsets of that byte's 8 keys. Scoring
 * a truth table is then one lookup per truth-table byte (32 for 256
 * keys) instead of one bit test per key. Bytes past the last key
 * weigh 0. Sums are 64-bit, exact for any uint32_t counts.
 */
class FormulaScorer
{
  public:
    /** Largest key space a 256-bit truth table can score. */
    static constexpr size_t kMaxKeys = 256;

    explicit FormulaScorer(const HashedSampleTable &samples);

    /** Mispredictions of the formula with truth table @p tt. */
    uint64_t
    score(const TruthTable &tt) const
    {
        // Four accumulators keep the lookups off one add chain.
        int64_t a0 = takenSum_, a1 = 0, a2 = 0, a3 = 0;
        for (unsigned w = 0; w < words_; ++w) {
            const auto *sums = &subsetSums_[8 * w];
            uint64_t x = tt[w];
            a0 += sums[0][x & 0xFF];
            a1 += sums[1][(x >> 8) & 0xFF];
            a2 += sums[2][(x >> 16) & 0xFF];
            a3 += sums[3][(x >> 24) & 0xFF];
            a0 += sums[4][(x >> 32) & 0xFF];
            a1 += sums[5][(x >> 40) & 0xFF];
            a2 += sums[6][(x >> 48) & 0xFF];
            a3 += sums[7][x >> 56];
        }
        return static_cast<uint64_t>(a0 + a1 + a2 + a3);
    }

  private:
    int64_t takenSum_ = 0;
    /** Truth-table words that cover the keys. */
    unsigned words_ = 0;
    /** Rows [0, 8 * words_) are filled by the constructor; score()
     * reads no others, so the rest stay unwritten. */
    std::array<std::array<int64_t, 256>, kMaxKeys / 8> subsetSums_;
};

/**
 * Algorithm 1: pick the candidate formula with the fewest
 * mispredictions on the T/NT tables. Candidates are scored in order;
 * the first strict minimum wins and the scan stops at 0.
 */
FormulaSearchResult findBooleanFormula(
    const HashedSampleTable &samples,
    const std::vector<uint16_t> &candidates,
    const TruthTableCache &cache);

} // namespace whisper

#endif // WHISPER_CORE_FORMULA_TRAINER_HH
