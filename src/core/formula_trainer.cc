#include "core/formula_trainer.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/rng.hh"

namespace whisper
{

namespace
{

/**
 * Inputs whose flip changes @p tt somewhere. Flipping input i < 6
 * pairs each bit with the one 2^i places up in the same word;
 * flipping input 6 or 7 pairs whole words.
 */
uint8_t
supportOf(const TruthTable &tt, unsigned numInputs)
{
    uint8_t mask = 0;
    for (unsigned i = 0; i < numInputs; ++i) {
        uint64_t diff = 0;
        if (i < 6) {
            // Compare only from the vectors with input i clear.
            uint64_t low = ~inputTruthTable(i)[0];
            for (uint64_t w : tt)
                diff |= (w ^ (w >> (1u << i))) & low;
        } else {
            unsigned stride = 1u << (i - 6);
            for (unsigned w = 0; w < 4; ++w)
                if (!(w & stride))
                    diff |= tt[w] ^ tt[w | stride];
        }
        if (diff)
            mask |= static_cast<uint8_t>(1u << i);
    }
    return mask;
}

} // namespace

TruthTableCache::TruthTableCache(unsigned numInputs)
    : numInputs_(numInputs)
{
    uint32_t count = BoolFormula::encodingCount(numInputs);
    tables_.resize(count);
    supports_.resize(count);
    for (uint32_t enc = 0; enc < count; ++enc) {
        tables_[enc] =
            BoolFormula(static_cast<uint16_t>(enc), numInputs)
                .truthTable();
        supports_[enc] = supportOf(tables_[enc], numInputs);
    }
}

const TruthTable &
TruthTableCache::table(uint16_t encoding) const
{
    whisper_assert(encoding < tables_.size());
    return tables_[encoding];
}

FormulaCandidates::FormulaCandidates(unsigned numInputs,
                                     double fraction, uint64_t seed)
    : numInputs_(numInputs), fraction_(fraction)
{
    whisper_assert(fraction > 0.0 && fraction <= 1.0,
                   "fraction=", fraction);
    uint32_t count = BoolFormula::encodingCount(numInputs);
    permutation_.resize(count);
    for (uint32_t i = 0; i < count; ++i)
        permutation_[i] = static_cast<uint16_t>(i);
    Rng rng(seed);
    rng.shuffle(permutation_);
    selected_ = withFraction(fraction);
}

std::vector<uint16_t>
FormulaCandidates::withFraction(double fraction) const
{
    whisper_assert(fraction > 0.0 && fraction <= 1.0);
    size_t n = static_cast<size_t>(fraction * permutation_.size());
    n = std::max<size_t>(n, 1);
    n = std::min(n, permutation_.size());
    return {permutation_.begin(),
            permutation_.begin() + static_cast<long>(n)};
}

FormulaScorer::FormulaScorer(const HashedSampleTable &samples)
{
    size_t keys = samples.taken.size();
    whisper_assert(keys <= kMaxKeys, "keys=", keys);
    whisper_assert(samples.notTaken.size() == keys);
    words_ = static_cast<unsigned>((keys + 63) / 64);
    for (unsigned b = 0; b < 8 * words_; ++b) {
        int64_t delta[8] = {};
        for (unsigned j = 0; j < 8 && 8 * b + j < keys; ++j) {
            size_t k = 8 * b + j;
            takenSum_ += samples.taken[k];
            delta[j] = static_cast<int64_t>(samples.notTaken[k]) -
                       static_cast<int64_t>(samples.taken[k]);
        }
        // The subsets containing key j are those without it, plus
        // key j: each pass doubles the filled prefix.
        auto &sums = subsetSums_[b];
        sums[0] = 0;
        for (unsigned j = 0; j < 8; ++j)
            for (unsigned s = 0; s < (1u << j); ++s)
                sums[s + (1u << j)] = sums[s] + delta[j];
    }
}

FormulaSearchResult
findBooleanFormula(const HashedSampleTable &samples,
                   const std::vector<uint16_t> &candidates,
                   const TruthTableCache &cache)
{
    FormulaScorer scorer(samples);
    FormulaSearchResult best;
    for (uint16_t enc : candidates) {
        uint64_t t = scorer.score(cache.table(enc));
        ++best.explored;
        if (t < best.mispredicts) {
            best.mispredicts = t;
            best.formula = BoolFormula(enc, cache.numInputs());
            best.valid = true;
        }
        if (best.mispredicts == 0)
            break;
    }
    return best;
}

} // namespace whisper
