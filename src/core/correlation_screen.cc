#include "core/correlation_screen.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <utility>

#include "util/logging.hh"

namespace whisper
{

namespace
{

/** Taken/not-taken mass on each side of one key bit. */
struct BitSplit
{
    uint64_t taken[2] = {0, 0};
    uint64_t notTaken[2] = {0, 0};
};

/**
 * One length's table, read once for its sample, taken and oracle
 * (sum of min(T, NT)) mass. addBitSums() adds each key bit's 1-side
 * mass, from which every per-bit split follows.
 */
struct TableSummary
{
    unsigned idx;     //!< index into the length series
    unsigned keyBits; //!< the table holds 2^keyBits keys
    uint64_t total = 0, taken = 0, oracle = 0;
    /** Achievable gain: (bias - oracle) mispredictions as a fraction
     * of samples. The oracle is the floor any formula can reach, so
     * a length scoring 0 cannot beat the static bias. */
    double gain = 0.0;
    bool perfect = false; //!< some key bit decides every sample
    bool hasBitSums = false;
    uint64_t takenHi[32] = {}, notTakenHi[32] = {};

    TableSummary(const HashedSampleTable &table, unsigned idx)
        : idx(idx), keyBits(static_cast<unsigned>(
                        std::countr_zero(table.taken.size())))
    {
        whisper_assert(keyBits <= 32);
        const uint32_t *t = table.taken.data();
        const uint32_t *nt = table.notTaken.data();
        uint64_t sumT = 0, sumNt = 0, sumMin = 0;
        for (size_t key = 0; key < table.taken.size(); ++key) {
            sumT += t[key];
            sumNt += nt[key];
            sumMin += std::min(t[key], nt[key]);
        }
        taken = sumT;
        oracle = sumMin;
        total = sumT + sumNt;
        if (total > 0)
            gain = static_cast<double>(std::min(taken, total - taken) -
                                       oracle) /
                   static_cast<double>(total);
    }

    /** Bit b's 1-side is the keys [run, 2 run) mod 2 run, run = 2^b. */
    void
    addBitSums(const HashedSampleTable &table)
    {
        if (hasBitSums)
            return;
        hasBitSums = true;
        for (unsigned b = 0; b < keyBits; ++b) {
            size_t run = size_t{1} << b;
            for (size_t base = run; base < table.taken.size();
                 base += 2 * run)
                for (size_t key = base; key < base + run; ++key) {
                    takenHi[b] += table.taken[key];
                    notTakenHi[b] += table.notTaken[key];
                }
        }
    }

    /** The split on @p bit (< 32); a bit above keyBits is 0 on every
     * key, so its 1-side sums stay 0. */
    BitSplit
    split(unsigned bit) const
    {
        BitSplit s;
        s.taken[1] = takenHi[bit];
        s.notTaken[1] = notTakenHi[bit];
        s.taken[0] = taken - s.taken[1];
        s.notTaken[0] = (total - taken) - s.notTaken[1];
        return s;
    }
};

/** True when the split's bit decides the outcome on every sample
 * and both outcomes occur (the never-prune guarantee trigger). */
bool
bitPerfectlyCorrelated(const BitSplit &s)
{
    return s.taken[0] + s.taken[1] > 0 &&
           s.notTaken[0] + s.notTaken[1] > 0 &&
           std::min(s.taken[0], s.notTaken[0]) +
                   std::min(s.taken[1], s.notTaken[1]) ==
               0;
}

double
entropyTerm(double p)
{
    return p > 0.0 ? -p * std::log2(p) : 0.0;
}

/** Mutual information (bits) between the split's bit and the
 * outcome. */
double
bitMutualInformation(const BitSplit &s)
{
    double total = static_cast<double>(s.taken[0] + s.taken[1] +
                                       s.notTaken[0] + s.notTaken[1]);
    if (total == 0.0)
        return 0.0;

    // I(B; O) = H(O) + H(B) - H(B, O), all in bits.
    double joint[2][2] = {
        {s.notTaken[0] / total, s.taken[0] / total},
        {s.notTaken[1] / total, s.taken[1] / total},
    };
    double pBit[2] = {joint[0][0] + joint[0][1],
                      joint[1][0] + joint[1][1]};
    double pOut[2] = {joint[0][0] + joint[1][0],
                      joint[0][1] + joint[1][1]};
    double mi = entropyTerm(pOut[0]) + entropyTerm(pOut[1]) +
                entropyTerm(pBit[0]) + entropyTerm(pBit[1]) -
                entropyTerm(joint[0][0]) - entropyTerm(joint[0][1]) -
                entropyTerm(joint[1][0]) - entropyTerm(joint[1][1]);
    return std::max(mi, 0.0);
}

} // namespace

CorrelationScreen::CorrelationScreen(const ScreenConfig &cfg)
    : cfg_(cfg)
{
}

std::vector<unsigned>
CorrelationScreen::distinctLengthIndices(
    const std::vector<unsigned> &lengths)
{
    std::vector<unsigned> out;
    out.reserve(lengths.size());
    for (unsigned i = 0; i < lengths.size(); ++i)
        if (std::none_of(out.begin(), out.end(), [&](unsigned j) {
                return lengths[j] == lengths[i];
            }))
            out.push_back(i);
    return out;
}

BranchScreen
CorrelationScreen::screenBranch(
    const BranchProfileEntry &entry,
    const std::vector<unsigned> &lengths) const
{
    whisper_assert(entry.byLength.size() == lengths.size());
    BranchScreen out;
    if (!cfg_.enabled || lengths.empty()) {
        out.lengthIdx = distinctLengthIndices(lengths);
        return out;
    }

    // -- length selection: rank distinct lengths by oracle headroom,
    // keep the top maxLengths; a length holding a perfectly
    // correlated bit is kept unconditionally.
    std::vector<TableSummary> tables;
    tables.reserve(lengths.size()); // keeps the pointers below valid
    std::vector<TableSummary *> scored;
    for (unsigned idx : distinctLengthIndices(lengths)) {
        const HashedSampleTable &table = entry.byLength[idx];
        if (table.empty())
            continue;
        TableSummary &t = tables.emplace_back(table, idx);
        if (t.total == 0)
            continue;
        // A key seen both ways puts both outcomes on one side of
        // every bit, so only an oracle-0 table can hold a perfect bit.
        if (t.oracle == 0) {
            t.addBitSums(table);
            for (unsigned b = 0; b < t.keyBits && !t.perfect; ++b)
                t.perfect = bitPerfectlyCorrelated(t.split(b));
        }
        scored.push_back(&t);
    }
    // Stable sort, descending gain, perfect first; ties keep series
    // order so the pass is deterministic.
    std::ranges::stable_sort(scored, std::greater<>{},
                             [](const TableSummary *t) {
                                 return std::pair(t->perfect, t->gain);
                             });
    unsigned budget = std::max(1u, cfg_.maxLengths);
    std::vector<TableSummary *> kept;
    for (TableSummary *t : scored)
        if (kept.size() < budget || t->perfect)
            kept.push_back(t);
    std::ranges::sort(kept, {}, &TableSummary::idx);
    for (const TableSummary *t : kept)
        out.lengthIdx.push_back(t->idx);

    // -- input-bit selection: union of informative bits over the
    // kept lengths, scored by mutual information. Perfect bits are
    // kept unconditionally; otherwise a bit must reach the relative
    // threshold at some kept length.
    unsigned hashBits = 0;
    for (const TableSummary *t : kept)
        hashBits = std::max(hashBits, t->keyBits);
    hashBits = std::min(hashBits, 8u);
    if (hashBits == 0) {
        out.inputMask = 0xFF;
        return out;
    }

    double mi[8] = {};
    bool perfect[8] = {};
    double bestMi = 0.0;
    for (TableSummary *t : kept) {
        t->addBitSums(entry.byLength[t->idx]);
        for (unsigned b = 0; b < hashBits; ++b) {
            BitSplit s = t->split(b);
            mi[b] = std::max(mi[b], bitMutualInformation(s));
            perfect[b] = perfect[b] || bitPerfectlyCorrelated(s);
            bestMi = std::max(bestMi, mi[b]);
        }
    }
    uint8_t mask = 0;
    for (unsigned b = 0; b < hashBits; ++b)
        if (perfect[b] || mi[b] >= bestMi * cfg_.bitKeepFraction)
            mask |= static_cast<uint8_t>(1u << b);
    // Top up to minBits with the best remaining bits (index order
    // breaks ties deterministically).
    unsigned floor = std::min(cfg_.minBits, hashBits);
    while (static_cast<unsigned>(std::popcount(mask)) < floor) {
        int bestBit = -1;
        double best = -1.0;
        for (unsigned b = 0; b < hashBits; ++b) {
            if (mask & (1u << b))
                continue;
            if (mi[b] > best) {
                best = mi[b];
                bestBit = static_cast<int>(b);
            }
        }
        if (bestBit < 0)
            break;
        mask |= static_cast<uint8_t>(1u << bestBit);
    }
    out.inputMask = mask ? mask : 0xFF;
    return out;
}

} // namespace whisper
