/**
 * @file
 * The correlation screen as a per-bit scan: every bit score re-reads
 * the whole table, and the length gain and perfect-bit test read it
 * again. Tests compare CorrelationScreen::screenBranch, which reads
 * each table once, against it.
 */

#ifndef WHISPER_TESTS_SCREEN_REFERENCE_HH
#define WHISPER_TESTS_SCREEN_REFERENCE_HH

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/correlation_screen.hh"

namespace whisper::screen_reference
{

/** Taken/not-taken mass on each side of one key bit. */
struct BitSplit
{
    uint64_t taken[2] = {0, 0};
    uint64_t notTaken[2] = {0, 0};

    uint64_t
    total() const
    {
        return taken[0] + taken[1] + notTaken[0] + notTaken[1];
    }

    uint64_t
    splitMispredicts() const
    {
        return std::min(taken[0], notTaken[0]) +
               std::min(taken[1], notTaken[1]);
    }
};

inline BitSplit
splitByBit(const HashedSampleTable &table, unsigned bit)
{
    BitSplit s;
    for (size_t key = 0; key < table.taken.size(); ++key) {
        unsigned side = (key >> bit) & 1;
        s.taken[side] += table.taken[key];
        s.notTaken[side] += table.notTaken[key];
    }
    return s;
}

inline double
entropyTerm(double p)
{
    return p > 0.0 ? -p * std::log2(p) : 0.0;
}

inline double
lengthGain(const HashedSampleTable &table)
{
    uint64_t total = table.totalSamples();
    if (total == 0)
        return 0.0;
    uint64_t taken = 0;
    for (uint32_t t : table.taken)
        taken += t;
    uint64_t bias = std::min(taken, total - taken);
    uint64_t oracle = table.oracleMispredicts();
    return static_cast<double>(bias - oracle) /
           static_cast<double>(total);
}

inline double
bitMutualInformation(const HashedSampleTable &table, unsigned bit)
{
    BitSplit s = splitByBit(table, bit);
    double total = static_cast<double>(s.total());
    if (total == 0.0)
        return 0.0;
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

inline bool
bitPerfectlyCorrelated(const HashedSampleTable &table, unsigned bit)
{
    BitSplit s = splitByBit(table, bit);
    if (s.total() == 0)
        return false;
    uint64_t taken = s.taken[0] + s.taken[1];
    uint64_t notTaken = s.notTaken[0] + s.notTaken[1];
    return taken > 0 && notTaken > 0 && s.splitMispredicts() == 0;
}

/** screenBranch() by per-bit scans, for the same @p cfg. */
inline BranchScreen
screenBranch(const ScreenConfig &cfg, const BranchProfileEntry &entry,
             const std::vector<unsigned> &lengths)
{
    BranchScreen out;
    if (!cfg.enabled || lengths.empty()) {
        out.lengthIdx = CorrelationScreen::distinctLengthIndices(lengths);
        return out;
    }

    struct Scored
    {
        unsigned idx;
        double gain;
        bool perfect;
    };
    std::vector<Scored> scored;
    for (unsigned idx : CorrelationScreen::distinctLengthIndices(lengths)) {
        const HashedSampleTable &table = entry.byLength[idx];
        if (table.empty() || table.totalSamples() == 0)
            continue;
        Scored s{idx, lengthGain(table), false};
        unsigned bits =
            static_cast<unsigned>(std::countr_zero(table.taken.size()));
        for (unsigned b = 0; b < bits && !s.perfect; ++b)
            s.perfect = bitPerfectlyCorrelated(table, b);
        scored.push_back(s);
    }
    std::stable_sort(scored.begin(), scored.end(),
                     [](const Scored &a, const Scored &b) {
                         if (a.perfect != b.perfect)
                             return a.perfect;
                         return a.gain > b.gain;
                     });
    unsigned budget = std::max(1u, cfg.maxLengths);
    for (const Scored &s : scored) {
        if (out.lengthIdx.size() >= budget && !s.perfect)
            continue;
        out.lengthIdx.push_back(s.idx);
    }
    std::sort(out.lengthIdx.begin(), out.lengthIdx.end());

    unsigned hashBits = 0;
    for (unsigned idx : out.lengthIdx)
        hashBits = std::max(
            hashBits, static_cast<unsigned>(std::countr_zero(
                          entry.byLength[idx].taken.size())));
    hashBits = std::min(hashBits, 8u);
    if (hashBits == 0) {
        out.inputMask = 0xFF;
        return out;
    }

    double mi[8] = {};
    bool perfect[8] = {};
    double bestMi = 0.0;
    for (unsigned idx : out.lengthIdx) {
        const HashedSampleTable &table = entry.byLength[idx];
        for (unsigned b = 0; b < hashBits; ++b) {
            mi[b] = std::max(mi[b], bitMutualInformation(table, b));
            perfect[b] =
                perfect[b] || bitPerfectlyCorrelated(table, b);
            bestMi = std::max(bestMi, mi[b]);
        }
    }
    uint8_t mask = 0;
    for (unsigned b = 0; b < hashBits; ++b)
        if (perfect[b] || mi[b] >= bestMi * cfg.bitKeepFraction)
            mask |= static_cast<uint8_t>(1u << b);
    unsigned floor = std::min(cfg.minBits, hashBits);
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

} // namespace whisper::screen_reference

#endif // WHISPER_TESTS_SCREEN_REFERENCE_HH
