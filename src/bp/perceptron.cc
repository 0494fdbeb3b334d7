#include "bp/perceptron.hh"

#include <cmath>

#include "util/bits.hh"
#include "util/logging.hh"

namespace whisper
{

PerceptronPredictor::PerceptronPredictor()
    : PerceptronPredictor(Config{})
{
}

PerceptronPredictor::PerceptronPredictor(const Config &cfg)
    : cfg_(cfg),
      weightMin_(-(1 << (cfg.weightBits - 1))),
      weightMax_((1 << (cfg.weightBits - 1)) - 1),
      weights_(static_cast<size_t>(cfg.numTables)
                   << cfg.log2Entries,
               0),
      bias_(1ULL << cfg.log2Entries, 0)
{
    whisper_assert(cfg.numTables >= 1 && cfg.segmentBits >= 1 &&
                   cfg.segmentBits <= 64);
    unsigned totalHist = cfg.numTables * cfg.segmentBits;
    history_.assign((totalHist + 63) / 64, 0);
    threshold_ = cfg.threshold > 0
        ? cfg.threshold
        : static_cast<int>(1.93 * totalHist + 14) / 8;
}

size_t
PerceptronPredictor::tableIndex(unsigned t, uint64_t pc) const
{
    // Extract segment t of the packed history: at most two word
    // reads instead of the old bit-by-bit gather (same bits, same
    // order — bit b of the segment is history bit lo + b).
    unsigned lo = t * cfg_.segmentBits;
    unsigned word = lo >> 6;
    unsigned off = lo & 63;
    uint64_t seg = history_[word] >> off;
    if (off + cfg_.segmentBits > 64)
        seg |= history_[word + 1] << (64 - off);
    seg &= maskBits(cfg_.segmentBits);
    uint64_t idx = pcIndexBits(pc) ^ mix64(seg + t * 0x9e37ULL);
    return idx & ((1ULL << cfg_.log2Entries) - 1);
}

int
PerceptronPredictor::computeSum(uint64_t pc) const
{
    int sum = bias_[pcIndexBits(pc) & ((1ULL << cfg_.log2Entries) - 1)];
    for (unsigned t = 0; t < cfg_.numTables; ++t) {
        size_t slot = (static_cast<size_t>(t) << cfg_.log2Entries) +
                      tableIndex(t, pc);
        sum += weights_[slot];
    }
    return sum;
}

bool
PerceptronPredictor::predict(uint64_t pc, bool)
{
    lastSum_ = computeSum(pc);
    return lastSum_ >= 0;
}

void
PerceptronPredictor::update(uint64_t pc, bool taken, bool predicted,
                            bool)
{
    int sum = computeSum(pc);
    bool needTrain = (predicted != taken) ||
                     std::abs(sum) <= threshold_;
    if (needTrain) {
        auto adjust = [&](int16_t &w) {
            int v = w + (taken ? 1 : -1);
            if (v < weightMin_)
                v = weightMin_;
            if (v > weightMax_)
                v = weightMax_;
            w = static_cast<int16_t>(v);
        };
        adjust(bias_[pcIndexBits(pc) & ((1ULL << cfg_.log2Entries) - 1)]);
        for (unsigned t = 0; t < cfg_.numTables; ++t) {
            size_t slot = (static_cast<size_t>(t) << cfg_.log2Entries) +
                          tableIndex(t, pc);
            adjust(weights_[slot]);
        }
    }

    // Shift the packed history left by one, inserting the outcome.
    uint64_t carry = taken ? 1 : 0;
    for (auto &word : history_) {
        uint64_t newCarry = word >> 63;
        word = (word << 1) | carry;
        carry = newCarry;
    }
}

uint64_t
PerceptronPredictor::storageBits() const
{
    uint64_t entries = (1ULL << cfg_.log2Entries);
    return (cfg_.numTables + 1) * entries * cfg_.weightBits;
}

} // namespace whisper
