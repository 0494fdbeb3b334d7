#include "core/brhint.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace whisper
{

uint64_t
BrHint::encode() const
{
    whisper_assert(historyIdx < 16);
    whisper_assert(formula < (1u << 15));
    whisper_assert(static_cast<uint8_t>(bias) < 4);
    whisper_assert(pcPointer < (1u << 12));
    uint64_t bits = historyIdx;
    bits |= static_cast<uint64_t>(formula) << 4;
    bits |= static_cast<uint64_t>(static_cast<uint8_t>(bias)) << 19;
    bits |= static_cast<uint64_t>(pcPointer) << 21;
    return bits;
}

BrHint
BrHint::decode(uint64_t bits)
{
    whisper_assert(bits < (1ULL << kEncodedBits),
                   "brhint encoding overflow");
    BrHint h;
    h.historyIdx = static_cast<uint8_t>(bitsOf(bits, 0, 4));
    h.formula = static_cast<uint16_t>(bitsOf(bits, 4, 15));
    uint8_t biasRaw = static_cast<uint8_t>(bitsOf(bits, 19, 2));
    whisper_assert(biasRaw < 3, "reserved bias encoding");
    h.bias = static_cast<HintBias>(biasRaw);
    h.pcPointer = static_cast<uint16_t>(bitsOf(bits, 21, 12));
    return h;
}

bool
BrHint::validEncoding(uint64_t bits)
{
    return bits < (1ULL << kEncodedBits) && bitsOf(bits, 19, 2) < 3;
}

uint16_t
BrHint::pcPointerFor(uint64_t branchPc)
{
    return static_cast<uint16_t>((branchPc >> 1) & maskBits(12));
}

} // namespace whisper
