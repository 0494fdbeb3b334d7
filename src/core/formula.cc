#include "core/formula.hh"

#include "util/bits.hh"

namespace whisper
{

const char *
opClassName(OpClass c)
{
    switch (c) {
      case OpClass::AlwaysTaken:
        return "Always-taken";
      case OpClass::NeverTaken:
        return "Never-taken";
      case OpClass::And:
        return "And";
      case OpClass::Or:
        return "Or";
      case OpClass::Impl:
        return "Implication";
      case OpClass::Cnimpl:
        return "Converse-nonimplication";
      case OpClass::Others:
        return "Others";
    }
    return "?";
}

BoolFormula::BoolFormula(uint16_t encoding, unsigned numInputs)
    : encoding_(encoding), numInputs_(static_cast<uint8_t>(numInputs))
{
    whisper_assert(numInputs == 2 || numInputs == 4 || numInputs == 8,
                   "numInputs=", numInputs);
    whisper_assert(encoding < encodingCount(numInputs));
}

unsigned
BoolFormula::encodingBits(unsigned numInputs)
{
    whisper_assert(numInputs >= 2);
    return 2 * (numInputs - 1) + 1;
}

uint32_t
BoolFormula::encodingCount(unsigned numInputs)
{
    return 1u << encodingBits(numInputs);
}

BoolOp
BoolFormula::nodeOp(unsigned node) const
{
    whisper_assert(node < numNodes());
    return static_cast<BoolOp>((encoding_ >> (2 * node)) & 3);
}

bool
BoolFormula::inverted() const
{
    return (encoding_ >> (2 * numNodes())) & 1;
}

uint64_t
BoolFormula::reduce(uint64_t *vals) const
{
    // Level-order evaluation of the complete binary tree: layer 0
    // combines input pairs, each following layer combines the
    // previous layer's outputs (Fig. 9's single-unit network).
    unsigned n = numInputs_;
    unsigned node = 0;
    while (n > 1) {
        for (unsigned i = 0; i < n / 2; ++i) {
            vals[i] = applyBoolOp(nodeOp(node), vals[2 * i],
                                  vals[2 * i + 1]);
            ++node;
        }
        n /= 2;
    }
    return inverted() ? ~vals[0] : vals[0];
}

bool
BoolFormula::evaluate(uint8_t inputs) const
{
    uint64_t vals[kMaxInputs];
    for (unsigned i = 0; i < numInputs_; ++i)
        vals[i] = (inputs >> i) & 1;
    return reduce(vals) & 1;
}

TruthTable
BoolFormula::truthTable() const
{
    // Input i's word w is bit i of the 64 input vectors that word
    // covers; for n < 8 all 2^n vectors fit in word 0.
    TruthTable in[kMaxInputs];
    for (unsigned i = 0; i < numInputs_; ++i)
        in[i] = inputTruthTable(i);
    TruthTable tt{};
    unsigned words = numInputs_ == kMaxInputs ? 4 : 1;
    for (unsigned w = 0; w < words; ++w) {
        uint64_t vals[kMaxInputs];
        for (unsigned i = 0; i < numInputs_; ++i)
            vals[i] = in[i][w];
        tt[w] = reduce(vals);
    }
    if (numInputs_ < kMaxInputs)
        tt[0] &= maskBits(1u << numInputs_);
    return tt;
}

bool
BoolFormula::isConstant(bool &value) const
{
    TruthTable tt = truthTable();
    unsigned count = 1u << numInputs_;
    uint64_t all = 0, any = 0;
    for (unsigned w = 0; w * 64 < count; ++w) {
        uint64_t mask = count - w * 64 >= 64
            ? ~0ULL : maskBits(count - w * 64);
        all |= (tt[w] & mask) ^ mask;
        any |= tt[w] & mask;
    }
    if (any == 0) {
        value = false;
        return true;
    }
    if (all == 0) {
        value = true;
        return true;
    }
    return false;
}

OpClass
BoolFormula::classify() const
{
    bool constant = false;
    if (isConstant(constant))
        return constant ? OpClass::AlwaysTaken : OpClass::NeverTaken;

    // Inverted formulas fall outside the four base families; the
    // dominant structure of everything else is its root operation.
    if (inverted())
        return OpClass::Others;
    switch (nodeOp(numNodes() - 1)) {
      case BoolOp::And:
        return OpClass::And;
      case BoolOp::Or:
        return OpClass::Or;
      case BoolOp::Impl:
        return OpClass::Impl;
      case BoolOp::Cnimpl:
        return OpClass::Cnimpl;
    }
    return OpClass::Others;
}

namespace
{

const char *
opSymbol(BoolOp op)
{
    switch (op) {
      case BoolOp::And:
        return "&";
      case BoolOp::Or:
        return "|";
      case BoolOp::Impl:
        return "->";
      case BoolOp::Cnimpl:
        return "!&";
    }
    return "?";
}

} // namespace

std::string
BoolFormula::toString() const
{
    // Build layer by layer, mirroring evaluate().
    std::string terms[kMaxInputs];
    unsigned n = numInputs_;
    for (unsigned i = 0; i < n; ++i)
        terms[i] = "b" + std::to_string(i);

    unsigned node = 0;
    while (n > 1) {
        for (unsigned i = 0; i < n / 2; ++i) {
            terms[i] = "(" + terms[2 * i] + opSymbol(nodeOp(node)) +
                       terms[2 * i + 1] + ")";
            ++node;
        }
        n /= 2;
    }
    return inverted() ? "!" + terms[0] : terms[0];
}

bool
BoolFormula::isMonotone() const
{
    if (inverted())
        return false;
    for (unsigned i = 0; i < numNodes(); ++i) {
        BoolOp op = nodeOp(i);
        if (op != BoolOp::And && op != BoolOp::Or)
            return false;
    }
    return true;
}

unsigned
formulaGateDelay(unsigned numInputs)
{
    whisper_assert(isPowerOfTwo(numInputs) && numInputs >= 2);
    unsigned levels = floorLog2(numInputs);
    return levels * kSingleUnitGateDelay + kOutputMuxGateDelay;
}

} // namespace whisper
