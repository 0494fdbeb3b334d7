/**
 * @file
 * Extended Read-Once Monotone Boolean Formulas (paper SIII-C).
 *
 * A formula is a complete binary tree over n hashed-history bits
 * (n = 2, 4 or 8). Every internal node is one of Whisper's four
 * "single unit" operations {AND, OR, IMPL, CNIMPL} (Fig. 8) and one
 * final bit optionally inverts the root (the 2-to-1 output
 * multiplexer of Fig. 9). For n = 8 the encoding is
 * 7 nodes x 2 bits + 1 inversion bit = 15 bits — exactly the
 * "Boolean formula" field of the brhint instruction (Fig. 11).
 *
 * The classic ROMBF of Jimenez et al. is the subset with ops in
 * {AND, OR} and no inversion.
 */

#ifndef WHISPER_CORE_FORMULA_HH
#define WHISPER_CORE_FORMULA_HH

#include <array>
#include <cstdint>
#include <string>

#include "util/logging.hh"

namespace whisper
{

/** The four single-unit operations, in encoding order. */
enum class BoolOp : uint8_t
{
    And = 0,    //!< a & b
    Or = 1,     //!< a | b
    Impl = 2,   //!< a -> b  (=!a | b)
    Cnimpl = 3, //!< converse non-implication: !a & b
};

/**
 * Evaluate one single unit (Fig. 8) bitwise: every bit of the result
 * is @p op applied to the matching bits of @p a and @p b. evaluate()
 * uses bit 0 (one input vector); truthTable() uses whole words (64
 * input vectors at a time).
 */
inline uint64_t
applyBoolOp(BoolOp op, uint64_t a, uint64_t b)
{
    switch (op) {
      case BoolOp::And:
        return a & b;
      case BoolOp::Or:
        return a | b;
      case BoolOp::Impl:
        return ~a | b;
      case BoolOp::Cnimpl:
        return ~a & b;
    }
    return 0;
}

/** Operation-family classification used for Fig. 7. */
enum class OpClass : uint8_t
{
    AlwaysTaken,
    NeverTaken,
    And,
    Or,
    Impl,
    Cnimpl,
    Others,
};

const char *opClassName(OpClass c);

/** 256-entry truth table packed into four 64-bit words. */
using TruthTable = std::array<uint64_t, 4>;

/**
 * Truth table of the bare input @p input (0..7): bit v is set iff bit
 * @p input of v is. Inputs 0-5 repeat one pattern in every word;
 * inputs 6 and 7 select whole words.
 */
inline TruthTable
inputTruthTable(unsigned input)
{
    static constexpr uint64_t kInWord[6] = {
        0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL,
        0xF0F0F0F0F0F0F0F0ULL, 0xFF00FF00FF00FF00ULL,
        0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL,
    };
    TruthTable tt{};
    for (unsigned w = 0; w < 4; ++w) {
        tt[w] = input < 6 ? kInWord[input]
                          : ((w >> (input - 6)) & 1 ? ~0ULL : 0);
    }
    return tt;
}

/**
 * An encoded extended-ROMBF formula over n inputs.
 *
 * Bit layout of the encoding (n inputs, n-1 internal nodes):
 *   bits [2i, 2i+2)   op of node i (level order, leaves first)
 *   bit  2*(n-1)      root inversion
 */
class BoolFormula
{
  public:
    static constexpr unsigned kMaxInputs = 8;

    BoolFormula() = default;

    /**
     * @param encoding raw bit pattern (see layout above)
     * @param numInputs 2, 4 or 8
     */
    explicit BoolFormula(uint16_t encoding, unsigned numInputs = 8);

    /** Number of encoding bits for @p numInputs (15 for 8 inputs). */
    static unsigned encodingBits(unsigned numInputs);

    /** Number of distinct encodings, 2^encodingBits (32768 for 8). */
    static uint32_t encodingCount(unsigned numInputs);

    /** Evaluate on packed inputs (bit i of @p inputs is variable i). */
    bool evaluate(uint8_t inputs) const;

    /** Operation of internal node @p node (level order). */
    BoolOp nodeOp(unsigned node) const;

    /** Whether the final 2-to-1 mux selects the inverted output. */
    bool inverted() const;

    uint16_t encoding() const { return encoding_; }
    unsigned numInputs() const { return numInputs_; }
    unsigned numNodes() const { return numInputs_ - 1; }

    /**
     * Truth table over all 2^numInputs packed-input values: the tree
     * evaluated on whole words, one 64-bit op per node per word. For
     * n < 8 the bits past 2^n are zero.
     */
    TruthTable truthTable() const;

    /**
     * True when the formula computes a constant function;
     * @p value receives the constant.
     */
    bool isConstant(bool &value) const;

    /** Classify for the Fig. 7 operation-distribution analysis. */
    OpClass classify() const;

    /** Infix rendering, e.g. "!((b0&b1)|(b2->b3))". */
    std::string toString() const;

    /** True when all node ops are in {AND, OR} and not inverted
     * (i.e., a classic monotone ROMBF). */
    bool isMonotone() const;

    bool operator==(const BoolFormula &o) const
    {
        return encoding_ == o.encoding_ && numInputs_ == o.numInputs_;
    }

  private:
    /** Combine @p vals level by level (Fig. 9's single-unit network)
     * and apply the output mux; @p vals is clobbered. */
    uint64_t reduce(uint64_t *vals) const;

    uint16_t encoding_ = 0;
    uint8_t numInputs_ = 8;
};

/**
 * Gate-delay model of the hardware evaluation tree (paper SIII-C).
 *
 * Every single unit costs at most 5 gate delays (NOT, AND/OR, and a
 * 3-gate 4-to-1 mux); the final inversion mux costs 4 (NOT plus a
 * 3-gate 2-to-1 mux). For n inputs the units form log2(n) sequential
 * levels. The paper's example: n = 8 gives 3*5 + 4 = 19 gates.
 */
constexpr unsigned kSingleUnitGateDelay = 5;
constexpr unsigned kOutputMuxGateDelay = 4;

unsigned formulaGateDelay(unsigned numInputs);

} // namespace whisper

#endif // WHISPER_CORE_FORMULA_HH
