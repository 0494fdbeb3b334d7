/**
 * @file
 * The brhint instruction (paper Fig. 11).
 *
 * A brhint carries four fields:
 *   History         4 bits  index into the geometric length series
 *   Boolean formula 15 bits extended-ROMBF encoding
 *   Bias            2 bits  0 = use formula, 1 = always-taken,
 *                           2 = never-taken
 *   PC pointer      12 bits offset locating the hinted branch
 */

#ifndef WHISPER_CORE_BRHINT_HH
#define WHISPER_CORE_BRHINT_HH

#include <cstdint>

namespace whisper
{

/** Bias field values. */
enum class HintBias : uint8_t
{
    Formula = 0,    //!< predict with the Boolean formula
    AlwaysTaken = 1,
    NeverTaken = 2,
};

/** Decoded brhint contents. */
struct BrHint
{
    uint8_t historyIdx = 0;   //!< 4-bit history-length index
    uint16_t formula = 0;     //!< 15-bit formula encoding
    HintBias bias = HintBias::Formula;
    uint16_t pcPointer = 0;   //!< 12-bit branch-PC offset

    /** Total encoded width in bits (4 + 15 + 2 + 12). */
    static constexpr unsigned kEncodedBits = 33;

    /** Pack into the instruction's immediate encoding. */
    uint64_t encode() const;

    /** Unpack; asserts validEncoding(@p bits). */
    static BrHint decode(uint64_t bits);

    /** @p bits fits kEncodedBits and avoids the reserved bias 3 —
     * what a loader checks before decode() on untrusted input. */
    static bool validEncoding(uint64_t bits);

    /** 12-bit PC pointer derived from a full branch address. */
    static uint16_t pcPointerFor(uint64_t branchPc);

    bool operator==(const BrHint &o) const = default;
};

} // namespace whisper

#endif // WHISPER_CORE_BRHINT_HH
