/**
 * @file
 * Hashed perceptron predictor (Jimenez & Lin style) — included as a
 * classic online baseline alongside TAGE-SC-L.
 */

#ifndef WHISPER_BP_PERCEPTRON_HH
#define WHISPER_BP_PERCEPTRON_HH

#include <cstdint>
#include <vector>

#include "bp/branch_predictor.hh"

namespace whisper
{

/**
 * Hashed perceptron over segmented global history.
 *
 * The history is cut into segments; each segment, xored with the PC,
 * indexes its own weight table. The prediction is the sign of the
 * weight sum plus bias; training is on misprediction or when the sum
 * magnitude is below the threshold (standard perceptron rule).
 */
class PerceptronPredictor : public BranchPredictor
{
  public:
    struct Config
    {
        unsigned numTables = 16;      //!< history-segment tables
        unsigned log2Entries = 12;    //!< entries per table
        unsigned segmentBits = 8;     //!< history bits per segment
        unsigned weightBits = 8;      //!< signed weight width
        int threshold = 0;            //!< 0 = derive from history len
    };

    PerceptronPredictor();
    explicit PerceptronPredictor(const Config &cfg);

    bool predict(uint64_t pc, bool) override;
    void update(uint64_t pc, bool taken, bool predicted,
                bool allocate = true) override;
    std::unique_ptr<BranchPredictor>
    clone() const override
    {
        return std::make_unique<PerceptronPredictor>(*this);
    }
    std::string name() const override { return "perceptron"; }
    void reset() override;
    uint64_t storageBits() const override;

  private:
    size_t tableIndex(unsigned t, uint64_t pc) const;
    int computeSum(uint64_t pc) const;

    Config cfg_;
    int threshold_;
    int weightMin_;
    int weightMax_;
    /** Weight store as one contiguous array, table t at offset
     * t << log2Entries (all tables are the same power-of-two size);
     * replaces the vector-of-vectors double indirection. */
    std::vector<int16_t> weights_;
    std::vector<int16_t> bias_;
    std::vector<uint64_t> history_; //!< packed history words
    int lastSum_ = 0;
};

} // namespace whisper

#endif // WHISPER_BP_PERCEPTRON_HH
