/**
 * @file
 * The run-time Whisper hybrid (paper SIV, "Run-time hint usage").
 *
 * Predictions query the hint buffer and the underlying dynamic
 * predictor in parallel. A buffer hit predicts via the hint's bias
 * or Boolean formula applied to the hashed dynamic history; a miss
 * falls through to the dynamic predictor. Hinted branches do not
 * allocate new entries in the dynamic predictor, freeing its
 * capacity for the remaining branches.
 */

#ifndef WHISPER_CORE_WHISPER_PREDICTOR_HH
#define WHISPER_CORE_WHISPER_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bp/branch_predictor.hh"
#include "core/formula_trainer.hh"
#include "core/hint_buffer.hh"
#include "core/hint_injection.hh"
#include "core/history_hash.hh"
#include "trace/global_history.hh"
#include "util/pc_index.hh"

namespace whisper
{

/** Whisper hybrid: hint buffer + formulas over a dynamic predictor. */
class WhisperPredictor : public BranchPredictor
{
  public:
    /**
     * @param base underlying dynamic predictor (owned)
     * @param cfg Whisper design parameters
     * @param cache shared truth-table cache (must outlive this)
     * @param hints trained hints
     * @param placements brhint placements for the hints
     */
    WhisperPredictor(std::unique_ptr<BranchPredictor> base,
                     const WhisperConfig &cfg,
                     const TruthTableCache &cache,
                     const std::vector<TrainedHint> &hints,
                     const std::vector<HintPlacement> &placements);

    /**
     * Swap in a new hint deployment without disturbing the dynamic
     * predictor or history state — the model of whisperd pushing a
     * fresh bundle to a running fleet: the rewritten binary carries
     * new brhint instructions (so the hint buffer starts empty), but
     * the hardware predictor tables stay warm.
     */
    void replaceHints(const std::vector<TrainedHint> &hints,
                      const std::vector<HintPlacement> &placements);

    /**
     * Which conditionals use a hint, and what each hint predicts,
     * depend only on the trace, so each block decides them first and
     * then steps the base through its own step() with allocation off
     * where a hint was used.
     */
    void step(std::span<const BranchRecord> records, uint8_t *miss,
              const uint8_t *noAllocate = nullptr) override;
    std::string name() const override;
    uint64_t storageBits() const override;

    // --- statistics ---
    uint64_t hintPredictions() const { return hintPredictions_; }
    uint64_t hintCorrect() const { return hintCorrect_; }
    uint64_t dynamicHintInstructions() const { return dynamicHints_; }
    uint64_t staticHintInstructions() const { return hints_.size(); }
    const HintBuffer &hintBuffer() const { return buffer_; }
    BranchPredictor &base() { return *base_; }

  private:
    /** One predecessor block carrying brhints: its hints are
     * triggerHints_[first, first + count), in placement order. */
    struct TriggerRun
    {
        uint32_t first = 0;
        uint32_t count = 0;
    };

    bool evaluateHint(const BrHint &hint) const;
    /** Decode the brhints a retired block @p rec carries into the
     * hint buffer. */
    void executeBrhints(const BranchRecord &rec);

    std::unique_ptr<BranchPredictor> base_;
    WhisperConfig cfg_;
    const TruthTableCache &cache_;
    std::vector<unsigned> lengths_;

    /** hint payload per hinted branch PC. */
    std::unordered_map<uint64_t, BrHint> hints_;
    /** predecessor PC -> hints injected there: a flat PC table,
     * probed once per record, naming a run of the flat (branch PC,
     * hint) list. Runs are laid out by id; each keeps its
     * placements' order. */
    PcIndex triggerIds_;
    std::vector<TriggerRun> triggerRuns_;
    std::vector<std::pair<uint64_t, BrHint>> triggerHints_;

    HintBuffer buffer_;
    GlobalHistory history_;

    uint64_t hintPredictions_ = 0;
    uint64_t hintCorrect_ = 0;
    uint64_t dynamicHints_ = 0;
};

} // namespace whisper

#endif // WHISPER_CORE_WHISPER_PREDICTOR_HH
