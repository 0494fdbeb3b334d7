/**
 * @file
 * TAGE-SC-L direction predictor (Seznec, CBP-5), size-scalable.
 *
 * The structure follows the championship predictor: a bimodal base
 * table, 12 partially-tagged tables indexed with geometrically
 * increasing global-history lengths, a use-alt-on-newly-allocated
 * policy, periodic usefulness decay, a GEHL-style statistical
 * corrector, and a loop predictor. Storage scales from 8KB to
 * multi-MB via Config::forBudgetKB so the paper's predictor-size
 * sweep (Fig. 21) and the MTAGE-SC "unlimited" reference (Fig. 12)
 * use the same code.
 */

#ifndef WHISPER_BP_TAGE_SCL_HH
#define WHISPER_BP_TAGE_SCL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "bp/branch_predictor.hh"
#include "trace/global_history.hh"

namespace whisper
{

/** TAGE-SC-L configuration knobs. */
struct TageSclConfig
{
    unsigned numTables = 12;       //!< tagged components
    unsigned minHist = 6;          //!< shortest tagged history
    unsigned maxHist = 1600;       //!< longest tagged history
    unsigned logBimodal = 16;      //!< log2 bimodal entries
    unsigned logTagged = 10;       //!< log2 entries per tagged table
    unsigned ctrBits = 3;          //!< tagged counter width
    unsigned usefulBits = 2;       //!< usefulness width
    unsigned logSc = 12;           //!< log2 entries per SC table
    unsigned scCtrBits = 6;        //!< SC counter width
    unsigned logLoop = 6;          //!< log2 loop-predictor sets
    bool useSc = true;             //!< enable statistical corrector
    bool useLoop = true;           //!< enable loop predictor
    /** Allocation-throttle saturation (CBP-5 TICK): when failed
     * allocations outweigh successes by this much, all usefulness
     * counters decay, opening room without constant churn. */
    int tickMax = 1024;

    /**
     * Scale the reference 64KB configuration to @p kb (power of two,
     * 8..8192). Larger budgets also stretch the maximum history.
     */
    static TageSclConfig forBudgetKB(unsigned kb);
};

/** TAGE-SC-L predictor. */
class TageScl : public BranchPredictor
{
  public:
    explicit TageScl(const TageSclConfig &cfg = TageSclConfig{});

    /** Hard limits of the fixed-size per-prediction context (the
     * context used to be heap-backed vectors, reallocated on every
     * predict(); the arrays keep the hot path allocation-free). */
    static constexpr unsigned kMaxTables = 16;
    static constexpr unsigned kMaxScTables = 8;

    bool predict(uint64_t pc, bool) override;
    void update(uint64_t pc, bool taken, bool predicted,
                bool allocate = true) override;
    /** Deep copy: every table, the global history (raw ring and
     * per-width prefix rings), the LFSR and the tick state are
     * value-copied, so clone-then-run is bit-identical. */
    std::unique_ptr<BranchPredictor>
    clone() const override
    {
        return std::make_unique<TageScl>(*this);
    }
    std::string name() const override;
    void reset() override;
    uint64_t storageBits() const override;

    const TageSclConfig &config() const { return cfg_; }

    /** Component attribution of the last prediction (for analysis). */
    enum class Provider { Bimodal, Tagged, Sc, Loop };
    Provider lastProvider() const { return ctx_.provider; }

    /** History length of the providing tagged table (0 if bimodal). */
    unsigned lastProviderHistLen() const;

  private:
    struct LoopEntry
    {
        uint16_t tag = 0;
        uint16_t pastIter = 0;
        uint16_t currentIter = 0;
        uint8_t confidence = 0;
        uint8_t age = 0;
        bool dir = false;      //!< direction of the body iterations
        bool valid = false;
    };

    /** Per-prediction context carried from predict() to update(). */
    struct PredictContext
    {
        uint64_t pc = 0;
        int providerTable = -1;     //!< -1 = bimodal
        int altTable = -1;
        bool providerPred = false;
        bool altPred = false;
        bool tagePred = false;      //!< after use-alt policy
        bool newlyAllocated = false;
        bool finalPred = false;
        Provider provider = Provider::Bimodal;
        // SC state
        int scSum = 0;
        bool scPred = false;
        bool scUsed = false;
        // Loop state
        bool loopPred = false;
        bool loopValid = false;
        bool loopUsed = false;
        std::array<uint32_t, kMaxTables> indices{};
        std::array<uint32_t, kMaxTables> tags{};
        std::array<uint32_t, kMaxScTables> scIndices{};
    };

    // --- tagged path ---
    uint32_t taggedIndex(unsigned table, uint64_t pc) const;
    uint16_t taggedTag(unsigned table, uint64_t pc) const;
    void computeTagePrediction(uint64_t pc);
    void allocateEntries(uint64_t pc, bool taken);

    // --- statistical corrector ---
    int scIndex(unsigned table, uint64_t pc, bool tagePred) const;
    void computeScPrediction(uint64_t pc);
    void updateSc(bool taken);

    // --- loop predictor ---
    LoopEntry *findLoopEntry(uint64_t pc, bool allocate);
    void computeLoopPrediction(uint64_t pc);
    void updateLoop(uint64_t pc, bool taken);

    void decayUseful();
    uint32_t nextRandom();

    /** Slot of tagged entry @p idx of table @p t in the SoA arrays:
     * all tables share one contiguous allocation per field, indexed
     * with shifts and masks (every table is 2^logTagged entries). */
    size_t
    taggedSlot(unsigned t, uint32_t idx) const
    {
        return (static_cast<size_t>(t) << cfg_.logTagged) + idx;
    }

    /** tagKey_ value marking an empty (never-allocated) entry. Tags
     * are at most 16 bits wide, so the sentinel can never collide
     * with a computed tag. */
    static constexpr uint32_t kFreeEntry = ~0u;

    TageSclConfig cfg_;
    std::vector<unsigned> histLens_;
    std::vector<unsigned> tagBits_;
    // Tagged components as structure-of-arrays: the lookup loop
    // touches only tagKey_ (tag match + validity in one compare),
    // the provider update touches tagCtr_/tagUseful_. One flat
    // allocation per field replaces the per-table node vectors.
    std::vector<uint32_t> tagKey_;   //!< tag, or kFreeEntry
    std::vector<int8_t> tagCtr_;     //!< signed, taken when >= 0
    std::vector<uint8_t> tagUseful_;
    std::vector<int8_t> bimodal_;  //!< 2-bit counters stored as int

    GlobalHistory history_;
    std::vector<size_t> idxView_;   //!< folded views for indices
    std::vector<size_t> tag1View_;  //!< folded views for tags
    std::vector<size_t> tag2View_;

    // use-alt-on-newly-allocated counter (4 bits signed)
    int useAltOnNa_ = 0;

    // SC: bias table + GEHL tables over short folded histories.
    std::vector<unsigned> scHistLens_;
    std::vector<std::vector<int8_t>> scTables_;
    std::vector<int8_t> scBias_;
    std::vector<size_t> scView_;
    int scThreshold_ = 6;
    int scThresholdCtr_ = 0;

    std::vector<LoopEntry> loop_;
    uint32_t loopWays_ = 4;

    uint64_t updates_ = 0;
    int tick_ = 0;
    uint32_t lfsr_ = 0xACE1u;

    PredictContext ctx_;
};

} // namespace whisper

#endif // WHISPER_BP_TAGE_SCL_HH
