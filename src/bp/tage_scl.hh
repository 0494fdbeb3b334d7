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
 *
 * One predict() reads every folded history it needs (index, tag and
 * shifted-tag views of each tagged table, plus the SC views) with a
 * single GlobalHistory::foldedValues() call. The tagged views are
 * registered four tables at a time: for tables 4b..4b+3 the four
 * index views (width logTagged), then the four tag views and the
 * four shifted-tag views (tag widths change only every four tables),
 * so every batch group is four views of one width. The SC views
 * follow. Hence the constructor's numTables % 4 == 0 requirement.
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
    /** Folded views: three per tagged table plus one per SC table. */
    static constexpr unsigned kMaxViews = 3 * kMaxTables + kMaxScTables;

    bool predict(uint64_t pc, bool) override;
    void update(uint64_t pc, bool taken, bool predicted,
                bool allocate = true) override;
    std::string name() const override;
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

    /**
     * Per-prediction context carried from predict() to update().
     * predict() writes every field update() reads (the SC and loop
     * fields only when that component is enabled), so it is not
     * cleared between predictions; ctx_ is zeroed once at
     * construction.
     */
    struct PredictContext
    {
        uint64_t pc;
        int providerTable = -1;     //!< -1 = bimodal
        int altTable;
        bool providerPred;
        bool altPred;
        bool tagePred;              //!< after use-alt policy
        bool newlyAllocated;
        bool finalPred;
        Provider provider;
        // SC state
        int scSum;
        bool scPred;
        bool scUsed;
        // Loop state: the one probe of the loop table per branch.
        bool loopPred;
        bool loopUsed;
        uint16_t loopTag;
        uint32_t loopSet;           //!< slot of the set's first way
        int loopHit;                //!< slot of the matching entry, or -1
        int loopVictim;             //!< replaceable slot, or -1
        /** Entry of each table in the SoA arrays, which hold every
         * table in one allocation per field: table t's entry idx is
         * at (t << logTagged) + idx. */
        std::array<uint32_t, kMaxTables> slots;
        std::array<uint16_t, kMaxTables> tags;
        std::array<uint32_t, kMaxScTables> scIndices;
    };

    // --- tagged path ---
    void computeTagePrediction(uint64_t pc, const uint32_t *fold);
    void allocateEntries(bool taken);

    // --- statistical corrector ---
    void computeScPrediction(uint64_t pc, const uint32_t *fold);
    void updateSc(bool taken);

    // --- loop predictor ---
    void probeLoop(uint64_t pc);
    void computeLoopPrediction();
    LoopEntry *claimLoopEntry();
    void updateLoop(bool taken);

    void decayUseful();
    uint32_t nextRandom();

    /** tagKey_ value marking an empty (never-allocated) entry. Keys
     * are 16 bits and tags at most 11 (8 + min(3, table / 4)), so
     * the sentinel can never collide with a computed tag. */
    static constexpr uint16_t kFreeEntry = 0xFFFF;

    TageSclConfig cfg_;
    std::vector<unsigned> histLens_;
    std::vector<unsigned> tagBits_;
    // Mask constants of the index and tag hashes.
    std::array<uint16_t, kMaxTables> tagMask_{}; //!< low tagBits_[t]
    uint32_t idxMask_ = 0;                       //!< low logTagged
    // Tagged components as structure-of-arrays: the lookup loop
    // touches only tagKey_ (tag match + validity in one compare),
    // the provider update touches tagCtr_/tagUseful_. One flat
    // allocation per field replaces the per-table node vectors.
    std::vector<uint16_t> tagKey_;   //!< tag, or kFreeEntry
    std::vector<int8_t> tagCtr_;     //!< signed, taken when >= 0
    std::vector<uint8_t> tagUseful_;
    std::vector<int8_t> bimodal_;  //!< 2-bit counters stored as int

    GlobalHistory history_;
    /** Index of the first tagged view (the layout in the file
     * comment) and of the first SC view in foldedValues() order. */
    unsigned tagFirstView_ = 0;
    unsigned scFirstView_ = 0;

    // use-alt-on-newly-allocated counter (4 bits signed)
    int useAltOnNa_ = 0;

    // SC: bias table + GEHL tables over short folded histories.
    std::vector<unsigned> scHistLens_;
    std::vector<std::vector<int8_t>> scTables_;
    std::vector<int8_t> scBias_;
    int scThreshold_ = 6;
    int scThresholdCtr_ = 0;

    std::vector<LoopEntry> loop_;
    uint32_t loopWays_ = 4;

    uint64_t updates_ = 0;
    int tick_ = 0;
    uint32_t lfsr_ = 0xACE1u;

    PredictContext ctx_{};
};

} // namespace whisper

#endif // WHISPER_BP_TAGE_SCL_HH
