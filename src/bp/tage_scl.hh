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
 * Each tagged table has three folded views (index, tag and shifted
 * tag), registered table by table, and the SC views follow; one
 * predict() reads them all with a single
 * GlobalHistory::foldedValues() call.
 *
 * step() knows a block's outcomes before its table walk, so per
 * kBlock conditionals it reads every view before each push with one
 * GlobalHistory::pushRun(), hashes them all with the helper predict()
 * uses, and then walks the tables in order through predict()'s and
 * update()'s own lookup and training code, which read each branch's
 * hashes in place in the block's arrays.
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
    /** The prediction context points into the predictor's own
     * arrays, so a copy would read the original's. */
    TageScl(const TageScl &) = delete;
    TageScl &operator=(const TageScl &) = delete;

    /** Tagged components, statistical-corrector tables, and loop
     * predictor ways per set: fixed, so every per-table loop has a
     * fixed trip count. */
    static constexpr unsigned kNumTables = 12;
    static constexpr unsigned kNumScTables = 5;
    static constexpr unsigned kLoopWays = 4;
    /** Folded views: three per tagged table plus one per SC table. */
    static constexpr unsigned kNumViews = 3 * kNumTables + kNumScTables;

    /** Conditionals step() hashes at a time. */
    static constexpr size_t kBlock = GlobalHistory::kMaxRun;

    /**
     * The per-record protocol step() walks block by block: predict
     * the conditional at @p pc, then update() it with its outcome
     * (allocate = false suppresses new tagged entries) before the
     * next predict(). Tests use it as step()'s reference.
     */
    bool predict(uint64_t pc);
    void update(uint64_t pc, bool taken, bool allocate = true);

    void step(std::span<const BranchRecord> records, uint8_t *miss,
              const uint8_t *noAllocate = nullptr) override;
    std::string name() const override;
    uint64_t storageBits() const override;

    const TageSclConfig &config() const { return cfg_; }

    /** Component attribution of the last prediction (for analysis). */
    enum class Provider { Bimodal, Tagged, Sc, Loop };
    Provider lastProvider() const { return ctx_.provider; }

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
        /**
         * This branch's hashes, read in place: table t's value is at
         * [t * stride]. step() points them into its block arrays,
         * predict() at oneSlots_, oneTags_ and oneScIndices_. slots are
         * entries of the SoA arrays, which hold every table in one
         * allocation per field (table t's entry idx is at
         * (t << logTagged) + idx); scIndices likewise index
         * scTables_, without the TAGE-prediction bit until
         * computeScPrediction() mixes it in.
         */
        const uint32_t *slots;
        const uint16_t *tags;
        uint32_t *scIndices;
        size_t stride;
    };

    /**
     * Table slots, tags and SC indices (before the TAGE-prediction
     * bit is mixed in) of the @p n conditionals at @p pcs, from their
     * folded views: view v of branch j is fold[v * stride + j], and
     * each output's entry for table t and branch j is at
     * [t * stride + j]. predict() hashes one branch, step() a block.
     */
    void hashBranches(const uint64_t *pcs, size_t n, const uint32_t *fold,
                      size_t stride, uint32_t *slots, uint16_t *tags,
                      uint32_t *scIndices) const;
    /** Predict from the hashes in ctx_, filling the rest of ctx_. */
    bool lookup(uint64_t pc);
    /** update() without the history push. */
    void train(bool taken, bool allocate);

    uint32_t slot(unsigned t) const { return ctx_.slots[t * ctx_.stride]; }
    uint16_t tag(unsigned t) const { return ctx_.tags[t * ctx_.stride]; }
    uint32_t &scIndex(unsigned t) { return ctx_.scIndices[t * ctx_.stride]; }

    // --- tagged path ---
    void computeTagePrediction(uint64_t pc);
    void allocateEntries(bool taken);

    // --- statistical corrector ---
    void computeScPrediction(uint64_t pc);
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
    std::array<unsigned, kNumTables> histLens_{};
    std::array<unsigned, kNumTables> tagBits_{};
    // Mask constants of the index and tag hashes.
    std::array<uint16_t, kNumTables> tagMask_{}; //!< low tagBits_[t]
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
    static constexpr std::array<unsigned, kNumScTables> kScHistLens = {
        4, 10, 16, 27, 44};
    /** Every GEHL table in one allocation: table t's entry idx is at
     * (t << logSc) + idx. */
    std::vector<int8_t> scTables_;
    std::vector<int8_t> scBias_;
    int scThreshold_ = 6;
    int scThresholdCtr_ = 0;

    std::vector<LoopEntry> loop_;

    int tick_ = 0;
    uint32_t lfsr_ = 0xACE1u;

    // predict()'s hashes of its one branch (stride 1).
    std::array<uint32_t, kNumTables> oneSlots_{};
    std::array<uint16_t, kNumTables> oneTags_{};
    std::array<uint32_t, kNumScTables> oneScIndices_{};

    PredictContext ctx_{};
};

} // namespace whisper

#endif // WHISPER_BP_TAGE_SCL_HH
