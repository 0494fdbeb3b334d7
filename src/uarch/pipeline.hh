/**
 * @file
 * Trace-driven, cycle-approximate core model with a decoupled
 * frontend (FTQ + FDIP), mirroring the paper's Scarab configuration
 * (Table II): 6-wide OOO, 24-entry FTQ, 8192-entry 4-way BTB, and a
 * 32KB/1MB/10MB instruction-side cache hierarchy.
 *
 * The model charges three stall sources on top of the width-limited
 * base cost:
 *  - squash cycles on branch mispredictions (pipeline refill),
 *  - frontend stall cycles on I-cache misses that FDIP could not
 *    cover (FDIP coverage degrades as mispredictions keep resetting
 *    the run-ahead distance — the paper's SII-B coupling between
 *    prediction accuracy and frontend stalls),
 *  - BTB-miss re-steer bubbles for taken branches.
 */

#ifndef WHISPER_UARCH_PIPELINE_HH
#define WHISPER_UARCH_PIPELINE_HH

#include <cstdint>

#include "bp/branch_predictor.hh"
#include "trace/branch_source.hh"
#include "uarch/btb.hh"
#include "uarch/cache.hh"

namespace whisper
{

/** Core parameters (Table II defaults). */
struct PipelineConfig
{
    unsigned fetchWidth = 6;       //!< also the retire width
    unsigned ftqEntries = 24;      //!< frontend run-ahead cap
    unsigned robEntries = 224;     //!< documented; width-limited model
    unsigned mispredictPenalty = 15; //!< squash + refill cycles
    unsigned btbMissPenalty = 6;   //!< decode re-steer bubble
    unsigned btbEntries = 8192;
    unsigned btbWays = 4;
    unsigned rasEntries = 32;      //!< return address stack
    unsigned ibtbEntries = 4096;   //!< indirect-target predictor
    /**
     * Run-ahead (in FTQ-resident branches) needed for FDIP to fully
     * hide a demand miss; below it, hiding is proportional.
     */
    unsigned fdipCoverageDepth = 6;
    unsigned bytesPerInstruction = 16; //!< synthetic code layout
    /**
     * Backend cycles per instruction from everything this frontend
     * model does not simulate (data-cache misses, dependence
     * stalls, structural hazards). Calibrated so data center
     * workloads land near their reported CPI of ~0.7-1.2 and the
     * ideal-predictor limit study (Fig. 1) matches the paper's
     * magnitude.
     */
    double backendCpi = 0.45;
    InstructionHierarchy::Config icache;
};

/** Outcome of one pipeline run. */
struct PipelineStats
{
    uint64_t instructions = 0;
    uint64_t branches = 0;          //!< all control transfers
    uint64_t conditionals = 0;
    uint64_t mispredicts = 0;
    uint64_t btbMisses = 0;
    uint64_t rasMisses = 0;
    uint64_t indirectMisses = 0;
    uint64_t l1iMisses = 0;

    double baseCycles = 0.0;        //!< width-limited issue cycles
    double squashCycles = 0.0;      //!< misprediction stalls
    double frontendStallCycles = 0.0; //!< uncovered I-cache misses
    double btbStallCycles = 0.0;    //!< BTB/RAS re-steer bubbles
    double indirectStallCycles = 0.0; //!< indirect-target flushes

    double
    cycles() const
    {
        return baseCycles + squashCycles + frontendStallCycles +
               btbStallCycles + indirectStallCycles;
    }

    double ipc() const;
    /** Conditional-branch MPKI (CBP-5 accounting). */
    double mpki() const;
};

/** The core model. */
class PipelineModel
{
  public:
    explicit PipelineModel(const PipelineConfig &cfg
                           = PipelineConfig{});

    /**
     * Run @p source to exhaustion with @p predictor supplying
     * conditional directions. The predictor steps every record
     * (Whisper's brhint modeling sees them all).
     */
    PipelineStats run(BranchSource &source,
                      BranchPredictor &predictor);

    const PipelineConfig &config() const { return cfg_; }

  private:
    PipelineConfig cfg_;
};

} // namespace whisper

#endif // WHISPER_UARCH_PIPELINE_HH
