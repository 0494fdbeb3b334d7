#include "uarch/pipeline.hh"

#include <algorithm>

#include "uarch/ras.hh"
#include "util/logging.hh"

namespace whisper
{

double
PipelineStats::ipc() const
{
    double c = cycles();
    return c > 0.0 ? instructions / c : 0.0;
}

double
PipelineStats::mpki() const
{
    return instructions > 0
        ? 1000.0 * static_cast<double>(mispredicts) / instructions
        : 0.0;
}

PipelineModel::PipelineModel(const PipelineConfig &cfg) : cfg_(cfg)
{
    whisper_assert(cfg.fetchWidth >= 1);
    whisper_assert(cfg.fdipCoverageDepth >= 1);
}

PipelineStats
PipelineModel::run(BranchSource &source, BranchPredictor &predictor)
{
    PipelineStats stats;
    InstructionHierarchy icache(cfg_.icache);
    Btb btb(cfg_.btbEntries, cfg_.btbWays);
    ReturnAddressStack ras(cfg_.rasEntries);
    IndirectBtb ibtb(cfg_.ibtbEntries);

    source.rewind();
    uint64_t fetchAddr = 0;
    unsigned runAhead = cfg_.ftqEntries;
    const unsigned lineBytes = 64;

    // The predictor never reads the frontend state below, so stepping
    // it a block ahead is the same as stepping it record by record.
    stepBlocks(source, predictor, [&](const BranchRecord &rec, bool miss) {
        uint64_t instrs = static_cast<uint64_t>(rec.instGap) + 1;
        stats.instructions += instrs;
        stats.baseCycles += static_cast<double>(instrs) *
                            (1.0 / cfg_.fetchWidth + cfg_.backendCpi);
        ++stats.branches;

        // Fetch the basic block feeding this branch. FDIP hides a
        // fraction of the miss latency proportional to how far ahead
        // the frontend is running.
        if (fetchAddr == 0)
            fetchAddr = rec.pc; // first record: start at the branch
        uint64_t blockBytes = instrs * cfg_.bytesPerInstruction;
        uint64_t firstLine = fetchAddr / lineBytes;
        uint64_t lastLine = (fetchAddr + blockBytes) / lineBytes;
        double hide = std::min(
            1.0, static_cast<double>(runAhead) /
                     cfg_.fdipCoverageDepth);
        for (uint64_t line = firstLine; line <= lastLine; ++line) {
            unsigned latency = icache.fetch(line * lineBytes);
            if (latency > 0) {
                ++stats.l1iMisses;
                stats.frontendStallCycles += latency * (1.0 - hide);
            }
        }

        if (rec.isConditional()) {
            ++stats.conditionals;
            if (miss) {
                ++stats.mispredicts;
                stats.squashCycles += cfg_.mispredictPenalty;
                runAhead = 0;
            } else if (runAhead < cfg_.ftqEntries) {
                ++runAhead;
            }
        } else if (runAhead < cfg_.ftqEntries) {
            ++runAhead;
        }

        // Taken control transfers need a predicted target for the
        // frontend to redirect without a bubble. Returns resolve via
        // the RAS, indirect jumps via the IBTB, everything else via
        // the BTB.
        if (rec.taken && rec.target != 0) {
            switch (rec.kind) {
              case BranchKind::Return: {
                uint64_t predicted = ras.pop();
                if (predicted != rec.target) {
                    ++stats.rasMisses;
                    stats.btbStallCycles += cfg_.btbMissPenalty;
                    runAhead = runAhead / 2;
                }
                break;
              }
              case BranchKind::Indirect: {
                uint64_t predicted = ibtb.predict(rec.pc);
                if (predicted != rec.target) {
                    // Wrong indirect target: full squash, the
                    // frontend followed the wrong path.
                    ++stats.indirectMisses;
                    stats.indirectStallCycles +=
                        cfg_.mispredictPenalty;
                    runAhead = 0;
                }
                ibtb.update(rec.pc, rec.target);
                break;
              }
              default: {
                uint64_t target = 0;
                if (!btb.lookup(rec.pc, target) ||
                    target != rec.target) {
                    ++stats.btbMisses;
                    stats.btbStallCycles += cfg_.btbMissPenalty;
                    runAhead = runAhead / 2;
                }
                btb.update(rec.pc, rec.target);
                break;
              }
            }
            // Calls (direct or through an indirect dispatch site)
            // push their return address.
            if (rec.kind == BranchKind::Call ||
                rec.kind == BranchKind::Indirect) {
                ras.push(rec.pc + cfg_.bytesPerInstruction);
            }
        }

        fetchAddr = rec.taken && rec.target != 0
            ? rec.target
            : rec.pc + cfg_.bytesPerInstruction;
    });
    return stats;
}

} // namespace whisper
