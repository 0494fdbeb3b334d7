#include "core/hint_injection.hh"

#include <algorithm>
#include <unordered_map>

#include "util/logging.hh"
#include "util/pc_index.hh"

namespace whisper
{

HintInjector::HintInjector(const Config &cfg) : cfg_(cfg)
{
    whisper_assert(cfg.window >= 1);
}

std::vector<HintPlacement>
HintInjector::place(BranchSource &trace,
                    const std::vector<TrainedHint> &hints) const
{
    // Dense ids for the trace's PCs, the hinted branches first: a
    // record executes a hinted branch iff its id < numHinted.
    PcIndex pcs(hints.size());
    for (const auto &h : hints)
        pcs.insert(h.pc);
    const size_t numHinted = pcs.size();
    std::vector<uint64_t> execCount(numHinted), branchExec(numHinted);
    std::vector<uint8_t> marked(numHinted); // dedupes one window

    // pairs.keys()[i] = hinted branch id << 32 | predecessor id, in
    // first-seen order; coCount[i] = the branch executions with the
    // predecessor in the preceding window.
    PcIndex pairs;
    std::vector<uint64_t> coCount;

    trace.rewind();
    std::vector<uint32_t> window(cfg_.window); // ring of PC ids
    size_t filled = 0, next = 0;
    BranchRecord rec;
    while (trace.next(rec)) {
        uint32_t id = pcs.insert(rec.pc);
        execCount.resize(pcs.size());
        marked.resize(pcs.size());
        ++execCount[id];
        if (rec.isConditional() && id < numHinted) {
            ++branchExec[id];
            size_t at = filled == window.size() ? next : 0; // oldest
            for (size_t k = 0; k < filled; ++k) {
                uint32_t pred = window[at];
                at = at + 1 == window.size() ? 0 : at + 1;
                if (marked[pred])
                    continue;
                marked[pred] = 1;
                uint32_t pair = pairs.insert(uint64_t{id} << 32 | pred);
                coCount.resize(pairs.size());
                ++coCount[pair];
            }
            for (size_t k = 0; k < filled; ++k)
                marked[window[k]] = 0;
        }
        window[next] = id;
        next = next + 1 == window.size() ? 0 : next + 1;
        filled = std::min(filled + 1, window.size());
    }

    // Each hinted branch's pair ids, in first-seen order.
    std::vector<std::vector<uint32_t>> byBranch(numHinted);
    for (uint32_t i = 0; i < pairs.size(); ++i)
        byBranch[pairs.keys()[i] >> 32].push_back(i);

    std::vector<HintPlacement> placements;
    placements.reserve(hints.size());
    for (const auto &h : hints) {
        HintPlacement pl;
        pl.branchPc = h.pc;

        // Scoring walks the predecessors in the iteration order of an
        // unordered_map filled in first-seen order: the first best
        // score wins, so that order is the tie-break. A branch that
        // never executed has none.
        uint32_t branch = pcs.find(h.pc), best = branch;
        std::unordered_map<uint64_t, uint32_t> preds;
        for (uint32_t pair : byBranch[branch])
            preds[pcs.keys()[pairs.keys()[pair] & 0xFFFFFFFF]] = pair;
        double bestScore = -1.0;
        for (const auto &[predPc, pair] : preds) {
            uint32_t pred = static_cast<uint32_t>(pairs.keys()[pair]);
            double coverage =
                static_cast<double>(coCount[pair]) / branchExec[branch];
            // A branch may execute several times inside one
            // predecessor window; cap so precision stays a
            // probability.
            double precision = std::min(
                1.0, static_cast<double>(coCount[pair]) / execCount[pred]);
            // Conditional-probability score: a good predecessor
            // covers the branch and rarely fires spuriously.
            double score = coverage * precision;
            if (coverage >= cfg_.minCoverage && score > bestScore) {
                bestScore = score;
                best = pred;
                pl.predecessorPc = predPc;
                pl.coverage = coverage;
                pl.precision = precision;
            }
        }
        if (bestScore < 0.0) {
            // Fall back to the branch's own block: the hint becomes
            // available from the branch's second execution onwards.
            pl.predecessorPc = h.pc;
            pl.coverage = 1.0;
            pl.precision = 1.0;
        }
        pl.predecessorExecutions = execCount[best];
        placements.push_back(pl);
    }
    return placements;
}

InjectionOverhead
HintInjector::overhead(const std::vector<HintPlacement> &placements,
                       uint64_t staticInstructions,
                       uint64_t dynamicInstructions)
{
    InjectionOverhead o;
    o.staticHints = placements.size();
    for (const auto &pl : placements)
        o.dynamicHints += pl.predecessorExecutions;
    if (staticInstructions > 0) {
        o.staticIncreasePct = 100.0 *
            static_cast<double>(o.staticHints) / staticInstructions;
    }
    if (dynamicInstructions > 0) {
        o.dynamicIncreasePct = 100.0 *
            static_cast<double>(o.dynamicHints) / dynamicInstructions;
    }
    return o;
}

} // namespace whisper
