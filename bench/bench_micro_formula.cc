/**
 * @file
 * Google-benchmark microbenchmarks for the formula machinery: the
 * per-prediction costs Whisper adds (formula evaluation, hashed
 * history maintenance for a whole whisper+TAGE-SC-L stack) and the
 * offline costs (Algorithm 1 scoring, candidate search).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "bp/tage_scl.hh"
#include "core/formula.hh"
#include "core/formula_trainer.hh"
#include "core/history_hash.hh"
#include "rombf/rombf_formula.hh"
#include "trace/global_history.hh"
#include "util/rng.hh"

using namespace whisper;

namespace
{

void
BM_FormulaEvaluate(benchmark::State &state)
{
    BoolFormula f(0x2A51, 8);
    uint8_t in = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.evaluate(in));
        ++in;
    }
}
BENCHMARK(BM_FormulaEvaluate);

void
BM_TruthTableLookup(benchmark::State &state)
{
    static const TruthTableCache cache(8);
    uint16_t enc = 0x2A51;
    uint8_t in = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.evaluate(enc, in));
        ++in;
    }
}
BENCHMARK(BM_TruthTableLookup);

/**
 * The folded views one whisper+TAGE-SC-L 64KB stack reads per
 * branch: TAGE's index and two tag views per tagged table (the
 * geometric series TageScl builds) plus its five SC views, and
 * Whisper's 16 hashed lengths.
 */
GlobalHistory
whisperTageHistory(std::vector<size_t> &views)
{
    TageSclConfig cfg;
    GlobalHistory h(4096);
    double ratio = std::pow(static_cast<double>(cfg.maxHist) / cfg.minHist,
                            1.0 / (TageScl::kNumTables - 1));
    double len = cfg.minHist;
    unsigned prev = 0;
    for (unsigned i = 0; i < TageScl::kNumTables; ++i) {
        unsigned l = std::max(static_cast<unsigned>(len + 0.5), prev + 1);
        unsigned tagBits = 8 + std::min(3u, i / 4);
        views.push_back(h.addFoldedView(l, cfg.logTagged));
        views.push_back(h.addFoldedView(l, tagBits));
        views.push_back(h.addFoldedView(l, tagBits - 1));
        prev = l;
        len *= ratio;
    }
    for (unsigned l : {4u, 10u, 16u, 27u, 44u})
        views.push_back(h.addFoldedView(l, cfg.logSc));
    for (unsigned l : geometricLengths(WhisperConfig{}))
        views.push_back(h.addFoldedView(l, 8));
    return h;
}

void
BM_FoldedHistoryPush(benchmark::State &state)
{
    // What one predict/update pair costs the history: one push and
    // one read of every view.
    std::vector<size_t> views;
    GlobalHistory h = whisperTageHistory(views);
    bool bit = false;
    uint32_t sink = 0;
    for (auto _ : state) {
        h.push(bit);
        for (size_t v : views)
            sink ^= h.foldedValue(v);
        benchmark::DoNotOptimize(sink);
        bit = !bit;
    }
    state.counters["views"] = static_cast<double>(views.size());
}
BENCHMARK(BM_FoldedHistoryPush);

/** A 256-key T/NT table of small random counts. */
HashedSampleTable
randomTable(uint64_t seed)
{
    HashedSampleTable table(8);
    Rng rng(seed);
    for (unsigned k = 0; k < 256; ++k) {
        table.taken[k] = static_cast<uint32_t>(rng.nextBelow(50));
        table.notTaken[k] = static_cast<uint32_t>(rng.nextBelow(50));
    }
    return table;
}

void
BM_ScoreFormula(benchmark::State &state)
{
    static const TruthTableCache cache(8);
    const FormulaScorer scorer(randomTable(1));
    uint16_t enc = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(scorer.score(cache.table(enc)));
        enc = static_cast<uint16_t>((enc + 977) & 0x7FFF);
    }
}
BENCHMARK(BM_ScoreFormula);

void
BM_FormulaScorerBuild(benchmark::State &state)
{
    // Paid once per (branch, history length) search.
    HashedSampleTable table = randomTable(1);
    for (auto _ : state) {
        FormulaScorer scorer(table);
        benchmark::DoNotOptimize(&scorer);
    }
}
BENCHMARK(BM_FormulaScorerBuild);

void
BM_TruthTableCacheBuild(benchmark::State &state)
{
    // All 32768 8-input truth tables plus support masks: paid once
    // per process.
    for (auto _ : state) {
        TruthTableCache cache(8);
        benchmark::DoNotOptimize(&cache);
    }
}
BENCHMARK(BM_TruthTableCacheBuild)->Unit(benchmark::kMillisecond);

void
BM_Algorithm1Randomized(benchmark::State &state)
{
    // One branch x one history length; the argument is the fraction
    // of encodings scored in per mille: 10 is WhisperConfig's
    // default 1%, 1 the paper's 0.1% operating point.
    static const TruthTableCache cache(8);
    FormulaCandidates candidates(
        8, static_cast<double>(state.range(0)) / 1000.0, 42);
    HashedSampleTable table = randomTable(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            findBooleanFormula(table, candidates.encodings(), cache));
    }
}
BENCHMARK(BM_Algorithm1Randomized)->Arg(10)->Arg(1);

void
BM_RombfEnumerate(benchmark::State &state)
{
    // The prior work's exhaustive search-space construction; the
    // argument is the history length (grows exponentially).
    unsigned vars = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        auto e = enumerateRombf(vars, /*dedupe=*/false);
        benchmark::DoNotOptimize(e.tables.data());
    }
}
BENCHMARK(BM_RombfEnumerate)->Arg(4)->Arg(6)->Arg(8);

} // namespace

BENCHMARK_MAIN();
