/**
 * @file
 * Google-benchmark microbenchmarks for the formula machinery: the
 * per-prediction costs Whisper adds (formula evaluation, hashed
 * history maintenance) and the offline costs (Algorithm 1 scoring,
 * candidate search).
 */

#include <benchmark/benchmark.h>

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

void
BM_FoldedHistoryPush(benchmark::State &state)
{
    // The 16 folded views Whisper maintains at run time.
    GlobalHistory h(2048);
    for (unsigned len : geometricLengths(WhisperConfig{}))
        h.addFoldedView(len, 8);
    bool bit = false;
    for (auto _ : state) {
        h.push(bit);
        bit = !bit;
    }
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
