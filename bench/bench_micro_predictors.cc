/**
 * @file
 * Google-benchmark microbenchmarks for the predictors: simulation
 * throughput of TAGE-SC-L at several budgets, the Whisper hybrid's
 * overhead on top of it, and hint-buffer operations.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <span>

#include "bp/tage_scl.hh"
#include "core/hint_buffer.hh"
#include "trace/branch_trace.hh"
#include "core/whisper_predictor.hh"
#include "sim/experiment.hh"
#include "workloads/app_workload.hh"

using namespace whisper;

namespace
{

/** Pre-generated trace shared by the throughput benches. */
const BranchTrace &
sharedTrace()
{
    static const BranchTrace trace = [] {
        BranchTrace t("bench", 0);
        AppWorkload wl(appByName("kafka"), 0, 200000);
        t.fill(wl, 200000);
        return t;
    }();
    return trace;
}

void
BM_TagePredictUpdate(benchmark::State &state)
{
    TageScl tage(
        TageSclConfig::forBudgetKB(static_cast<unsigned>(
            state.range(0))));
    const BranchTrace &trace = sharedTrace();
    size_t i = 0;
    for (auto _ : state) {
        const BranchRecord &rec = trace[i];
        if (rec.isConditional()) {
            bool pred = tage.predict(rec.pc);
            tage.update(rec.pc, rec.taken);
            benchmark::DoNotOptimize(pred);
        }
        i = (i + 1) % trace.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TagePredictUpdate)->Arg(8)->Arg(64)->Arg(1024);

void
BM_WhisperHybridStep(benchmark::State &state)
{
    ExperimentConfig cfg;
    cfg.trainRecords = 150000;
    const AppConfig &app = appByName("kafka");
    BranchProfile profile = profileApp(app, 0, cfg);
    WhisperBuild build = trainWhisper(app, 0, profile, cfg);
    auto pred = makeWhisperPredictor(cfg, build);

    // One iteration steps one block of records, as the runners do.
    std::span<const BranchRecord> records = sharedTrace().records();
    std::array<uint8_t, kStepBlock> miss;
    size_t first = 0;
    for (auto _ : state) {
        if (first + kStepBlock > records.size())
            first = 0;
        pred->step(records.subspan(first, kStepBlock), miss.data());
        benchmark::DoNotOptimize(miss.data());
        benchmark::ClobberMemory();
        first += kStepBlock;
    }
    state.SetItemsProcessed(state.iterations() * kStepBlock);
}
BENCHMARK(BM_WhisperHybridStep);

void
BM_HintBufferInsertLookup(benchmark::State &state)
{
    HintBuffer buf(32);
    BrHint hint;
    uint64_t pc = 0;
    for (auto _ : state) {
        buf.insert(0x1000 + (pc % 64) * 16, hint);
        benchmark::DoNotOptimize(
            buf.lookup(0x1000 + ((pc + 7) % 64) * 16));
        ++pc;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HintBufferInsertLookup);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    AppWorkload wl(appByName("mysql"), 0, ~0ULL);
    BranchRecord rec;
    for (auto _ : state) {
        wl.next(rec);
        benchmark::DoNotOptimize(rec.pc);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkloadGeneration);

} // namespace

BENCHMARK_MAIN();
