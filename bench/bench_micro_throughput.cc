/**
 * @file
 * Simulation-throughput microbench: branches/sec/core for every
 * predictor on the mysql trace, driven by the runners' per-record
 * step, TAGE-SC-L 64KB with its statistical corrector and loop
 * predictor each switched off (what each component costs the
 * simulator, next to what it buys in mispredicts), the frontend
 * model (PipelineModel with an ideal direction
 * predictor, so only caches, BTB, RAS and IBTB cost), the
 * hint-buffer hot path measured in isolation, and the CRC-32 that
 * frames every .whrt chunk, wire frame and journal record.
 *
 * This bench measures the simulator, not the modeled hardware: it
 * exists so the data-layout work (flat SoA predictor tables, the
 * hint buffer) has a pinned, machine-readable trajectory. Besides
 * the human tables it appends a run record to
 * BENCH_micro_throughput.json in its working directory; CI's
 * perf-smoke job checks the newest record, and the repo commits the
 * history at the root.
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hh"
#include "bp/perceptron.hh"
#include "bp/tage_scl.hh"
#include "core/hint_buffer.hh"
#include "sim/runner.hh"
#include "trace/branch_trace.hh"
#include "uarch/pipeline.hh"
#include "util/crc32.hh"

using namespace whisper;
using namespace whisper::bench;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

struct Throughput
{
    double bps = 0; //!< conditional branches/sec
    double rps = 0; //!< records/sec
    uint64_t mispredicts = 0;
};

/** Time a fresh @p pred over the whole trace. */
Throughput
measurePredictor(const BranchTrace &trace, BranchPredictor &pred)
{
    Throughput out;
    auto start = Clock::now();
    for (const BranchRecord &rec : trace)
        out.mispredicts += stepPredictor(pred, rec);
    double seconds = secondsSince(start);
    out.bps = trace.conditionals() / seconds;
    out.rps = trace.size() / seconds;
    return out;
}

/** One hint-buffer operation: a lookup, or an insert of @p hint. */
struct BufOp
{
    uint64_t pc;
    bool insert;
    BrHint hint;
};

/**
 * The exact hint-buffer op sequence WhisperPredictor would issue
 * while replaying a trace: a lookup per conditional, inserts when a
 * record executes a predecessor block that carries brhints.
 */
std::vector<BufOp>
hintBufferScript(const BranchTrace &trace, const WhisperBuild &build)
{
    std::unordered_map<uint64_t, BrHint> hints;
    for (const auto &h : build.hints)
        hints[h.pc] = h.hint;
    std::unordered_map<uint64_t, std::vector<uint64_t>> triggers;
    for (const auto &pl : build.placements)
        triggers[pl.predecessorPc].push_back(pl.branchPc);

    std::vector<BufOp> script;
    for (const BranchRecord &rec : trace) {
        if (rec.isConditional())
            script.push_back({rec.pc, false, BrHint{}});
        auto it = triggers.find(rec.pc);
        if (it == triggers.end())
            continue;
        for (uint64_t branchPc : it->second)
            script.push_back({branchPc, true, hints[branchPc]});
    }
    return script;
}

/** Replay the script @p reps times; seconds elapsed. */
double
replayScript(HintBuffer &buf, const std::vector<BufOp> &script,
             unsigned reps)
{
    auto start = Clock::now();
    for (unsigned r = 0; r < reps; ++r) {
        for (const BufOp &op : script) {
            if (op.insert)
                buf.insert(op.pc, op.hint);
            else
                buf.lookup(op.pc);
        }
    }
    return secondsSince(start);
}

} // namespace

int
main()
{
    banner("micro_throughput: simulator branches/sec/core",
           "engineering trajectory (not a paper figure)");

    ExperimentConfig cfg = defaultConfig();
    const AppConfig &app = appByName("mysql");

    // Evaluation trace: the test input, as in the accuracy benches.
    AppWorkload workload(app, 1, cfg.testRecords);
    BranchTrace trace(app.name, 1);
    trace.fill(workload, cfg.testRecords);
    std::printf("trace: %s  records=%zu  conditionals=%llu\n\n",
                app.name.c_str(), trace.size(),
                static_cast<unsigned long long>(
                    trace.conditionals()));

    // Whisper needs trained hints for a realistic hint-buffer load.
    BranchProfile profile = profileApp(app, 0, cfg);
    WhisperBuild build = trainWhisper(app, 0, profile, cfg);

    struct Row
    {
        std::string name;
        Throughput t;
    };
    std::vector<Row> rows;

    auto runOne = [&](const std::string &label,
                      std::unique_ptr<BranchPredictor> pred) {
        rows.push_back({label, measurePredictor(trace, *pred)});
    };

    runOne("tage64", makeTage(cfg.tageBudgetKB));
    runOne("bimodal", std::make_unique<BimodalPredictor>());
    runOne("gshare", std::make_unique<GsharePredictor>());
    runOne("perceptron", std::make_unique<PerceptronPredictor>());
    runOne("whisper_tage64", makeWhisperPredictor(cfg, build));

    TableReporter table("simulator throughput (mysql)");
    table.setHeader({"predictor", "Mbr/s"});
    for (const auto &r : rows)
        table.addRow(r.name, {r.t.bps / 1e6});
    table.print();

    // --- TAGE-SC-L 64KB by component ---
    struct Component
    {
        const char *name;
        bool useSc, useLoop;
    };
    const Component components[] = {{"full", true, true},
                                    {"no_sc", false, true},
                                    {"no_loop", true, false},
                                    {"tage_only", false, false}};
    std::vector<Row> componentRows;
    for (const Component &c : components) {
        TageSclConfig tc = TageSclConfig::forBudgetKB(cfg.tageBudgetKB);
        tc.useSc = c.useSc;
        tc.useLoop = c.useLoop;
        TageScl pred(tc);
        componentRows.push_back({c.name, measurePredictor(trace, pred)});
    }
    TableReporter compTable("TAGE-SC-L 64KB by component (mysql)");
    compTable.setHeader({"config", "Mrec/s", "ns/rec", "mispredicts"});
    for (const auto &r : componentRows) {
        compTable.addRow({r.name, TableReporter::formatDouble(r.t.rps / 1e6),
                          TableReporter::formatDouble(1e9 / r.t.rps, 1),
                          std::to_string(r.t.mispredicts)});
    }
    compTable.print();

    // --- frontend model: records/sec with a perfect predictor ---
    TraceSource feSource(trace);
    IdealPredictor ideal;
    auto feStart = Clock::now();
    PipelineStats fe = PipelineModel().run(feSource, ideal);
    double feRps = trace.size() / secondsSince(feStart);
    std::printf("frontend model: %.2f Mrec/s  l1i_misses=%llu"
                "  btb_misses=%llu\n\n",
                feRps / 1e6,
                static_cast<unsigned long long>(fe.l1iMisses),
                static_cast<unsigned long long>(fe.btbMisses));

    // --- hint-buffer hot path ---
    std::vector<BufOp> script = hintBufferScript(trace, build);
    uint64_t inserts = 0;
    for (const BufOp &op : script)
        inserts += op.insert;
    size_t totalOps = script.size();
    uint64_t lookups = totalOps - inserts;

    // Repeat the script so even heavily scaled-down CI runs time
    // tens of millions of ops.
    unsigned reps = 1;
    while (reps * totalOps < 8'000'000)
        ++reps;

    HintBuffer buffer(cfg.whisper.hintBufferEntries);
    double bufferSecs = replayScript(buffer, script, reps);

    // branches/sec through the buffer: one lookup per conditional.
    double bufferBps = lookups * reps / bufferSecs;
    std::printf("hint-buffer path: %.2f Mbranches/s per core\n",
                bufferBps / 1e6);
    std::printf("script: %zu ops (%llu lookups + %llu inserts)"
                " x %u reps, %u entries\n",
                totalOps,
                static_cast<unsigned long long>(lookups),
                static_cast<unsigned long long>(inserts), reps,
                cfg.whisper.hintBufferEntries);
    std::printf("buffer service: hits=%llu misses=%llu"
                " insertions=%llu refreshes=%llu evictions=%llu\n",
                static_cast<unsigned long long>(buffer.hits()),
                static_cast<unsigned long long>(buffer.misses()),
                static_cast<unsigned long long>(buffer.insertions()),
                static_cast<unsigned long long>(buffer.refreshes()),
                static_cast<unsigned long long>(buffer.evictions()));

    // --- CRC-32 over the trace's record image (the .whrt/wire
    // payload bytes), repeated to at least 64 MB ---
    std::vector<unsigned char> image;
    appendRecordImage(image, trace.records());
    unsigned crcReps = 1;
    while (crcReps * image.size() < (64u << 20))
        ++crcReps;
    uint32_t crc = 0;
    auto crcStart = Clock::now();
    for (unsigned r = 0; r < crcReps; ++r)
        crc = crc32(image.data(), image.size(), crc);
    double crcMBps = image.size() * crcReps / secondsSince(crcStart) / 1e6;
    std::printf("crc32: %.0f MB/s over %zu bytes x %u reps"
                " (crc %08x)\n",
                crcMBps, image.size(), crcReps, crc);

    // whisper+TAGE (the last row) relative to TAGE alone (the first):
    // what the hint path costs the simulator. Reported, not gated.
    double whisperOverTage = rows.back().t.bps / rows.front().t.bps;
    std::printf("\nwhisper_tage64 / tage64 throughput: %.3f\n",
                whisperOverTage);

    // One run record: config, per-predictor rows, the ratio, the
    // frontend model, the hint-buffer path, the CRC rate, then the
    // TAGE-SC-L component rows.
    std::string fields =
        "      \"scale\": " + fixed(scaleFactor(), 3) + ",\n" +
        "      \"trace\": \"" + app.name + "\",\n" +
        "      \"records\": " + std::to_string(trace.size()) + ",\n" +
        "      \"conditionals\": " +
        std::to_string(trace.conditionals()) + ",\n" +
        "      \"predictors\": {\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        fields += "        \"" + r.name +
                  "\": {\"serial_branches_per_sec\": " +
                  fixed(r.t.bps, 0) + ", \"mispredicts\": " +
                  std::to_string(r.t.mispredicts) + "}" +
                  (i + 1 < rows.size() ? "," : "") + "\n";
    }
    fields += "      },\n      \"whisper_over_tage\": " +
              fixed(whisperOverTage, 3) + ",\n" +
              "      \"frontend\": {\"records_per_sec\": " +
              fixed(feRps, 0) + ", \"l1i_misses\": " +
              std::to_string(fe.l1iMisses) + ", \"btb_misses\": " +
              std::to_string(fe.btbMisses) + "},\n" +
              "      \"hint_buffer\": {\"entries\": " +
              std::to_string(cfg.whisper.hintBufferEntries) +
              ", \"script_ops\": " + std::to_string(totalOps) +
              ", \"lookups\": " + std::to_string(lookups) +
              ", \"inserts\": " + std::to_string(inserts) +
              ", \"reps\": " + std::to_string(reps) +
              ", \"branches_per_sec\": " + fixed(bufferBps, 0) + "},\n" +
              "      \"crc32\": {\"mb_per_s\": " + fixed(crcMBps, 1) +
              ", \"bytes\": " + std::to_string(image.size()) + "},\n" +
              "      \"tage_components\": {\n";
    for (size_t i = 0; i < componentRows.size(); ++i) {
        const Row &r = componentRows[i];
        fields += "        \"" + r.name + "\": {\"records_per_sec\": " +
                  fixed(r.t.rps, 0) + ", \"mispredicts\": " +
                  std::to_string(r.t.mispredicts) + "}" +
                  (i + 1 < componentRows.size() ? "," : "") + "\n";
    }
    fields += "      }";
    const char *jsonPath = "BENCH_micro_throughput.json";
    if (appendRunRecord(jsonPath, "micro_throughput", fields))
        std::printf("appended a run to %s\n", jsonPath);
    else
        std::fprintf(stderr, "warning: cannot append to %s\n",
                     jsonPath);
    return 0;
}
