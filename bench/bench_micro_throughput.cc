/**
 * @file
 * Simulation-throughput microbench: branches/sec/core for every
 * predictor on the mysql trace, driven by the runners' per-record
 * step, plus the hint-buffer hot path measured in isolation against
 * the list+map reference model.
 *
 * This bench measures the simulator, not the modeled hardware: it
 * exists so the data-layout work (flat SoA predictor tables, the
 * hint buffer) has a pinned, machine-readable trajectory. Besides
 * the human tables it appends a run record to
 * BENCH_micro_throughput.json in its working directory; CI's
 * perf-smoke job checks the newest record, and the repo commits the
 * history at the root.
 *
 * The hint-buffer timing is also a correctness check: the reference
 * and the HintBuffer must agree on every counter and on recency
 * order after replaying the identical operation sequence.
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hh"
#include "bp/perceptron.hh"
#include "core/hint_buffer.hh"
#include "core/legacy_hint_buffer.hh"
#include "sim/runner.hh"
#include "trace/branch_trace.hh"
#include "util/logging.hh"

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
    out.bps = trace.conditionals() / secondsSince(start);
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
template <typename Buffer>
double
replayScript(Buffer &buf, const std::vector<BufOp> &script,
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

    // --- hint-buffer hot path vs the list+map reference ---
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

    LegacyHintBuffer legacy(cfg.whisper.hintBufferEntries);
    HintBuffer buffer(cfg.whisper.hintBufferEntries);
    double legacySecs = replayScript(legacy, script, reps);
    double bufferSecs = replayScript(buffer, script, reps);

    // The timed replays double as a differential test: both must
    // land in the identical observable state.
    whisper_assert(buffer.hits() == legacy.hits() &&
                       buffer.misses() == legacy.misses() &&
                       buffer.insertions() == legacy.insertions() &&
                       buffer.refreshes() == legacy.refreshes() &&
                       buffer.evictions() == legacy.evictions() &&
                       buffer.lruOrder() == legacy.lruOrder(),
                   "HintBuffer diverged from the legacy reference");

    // branches/sec through the buffer: one lookup per conditional.
    double legacyBps = lookups * reps / legacySecs;
    double bufferBps = lookups * reps / bufferSecs;

    TableReporter buftab("hint-buffer path (per core)");
    buftab.setHeader({"impl", "Mbranches/s", "vs legacy"});
    buftab.addRow("legacy list+map", {legacyBps / 1e6, 1.0});
    buftab.addRow("HintBuffer", {bufferBps / 1e6, bufferBps / legacyBps});
    buftab.print();
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

    // whisper+TAGE (the last row) relative to TAGE alone (the first):
    // what the hint path costs the simulator. Reported, not gated.
    double whisperOverTage = rows.back().t.bps / rows.front().t.bps;
    std::printf("\nwhisper_tage64 / tage64 throughput: %.3f\n",
                whisperOverTage);

    // One run record: config, per-predictor rows, the ratio, then the
    // hint-buffer path.
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
              "      \"hint_buffer\": {\"entries\": " +
              std::to_string(cfg.whisper.hintBufferEntries) +
              ", \"script_ops\": " + std::to_string(totalOps) +
              ", \"lookups\": " + std::to_string(lookups) +
              ", \"inserts\": " + std::to_string(inserts) +
              ", \"reps\": " + std::to_string(reps) +
              ", \"legacy_branches_per_sec\": " + fixed(legacyBps, 0) +
              ", \"branches_per_sec\": " + fixed(bufferBps, 0) +
              ", \"speedup\": " + fixed(bufferBps / legacyBps, 3) + "}";
    const char *jsonPath = "BENCH_micro_throughput.json";
    if (appendRunRecord(jsonPath, "micro_throughput", fields))
        std::printf("appended a run to %s\n", jsonPath);
    else
        std::fprintf(stderr, "warning: cannot append to %s\n",
                     jsonPath);
    return 0;
}
