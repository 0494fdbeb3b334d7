/**
 * @file
 * Simulation-throughput microbench: branches/sec/core for TAGE-SC-L
 * 64KB and whisper+TAGE on the mysql trace, driven through step() in
 * the runners' blocks; TAGE-SC-L 64KB both through its own per-record
 * predict()/update() and through step() (what the block step saves),
 * and whisper+TAGE again through step(); TAGE-SC-L 64KB
 * with its statistical corrector and loop predictor each switched
 * off (what each component costs the simulator, next to what it
 * buys in mispredicts); the frontend model (PipelineModel with an
 * ideal direction predictor, so only caches, BTB, RAS and IBTB
 * cost); the hint-buffer hot path measured in isolation; the record
 * codec (.whrt v3 and INGEST_CHUNK payload: bytes, encode and decode
 * cost, exact round trip); and the CRC-32 that frames every .whrt
 * chunk, wire frame and journal record. Every timing is the best of
 * kPasses passes.
 *
 * This bench measures the simulator, not the modeled hardware: it
 * exists so the data-layout work (flat SoA predictor tables, the
 * hint buffer) has a pinned, machine-readable trajectory. Besides
 * the human tables it appends a run record to
 * BENCH_micro_throughput.json in its working directory; CI's
 * perf-smoke job checks the newest record, and the repo commits the
 * history at the root.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hh"
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

/** Timed passes behind every figure: a shared host slows single
 * passes at random, so each figure is the fastest of these. */
constexpr int kPasses = 5;

/** The fewest seconds of kPasses calls of @p pass, which times
 * itself and returns its seconds. */
template <typename Pass>
double
bestSeconds(Pass &&pass)
{
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < kPasses; ++i)
        best = std::min(best, pass());
    return best;
}

struct Throughput
{
    double bps = 0; //!< conditional branches/sec
    double rps = 0; //!< records/sec
    uint64_t mispredicts = 0;
};

/** Time a fresh predictor from @p make over the whole trace, stepped
 * through step() in kStepBlock blocks as the runners step it, or,
 * with @p PerRecord, through TageScl's own predict()/update() one
 * conditional at a time; the best of kPasses passes. */
template <bool PerRecord = false, typename Make>
Throughput
measurePredictor(const BranchTrace &trace, Make &&make)
{
    Throughput out;
    std::span<const BranchRecord> records = trace.records();
    std::array<uint8_t, kStepBlock> miss;
    double seconds = bestSeconds([&] {
        auto pred = make();
        out.mispredicts = 0;
        auto start = Clock::now();
        if constexpr (PerRecord) {
            for (const BranchRecord &rec : records) {
                if (rec.isConditional()) {
                    bool guess = pred->predict(rec.pc);
                    pred->update(rec.pc, rec.taken);
                    out.mispredicts += guess != rec.taken;
                }
            }
        } else {
            for (size_t first = 0; first < records.size();
                 first += kStepBlock) {
                auto block = records.subspan(
                    first, std::min(kStepBlock, records.size() - first));
                pred->step(block, miss.data());
                for (size_t i = 0; i < block.size(); ++i)
                    out.mispredicts += miss[i];
            }
        }
        return secondsSince(start);
    });
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

    auto runOne = [&](const std::string &label, auto make) {
        rows.push_back({label, measurePredictor(trace, make)});
    };

    runOne("tage64", [&] { return makeTage(cfg.tageBudgetKB); });
    runOne("whisper_tage64",
           [&] { return makeWhisperPredictor(cfg, build); });

    TableReporter table("simulator throughput (mysql)");
    table.setHeader({"predictor", "Mbr/s"});
    for (const auto &r : rows)
        table.addRow(r.name, {r.t.bps / 1e6});
    table.print();

    // --- per record vs block step, on fresh predictors: TAGE-SC-L
    // through its own per-record loop and through step(); the Whisper
    // hybrid has only step() ---
    auto makeTageScl = [&] {
        return std::make_unique<TageScl>(
            TageSclConfig::forBudgetKB(cfg.tageBudgetKB));
    };
    const Throughput tagePerRecord = measurePredictor<true>(trace, makeTageScl);
    const Throughput tageBlock = measurePredictor(trace, makeTageScl);
    const Throughput whisperBlock = measurePredictor(
        trace, [&] { return makeWhisperPredictor(cfg, build); });
    TableReporter stepTable("per record vs block step (mysql)");
    stepTable.setHeader({"predictor", "record Mrec/s", "block Mrec/s",
                         "speedup", "mispredicts"});
    stepTable.addRow(
        {"tage64", TableReporter::formatDouble(tagePerRecord.rps / 1e6),
         TableReporter::formatDouble(tageBlock.rps / 1e6),
         TableReporter::formatDouble(tageBlock.rps / tagePerRecord.rps),
         std::to_string(tageBlock.mispredicts)});
    stepTable.addRow({"whisper_tage64", "-",
                      TableReporter::formatDouble(whisperBlock.rps / 1e6),
                      "-", std::to_string(whisperBlock.mispredicts)});
    stepTable.print();

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
        componentRows.push_back(
            {c.name, measurePredictor(
                         trace, [&] { return std::make_unique<TageScl>(tc); })});
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
    PipelineStats fe;
    double feRps = trace.size() / bestSeconds([&] {
        TraceSource feSource(trace);
        IdealPredictor ideal;
        auto start = Clock::now();
        fe = PipelineModel().run(feSource, ideal);
        return secondsSince(start);
    });
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
    double bufferSecs = bestSeconds([&] {
        buffer = HintBuffer(cfg.whisper.hintBufferEntries);
        return replayScript(buffer, script, reps);
    });

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

    // --- record codec: the .whrt v3 / INGEST_CHUNK payload, in
    // the frames BranchTrace::save() writes ---
    const std::span<const BranchRecord> records = trace.records();
    const size_t frameRecords = BranchTrace::kDefaultFrameRecords;
    std::vector<std::vector<unsigned char>> payloads(
        (records.size() + frameRecords - 1) / frameRecords);
    auto framePart = [&](size_t f) {
        return records.subspan(
            f * frameRecords,
            std::min(frameRecords, records.size() - f * frameRecords));
    };
    double encodeSecs = bestSeconds([&] {
        auto start = Clock::now();
        for (size_t f = 0; f < payloads.size(); ++f) {
            payloads[f].clear();
            appendRecordPayload(payloads[f], framePart(f));
        }
        return secondsSince(start);
    });
    std::vector<BranchRecord> decoded;
    bool roundTrip = true;
    double decodeSecs = bestSeconds([&] {
        decoded.clear();
        auto start = Clock::now();
        for (size_t f = 0; f < payloads.size(); ++f) {
            roundTrip &= decodeRecordPayload(payloads[f].data(),
                                             payloads[f].size(),
                                             framePart(f).size(), decoded);
        }
        return secondsSince(start);
    });
    roundTrip = roundTrip &&
                std::equal(decoded.begin(), decoded.end(), records.begin(),
                           records.end(),
                           [](const BranchRecord &a, const BranchRecord &b) {
                               return a.pc == b.pc && a.target == b.target &&
                                      a.kind == b.kind &&
                                      a.taken == b.taken &&
                                      a.instGap == b.instGap;
                           });
    std::vector<unsigned char> payload;
    for (const auto &p : payloads)
        payload.insert(payload.end(), p.begin(), p.end());
    const double bytesPerRec =
        static_cast<double>(payload.size()) / records.size();
    const double encodeNs = 1e9 * encodeSecs / records.size();
    const double decodeNs = 1e9 * decodeSecs / records.size();
    std::printf("record codec: %.2f B/record  encode %.1f ns/record"
                "  decode %.1f ns/record  round trip %s\n",
                bytesPerRec, encodeNs, decodeNs,
                roundTrip ? "exact" : "FAILED");

    // --- CRC-32 over the trace's payload (the .whrt/wire bytes),
    // repeated to at least 64 MB ---
    unsigned crcReps = 1;
    while (crcReps * payload.size() < (64u << 20))
        ++crcReps;
    uint32_t crc = 0;
    double crcMBps = payload.size() * crcReps / bestSeconds([&] {
        crc = 0;
        auto start = Clock::now();
        for (unsigned r = 0; r < crcReps; ++r)
            crc = crc32(payload.data(), payload.size(), crc);
        return secondsSince(start);
    }) / 1e6;
    std::printf("crc32: %.0f MB/s over %zu bytes x %u reps"
                " (crc %08x)\n",
                crcMBps, payload.size(), crcReps, crc);

    // whisper+TAGE (the last row) relative to TAGE alone (the first):
    // what the hint path costs the simulator. Reported, not gated.
    double whisperOverTage = rows.back().t.bps / rows.front().t.bps;
    std::printf("\nwhisper_tage64 / tage64 throughput: %.3f\n",
                whisperOverTage);

    // One run record: config, per-predictor rows, the ratio, the
    // per-record vs block pairs, the frontend model, the hint-buffer
    // path, the record codec, the CRC rate, then the TAGE-SC-L
    // component rows.
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
              "      \"block_step\": {\n";
    fields += "        \"tage64\": {\"per_record_records_per_sec\": " +
              fixed(tagePerRecord.rps, 0) +
              ", \"block_records_per_sec\": " + fixed(tageBlock.rps, 0) +
              ", \"per_record_mispredicts\": " +
              std::to_string(tagePerRecord.mispredicts) +
              ", \"block_mispredicts\": " +
              std::to_string(tageBlock.mispredicts) + "},\n" +
              "        \"whisper_tage64\": {\"block_records_per_sec\": " +
              fixed(whisperBlock.rps, 0) + ", \"block_mispredicts\": " +
              std::to_string(whisperBlock.mispredicts) + "}\n";
    fields += "      },\n      \"frontend\": {\"records_per_sec\": " +
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
              "      \"record_codec\": {\"frame_records\": " +
              std::to_string(frameRecords) +
              ", \"bytes_per_rec\": " + fixed(bytesPerRec, 3) +
              ", \"encode_ns_per_rec\": " + fixed(encodeNs, 2) +
              ", \"decode_ns_per_rec\": " + fixed(decodeNs, 2) +
              ", \"round_trip\": " + (roundTrip ? "true" : "false") +
              "},\n" +
              "      \"crc32\": {\"mb_per_s\": " + fixed(crcMBps, 1) +
              ", \"bytes\": " + std::to_string(payload.size()) + "},\n" +
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
