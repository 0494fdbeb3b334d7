/**
 * @file
 * whisper_loadgen — chaos load harness for whisperd's wire server.
 *
 * Simulates a fleet of concurrent agents, each owning one
 * application stream, ingesting trace chunks over the wire protocol
 * through WhisperClient (reconnect + retransmit + backoff). Under an
 * active --fault-spec the transport misbehaves on purpose (corrupt
 * CRCs, torn frames, mid-frame kills, slow-loris stalls, a listener
 * restart); the harness's job is to prove the reliability contract:
 * every chunk ends acknowledged exactly once, no matter what.
 *
 * Two traffic modes:
 *  - synthetic (default): agent i plays app "<prefix><i>", a
 *    deterministic AppWorkload variant salted by i. --dump-dir
 *    writes every chunk as its own .whrt file, so the identical
 *    input can be replayed through in-process `whisperd --chunks`
 *    and the deployed bundles compared byte-for-byte.
 *  - replay (--chunks DIR): one agent per application found in the
 *    directory, cut by chunkTraceDir(), the chunker behind whisperd
 *    --chunks (same --chunk-records ⇒ same chunks).
 *
 * Reports sustained chunks/sec and p50/p99 per-chunk ingest latency
 * (wall time from first transmission to acknowledgment, retries
 * included) plus retry/reconnect/duplicate counters, optionally as
 * machine-readable JSON (--json, the BENCH_server.json producer).
 * Exit status is nonzero if any chunk finished unacknowledged.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/whisper_client.hh"
#include "service/trace_stream.hh"
#include "trace/branch_trace.hh"
#include "util/fault_injection.hh"
#include "util/stdio_guard.hh"
#include "workloads/app_workload.hh"

#include "cli_parse.hh"

using namespace whisper;

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: whisper_loadgen --port N [options]\n"
        "  --port N             whisperd wire port (required)\n"
        "  --host ADDR          server address (default 127.0.0.1)\n"
        "  --agents N           concurrent agents (default 8)\n"
        "  --base-app NAME      catalog model behind synthetic "
        "streams (default finagle-http)\n"
        "  --app-prefix S       agent i plays app S<i> (default "
        "load)\n"
        "  --chunk-records N    records per chunk (default 2000)\n"
        "  --chunks-per-agent N chunks each agent sends (default "
        "4)\n"
        "  --chunks DIR         replay a .whrt directory instead "
        "(one agent per app)\n"
        "  --dump-dir DIR       also write every synthetic chunk as "
        "DIR/<app>_c<seq>.whrt\n"
        "  --pull-every N       pull the app's bundle after every N "
        "acked chunks (default 0)\n"
        "  --timeout-ms N       per-operation receive deadline "
        "(default 2000)\n"
        "  --max-attempts N     per-chunk attempts before giving up "
        "(default 50)\n"
        "  --fault-spec SPEC    arm client-side wire faults (see "
        "whisperd --fault-spec)\n"
        "  --json FILE          machine-readable results\n");
    std::exit(2);
}

struct AgentPlan
{
    std::string app;
    /** Chunks in send order: (inputId, records). */
    std::vector<std::pair<uint32_t, std::vector<BranchRecord>>>
        chunks;
};

struct AgentResult
{
    uint64_t sent = 0;
    uint64_t acked = 0;
    uint64_t records = 0;
    std::vector<double> latencyMs;
    WhisperClientStats client;
    std::string error;
};

/** Synthetic plan: a deterministic per-agent variant of the base
 * model, so every agent streams distinct but reproducible traffic. */
AgentPlan
makeSyntheticPlan(const AppConfig &base, const std::string &prefix,
                  unsigned agent, size_t chunkRecords,
                  unsigned chunksPerAgent)
{
    AgentPlan plan;
    AppConfig cfg = base;
    cfg.name = prefix + std::to_string(agent);
    cfg.seed = base.seed + 7919ULL * (agent + 1);
    plan.app = cfg.name;
    uint32_t inputId = agent % 4;
    AppWorkload source(cfg, inputId,
                       static_cast<uint64_t>(chunkRecords) *
                           chunksPerAgent);
    for (unsigned c = 0; c < chunksPerAgent; ++c) {
        std::vector<BranchRecord> records;
        records.reserve(chunkRecords);
        BranchRecord rec;
        while (records.size() < chunkRecords && source.next(rec))
            records.push_back(rec);
        if (records.empty())
            break;
        plan.chunks.emplace_back(inputId, std::move(records));
    }
    return plan;
}

/** Replay plan: group the directory's chunks by app, cut by the
 * chunker whisperd --chunks uses for the same --chunk-records. */
std::vector<AgentPlan>
makeReplayPlans(const std::string &dir, size_t chunkRecords)
{
    std::map<std::string, AgentPlan> byApp;
    ChunkTally tally =
        chunkTraceDir(dir, chunkRecords, [&](TraceChunk chunk) {
            AgentPlan &plan = byApp[chunk.app];
            plan.app = chunk.app;
            plan.chunks.emplace_back(chunk.inputId,
                                     std::move(chunk.records));
        });
    for (const std::string &bad : tally.errors)
        std::fprintf(stderr, "warn: skipping %s\n", bad.c_str());
    std::vector<AgentPlan> plans;
    plans.reserve(byApp.size());
    for (auto &[app, plan] : byApp)
        plans.push_back(std::move(plan));
    return plans;
}

/** Write one chunk as a standalone .whrt file whose name sorts in
 * per-app send order, for byte-identity replay through --chunks. */
bool
dumpChunk(const std::string &dir, const AgentPlan &plan,
          size_t index, uint32_t inputId,
          const std::vector<BranchRecord> &records)
{
    BranchTrace trace(plan.app, inputId);
    for (const BranchRecord &rec : records)
        trace.append(rec);
    char name[64];
    std::snprintf(name, sizeof(name), "%s_c%05zu.whrt",
                  plan.app.c_str(), index);
    return trace.save(dir + "/" + name);
}

double
percentile(std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    size_t idx = static_cast<size_t>(p * (sorted.size() - 1));
    return sorted[idx];
}

} // namespace

int
main(int argc, char **argv)
{
    guardStdio();

    std::string host = "127.0.0.1";
    uint16_t port = 0;
    unsigned agents = 8;
    std::string baseApp = "finagle-http", appPrefix = "load";
    size_t chunkRecords = 2'000;
    unsigned chunksPerAgent = 4;
    std::string chunkDir, dumpDir, faultSpec, jsonPath;
    unsigned pullEvery = 0;
    uint32_t timeoutMs = 2'000;
    unsigned maxAttempts = 50;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--port")
            port = static_cast<uint16_t>(
                parseInteger("--port", next(), 1, UINT16_MAX));
        else if (arg == "--host")
            host = next();
        else if (arg == "--agents")
            agents = static_cast<unsigned>(
                parsePositive("--agents", next(), UINT_MAX));
        else if (arg == "--base-app")
            baseApp = next();
        else if (arg == "--app-prefix")
            appPrefix = next();
        else if (arg == "--chunk-records")
            chunkRecords = static_cast<size_t>(
                parsePositive("--chunk-records", next(), SIZE_MAX));
        else if (arg == "--chunks-per-agent")
            chunksPerAgent = static_cast<unsigned>(parseInteger(
                "--chunks-per-agent", next(), 0, UINT_MAX));
        else if (arg == "--chunks")
            chunkDir = next();
        else if (arg == "--dump-dir")
            dumpDir = next();
        else if (arg == "--pull-every")
            pullEvery = static_cast<unsigned>(
                parseInteger("--pull-every", next(), 0, UINT_MAX));
        else if (arg == "--timeout-ms")
            timeoutMs = static_cast<uint32_t>(
                parseInteger("--timeout-ms", next(), 0, UINT32_MAX));
        else if (arg == "--max-attempts")
            maxAttempts = static_cast<unsigned>(
                parsePositive("--max-attempts", next(), UINT_MAX));
        else if (arg == "--fault-spec")
            faultSpec = next();
        else if (arg == "--json")
            jsonPath = next();
        else
            usage();
    }
    if (port == 0)
        usage();

    if (!faultSpec.empty()) {
        std::string error;
        if (!FaultInjector::instance().configure(faultSpec,
                                                 &error)) {
            std::fprintf(stderr, "error: bad --fault-spec: %s\n",
                         error.c_str());
            return 2;
        }
        std::printf("loadgen: wire faults armed: %s\n",
                    faultSpec.c_str());
    }

    // ---- build the traffic plans --------------------------------
    std::vector<AgentPlan> plans;
    if (!chunkDir.empty()) {
        plans = makeReplayPlans(chunkDir, chunkRecords);
        if (plans.empty()) {
            std::fprintf(stderr, "error: no usable traces in %s\n",
                         chunkDir.c_str());
            return 1;
        }
    } else {
        const AppConfig *base = findAppByName(baseApp);
        if (!base) {
            std::fprintf(stderr, "error: unknown --base-app %s\n",
                         baseApp.c_str());
            return 2;
        }
        plans.reserve(agents);
        for (unsigned a = 0; a < agents; ++a)
            plans.push_back(makeSyntheticPlan(*base, appPrefix, a,
                                              chunkRecords,
                                              chunksPerAgent));
        if (!dumpDir.empty()) {
            for (const AgentPlan &plan : plans) {
                for (size_t c = 0; c < plan.chunks.size(); ++c) {
                    if (!dumpChunk(dumpDir, plan, c,
                                   plan.chunks[c].first,
                                   plan.chunks[c].second)) {
                        std::fprintf(stderr,
                                     "error: cannot dump chunk to "
                                     "%s\n",
                                     dumpDir.c_str());
                        return 1;
                    }
                }
            }
        }
    }

    size_t totalChunks = 0, totalRecords = 0;
    for (const AgentPlan &plan : plans) {
        totalChunks += plan.chunks.size();
        for (const auto &[input, records] : plan.chunks)
            totalRecords += records.size();
    }
    std::printf("loadgen: %zu agents -> %s:%u, %zu chunks (%zu "
                "records), chunk=%zu records%s\n",
                plans.size(), host.c_str(), port, totalChunks,
                totalRecords, chunkRecords,
                pullEvery ? ", pulling bundles" : "");
    std::fflush(stdout);

    // ---- run the fleet ------------------------------------------
    std::vector<AgentResult> results(plans.size());
    std::vector<std::thread> fleet;
    fleet.reserve(plans.size());
    auto wallStart = std::chrono::steady_clock::now();

    for (size_t a = 0; a < plans.size(); ++a) {
        fleet.emplace_back([&, a] {
            const AgentPlan &plan = plans[a];
            AgentResult &res = results[a];
            WhisperClientConfig ccfg;
            ccfg.host = host;
            ccfg.port = port;
            ccfg.stream = "agent" + std::to_string(a);
            ccfg.recvTimeoutMs = timeoutMs;
            ccfg.maxAttempts = maxAttempts;
            ccfg.jitterSeed = 0x10ad + a;
            WhisperClient client(ccfg);
            unsigned sinceLastPull = 0;
            for (const auto &[inputId, records] : plan.chunks) {
                ++res.sent;
                auto t0 = std::chrono::steady_clock::now();
                bool ok =
                    client.ingestChunk(plan.app, inputId, records);
                auto t1 = std::chrono::steady_clock::now();
                if (!ok) {
                    res.error = client.lastError();
                    break; // later seqs would be out of order
                }
                ++res.acked;
                res.records += records.size();
                res.latencyMs.push_back(
                    std::chrono::duration<double, std::milli>(t1 -
                                                              t0)
                        .count());
                if (pullEvery && ++sinceLastPull >= pullEvery) {
                    sinceLastPull = 0;
                    client.pullBundle(plan.app);
                }
            }
            res.client = client.stats();
        });
    }
    for (std::thread &t : fleet)
        t.join();
    double wallSec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() -
                         wallStart)
                         .count();

    // ---- aggregate ----------------------------------------------
    uint64_t sent = 0, acked = 0, records = 0;
    WhisperClientStats agg;
    std::vector<double> latencies;
    unsigned failedAgents = 0;
    for (const AgentResult &res : results) {
        sent += res.sent;
        acked += res.acked;
        records += res.records;
        agg.chunksAcked += res.client.chunksAcked;
        agg.duplicateAcks += res.client.duplicateAcks;
        agg.retries += res.client.retries;
        agg.reconnects += res.client.reconnects;
        agg.retryAfters += res.client.retryAfters;
        agg.crcRejects += res.client.crcRejects;
        agg.timeouts += res.client.timeouts;
        agg.bundlePulls += res.client.bundlePulls;
        agg.bundleHits += res.client.bundleHits;
        latencies.insert(latencies.end(), res.latencyMs.begin(),
                         res.latencyMs.end());
        if (!res.error.empty()) {
            ++failedAgents;
            std::fprintf(stderr, "loadgen: agent failed: %s\n",
                         res.error.c_str());
        }
    }
    std::sort(latencies.begin(), latencies.end());
    double p50 = percentile(latencies, 0.50);
    double p99 = percentile(latencies, 0.99);
    uint64_t unacked = sent - acked;
    double chunksPerSec = wallSec > 0 ? acked / wallSec : 0.0;

    const FaultInjector &fi = FaultInjector::instance();
    std::printf(
        "loadgen: %llu/%llu chunks acked (%llu records) in %.2fs = "
        "%.1f chunks/s\n"
        "loadgen: latency p50=%.2fms p99=%.2fms; retries=%llu "
        "reconnects=%llu dup-acks=%llu retry-after=%llu "
        "crc-rejects=%llu timeouts=%llu pulls=%llu (hits=%llu)\n"
        "loadgen: injected corrupt=%llu torn=%llu kills=%llu "
        "stalls=%llu\n",
        static_cast<unsigned long long>(acked),
        static_cast<unsigned long long>(sent),
        static_cast<unsigned long long>(records), wallSec,
        chunksPerSec, p50, p99,
        static_cast<unsigned long long>(agg.retries),
        static_cast<unsigned long long>(agg.reconnects),
        static_cast<unsigned long long>(agg.duplicateAcks),
        static_cast<unsigned long long>(agg.retryAfters),
        static_cast<unsigned long long>(agg.crcRejects),
        static_cast<unsigned long long>(agg.timeouts),
        static_cast<unsigned long long>(agg.bundlePulls),
        static_cast<unsigned long long>(agg.bundleHits),
        static_cast<unsigned long long>(fi.wireFramesCorrupted()),
        static_cast<unsigned long long>(fi.wireFramesTorn()),
        static_cast<unsigned long long>(fi.wireConnKills()),
        static_cast<unsigned long long>(fi.wireStalls()));

    if (!jsonPath.empty()) {
        FILE *f = std::fopen(jsonPath.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         jsonPath.c_str());
            return 1;
        }
        std::fprintf(
            f,
            "{\n"
            "  \"agents\": %zu,\n"
            "  \"chunk_records\": %zu,\n"
            "  \"chunks_sent\": %llu,\n"
            "  \"chunks_acked\": %llu,\n"
            "  \"chunks_unacked\": %llu,\n"
            "  \"records_acked\": %llu,\n"
            "  \"wall_seconds\": %.3f,\n"
            "  \"chunks_per_sec\": %.1f,\n"
            "  \"ingest_latency_p50_ms\": %.3f,\n"
            "  \"ingest_latency_p99_ms\": %.3f,\n"
            "  \"retries\": %llu,\n"
            "  \"reconnects\": %llu,\n"
            "  \"duplicate_acks\": %llu,\n"
            "  \"retry_afters\": %llu,\n"
            "  \"crc_rejects\": %llu,\n"
            "  \"timeouts\": %llu,\n"
            "  \"bundle_pulls\": %llu,\n"
            "  \"bundle_cache_hits\": %llu,\n"
            "  \"injected_corrupt\": %llu,\n"
            "  \"injected_torn\": %llu,\n"
            "  \"injected_kills\": %llu,\n"
            "  \"injected_stalls\": %llu,\n"
            "  \"fault_spec\": \"%s\",\n"
            "  \"failed_agents\": %u\n"
            "}\n",
            plans.size(), chunkRecords,
            static_cast<unsigned long long>(sent),
            static_cast<unsigned long long>(acked),
            static_cast<unsigned long long>(unacked),
            static_cast<unsigned long long>(records), wallSec,
            chunksPerSec, p50, p99,
            static_cast<unsigned long long>(agg.retries),
            static_cast<unsigned long long>(agg.reconnects),
            static_cast<unsigned long long>(agg.duplicateAcks),
            static_cast<unsigned long long>(agg.retryAfters),
            static_cast<unsigned long long>(agg.crcRejects),
            static_cast<unsigned long long>(agg.timeouts),
            static_cast<unsigned long long>(agg.bundlePulls),
            static_cast<unsigned long long>(agg.bundleHits),
            static_cast<unsigned long long>(
                fi.wireFramesCorrupted()),
            static_cast<unsigned long long>(fi.wireFramesTorn()),
            static_cast<unsigned long long>(fi.wireConnKills()),
            static_cast<unsigned long long>(fi.wireStalls()),
            faultSpec.c_str(), failedAgents);
        std::fclose(f);
        std::printf("loadgen: wrote %s\n", jsonPath.c_str());
    }

    if (unacked > 0 || failedAgents > 0) {
        std::fprintf(stderr,
                     "loadgen: FAILED: %llu chunks unacknowledged, "
                     "%u agents failed\n",
                     static_cast<unsigned long long>(unacked),
                     failedAgents);
        return 1;
    }
    std::printf("loadgen: all chunks acknowledged\n");
    return 0;
}
