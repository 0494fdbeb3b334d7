/**
 * @file
 * The whisperd-saturate workload: whisperd's server wiring
 * (TenantRouter + WireServer with the tryOffer sink, as in
 * tools/whisperd.cc) driven over loopback by one WhisperClient agent
 * thread per tenant. Each agent sends its pre-generated chunk set
 * back to back (closed loop: the next chunk goes out when the last
 * one is acked).
 *
 * Traffic shape and quotas are whisperd's defaults: chunks of
 * TenantRouterConfig::chunkRecords (50k) records, an epoch every
 * epochChunks (4) chunks, and the default TenantQuota (16 queued
 * chunks, 4 pending train jobs). Each tenant sends two epochs, 400k
 * records, as many as the offline workloads train on. The default
 * quotas hold all of it, so no chunk and no train job is refused and
 * no RETRY_AFTER is sent: no figure waits on a timer, and every
 * tenant's bundle history is a pure function of its chunk sequence.
 *
 * A run repeats set-up (generate the chunk sets, build the truth
 * tables) and a round until the measuring time is used up. A round
 * starts a fresh router and server, sends both chunk sets, stops the
 * server and waits for TenantRouter::finish(): every epoch trained,
 * validated, journaled and deployed.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.hh"
#include "net/whisper_client.hh"
#include "net/wire_protocol.hh"
#include "net/wire_server.hh"
#include "service/chunk_profiler.hh"
#include "service/tenant_router.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"

using namespace whisper;

namespace perfbench
{

namespace
{

constexpr unsigned kMinRounds = 3;
const std::vector<std::string> kApps = {"mysql", "finagle-http"};
constexpr size_t kEpochsPerTenant = 2;
constexpr uint64_t kHeldOutRecords = 200'000;
constexpr double kEvalWarmup = 0.5; // whisperd --eval-trace

struct TenantInput
{
    std::string app;
    std::vector<std::vector<BranchRecord>> chunks;
};

/** The sink wrapper's log. Only the server's event thread writes it;
 * it is read after WireServer::stop() has joined that thread. */
struct OfferLog
{
    std::vector<double> offerUs;
    uint64_t offers = 0;
    uint64_t backpressure = 0;
    double queueDepthSum = 0.0;
    std::map<std::string, uint64_t> perApp;
};

/** One agent's view of a round. */
struct AgentLog
{
    std::vector<double> ackMs;
    Clock::time_point firstSend, lastAck;
    uint64_t acked = 0;
    uint64_t records = 0;
    WhisperClientStats stats;
};

struct RoundResult
{
    double startup = 0.0;
    double deploy = 0.0;
    double ingestMrecPerS = 0.0;
    double finish = 0.0;
    uint64_t journalBytes = 0;
    std::vector<double> ackMs;
    OfferLog offers;
    WireServerStats server;
    WhisperClientStats client;
    ServiceMetrics metrics;
    std::map<std::string, HintStore::Snapshot> deployed;
};

TenantRouterConfig
routerConfig(const std::string &journalDir)
{
    TenantRouterConfig cfg; // service defaults: prune + warm start on
    cfg.verbose = false;
    cfg.journalDir = journalDir;
    return cfg;
}

/** Span id shared by the client and server spans of one chunk. */
std::string
chunkId(unsigned round, const std::string &app, uint64_t seq)
{
    return std::to_string(round) + "/" + app + ":" + std::to_string(seq);
}

void
runAgent(const TenantInput &input, unsigned round, uint16_t port,
         AgentLog &log)
{
    WhisperClientConfig ccfg;
    ccfg.port = port;
    ccfg.stream = "agent-" + input.app;
    WhisperClient client(ccfg);
    log.firstSend = Clock::now();
    for (const auto &chunk : input.chunks) {
        Span span("net.ingest",
                  chunkId(round, input.app, client.nextSeq(input.app)));
        auto t0 = Clock::now();
        bool ok = client.ingestChunk(input.app, 0, chunk);
        log.lastAck = Clock::now();
        log.ackMs.push_back(
            1e3 * std::chrono::duration<double>(log.lastAck - t0).count());
        if (ok) {
            ++log.acked;
            log.records += chunk.size();
        }
    }
    log.stats = client.stats();
}

RoundResult
runRound(const std::vector<TenantInput> &inputs,
         const TruthTableCache &cache, unsigned round,
         const std::string &journalDir, Result &r)
{
    RoundResult out;
    std::error_code ec;
    std::filesystem::create_directories(journalDir, ec);

    // Start-up ends when start() returns with the port bound.
    auto t0 = Clock::now();
    TenantRouter router(routerConfig(journalDir), cache);
    for (const TenantInput &in : inputs)
        router.addTenant(in.app);
    router.start();

    OfferLog &offers = out.offers;
    WireServer server(
        WireServerConfig{},
        [&router, &offers, round](TraceChunk chunk) {
            Tenant *tenant = router.registry().find(chunk.app);
            offers.queueDepthSum +=
                tenant ? static_cast<double>(tenant->queue.size()) : 0.0;
            uint64_t seq = offers.perApp[chunk.app]++;
            Span span("service.offer", chunkId(round, chunk.app, seq));
            auto o0 = Clock::now();
            TenantRouter::OfferOutcome outcome =
                router.tryOffer(std::move(chunk));
            offers.offerUs.push_back(1e6 * secondsSince(o0));
            ++offers.offers;
            switch (outcome) {
            case TenantRouter::OfferOutcome::Accepted:
                return ChunkSinkResult::Accepted;
            case TenantRouter::OfferOutcome::UnknownApp:
                return ChunkSinkResult::UnknownApp;
            case TenantRouter::OfferOutcome::Backpressure:
            default:
                ++offers.backpressure;
                return ChunkSinkResult::Backpressure;
            }
        },
        [&router](const std::string &app)
            -> std::optional<HintStore::Snapshot> {
            Tenant *tenant = router.registry().find(app);
            if (!tenant)
                return std::nullopt;
            return tenant->store.current();
        });
    std::string error;
    bool started = false;
    {
        Span span("net.server_start");
        started = server.start(&error);
    }
    out.startup = secondsSince(t0);
    r.check(started && server.boundPort() != 0,
            "wire server starts: " + error);
    if (!started) {
        router.finish();
        return out;
    }

    // Traffic: one agent thread (one connection) per tenant.
    std::vector<AgentLog> agents(inputs.size());
    {
        Span span("bench.traffic");
        std::vector<std::thread> threads;
        for (size_t i = 0; i < inputs.size(); ++i)
            threads.emplace_back(runAgent, std::cref(inputs[i]), round,
                                 server.boundPort(), std::ref(agents[i]));
        for (std::thread &t : threads)
            t.join();
    }
    {
        Span span("net.server_stop");
        server.stop();
    }
    {
        Span span("service.finish");
        auto f0 = Clock::now();
        router.finish();
        out.finish = secondsSince(f0);
    }
    auto deployed = Clock::now();

    Clock::time_point firstSend = agents[0].firstSend;
    Clock::time_point lastAck = agents[0].lastAck;
    uint64_t sent = 0, acked = 0, records = 0;
    for (size_t i = 0; i < agents.size(); ++i) {
        const AgentLog &a = agents[i];
        firstSend = std::min(firstSend, a.firstSend);
        lastAck = std::max(lastAck, a.lastAck);
        sent += inputs[i].chunks.size();
        acked += a.acked;
        records += a.records;
        out.ackMs.insert(out.ackMs.end(), a.ackMs.begin(), a.ackMs.end());
        out.client.chunksAcked += a.stats.chunksAcked;
        out.client.duplicateAcks += a.stats.duplicateAcks;
        out.client.retries += a.stats.retries;
        out.client.reconnects += a.stats.reconnects;
    }
    out.deploy = std::chrono::duration<double>(deployed - firstSend).count();
    out.ingestMrecPerS =
        static_cast<double>(records) /
        std::chrono::duration<double>(lastAck - firstSend).count() / 1e6;
    out.server = server.stats();
    out.metrics = router.metrics();

    // Correctness gate: every chunk acked exactly once, routed once,
    // nothing dropped, nothing waited on RETRY_AFTER, every tenant
    // deployed at least one epoch.
    r.attempted += sent;
    r.failed += sent - acked;
    if (acked != sent)
        r.failures.push_back("chunks not acknowledged");
    uint64_t routed = 0;
    for (const auto &[app, tm] : out.metrics.tenants) {
        routed += tm.chunksRouted;
        r.check(tm.chunksDropped == 0, app + ": no chunk dropped");
        r.check(tm.trainJobsDropped == 0, app + ": no train job dropped");
        r.check(tm.deployedEpoch >= 1, app + ": deployed epoch >= 1");
    }
    r.check(out.client.chunksAcked == sent &&
                out.client.duplicateAcks == 0,
            "client acks == chunks sent, no duplicate acks");
    r.check(out.server.chunksAccepted == sent &&
                out.server.duplicateChunks == 0,
            "server accepted == chunks sent, no duplicates");
    r.check(routed == sent, "sum of tenant chunksRouted == chunks sent");
    r.check(out.server.retryAfterSent == 0 && offers.backpressure == 0,
            "no RETRY_AFTER sent");
    r.check(out.metrics.unknownAppChunks == 0, "no unknown-app chunk");

    for (Tenant *tenant : router.registry().all()) {
        out.deployed[tenant->name] = tenant->store.current();
        out.journalBytes += fileBytes(journalDir + "/" + tenant->name +
                                      ".journal");
    }
    std::filesystem::remove_all(journalDir, ec);
    return out;
}

/** Layer figures measured outside the server, on the same chunks:
 * wire encode/decode and the absorber's ChunkProfiler; plus the TAGE
 * baseline that whisperd --eval-trace runs, on each tenant's held-out
 * input. Traced runs only. */
void
measureLayers(const std::vector<TenantInput> &inputs, uint64_t seed,
              Result &r)
{
    TenantRouterConfig cfg = routerConfig("");
    double encodeS = 0.0, decodeS = 0.0, frameBytes = 0.0;
    double records = 0.0, absorbRate = 0.0;
    double tageS = 0.0, tageRecords = 0.0;
    for (const TenantInput &in : inputs) {
        std::vector<std::vector<unsigned char>> frames;
        {
            Span span("net.encode");
            auto t0 = Clock::now();
            for (size_t k = 0; k < in.chunks.size(); ++k) {
                IngestChunkMsg msg{in.app, "bench", 0, k, in.chunks[k]};
                frames.push_back(encodeFrame(WireOp::IngestChunk,
                                             encodeIngestChunk(msg)));
            }
            encodeS += secondsSince(t0);
        }
        {
            Span span("net.decode");
            auto t0 = Clock::now();
            FrameParser parser;
            WireFrame frame;
            IngestChunkMsg msg;
            size_t decoded = 0;
            for (const auto &bytes : frames) {
                parser.feed(bytes.data(), bytes.size());
                while (parser.next(frame) == FrameParser::Result::Frame)
                    decoded += decodeIngestChunk(frame.payload, msg);
            }
            decodeS += secondsSince(t0);
            r.check(decoded == frames.size(), in.app + ": frames decode");
        }
        size_t recs = 0;
        for (const auto &f : frames)
            frameBytes += static_cast<double>(f.size());
        for (const auto &c : in.chunks)
            recs += c.size();
        records += static_cast<double>(recs);
        {
            Span span("service.absorb");
            ChunkProfiler profiler(cfg.whisper, makeTage(cfg.tageBudgetKB),
                                   cfg.profilePolicy);
            auto t0 = Clock::now();
            for (const auto &c : in.chunks)
                profiler.profileChunk(c);
            absorbRate += static_cast<double>(recs) / secondsSince(t0) / 1e6;
        }

        BranchTrace heldOut = generateTrace(in.app, 1, seed,
                                            kHeldOutRecords);
        Span span("bp.tage");
        auto t0 = Clock::now();
        auto tage = makeTage(cfg.tageBudgetKB);
        TraceSource src(heldOut);
        runPredictor(src, *tage, kEvalWarmup);
        tageS += secondsSince(t0);
        tageRecords += static_cast<double>(heldOut.size());
    }
    r.perLayer["net.encode_mb_per_s"] = frameBytes / encodeS / 1e6;
    r.perLayer["net.decode_mb_per_s"] = frameBytes / decodeS / 1e6;
    r.perLayer["net.frame_bytes_per_rec"] = frameBytes / records;
    r.perLayer["service.absorb_mrec_per_s"] = absorbRate;
    r.perLayer["bp.tage_mrec_per_s"] = tageRecords / tageS / 1e6;
}

} // namespace

Result
runWhisperd(const Options &opt)
{
    Result r;
    const double cpu0 = cpuSeconds();
    const auto runStart = Clock::now();
    const TenantRouterConfig defaults = routerConfig("");
    const size_t chunkRecords = defaults.chunkRecords;
    const size_t chunksPerTenant = kEpochsPerTenant * defaults.epochChunks;

    std::vector<double> setupTimes, genTimes, calTimes;
    std::vector<double> startup, deploy, ingest;
    std::vector<TenantInput> inputs;
    std::unique_ptr<TruthTableCache> cache;
    std::vector<RoundResult> rounds;
    std::vector<double> roundRss;
    // The kernel's first run also faults its table in.
    calibrationSeconds();
    double cal = calibrationSeconds();
    calTimes.push_back(cal);
    // Every round starts with a fresh set-up, so that set-up samples
    // spread over the whole run as the rounds do. Set-up and round are
    // bracketed by calibration runs (see kQuietCalibrationSeconds).
    const auto measureStart = Clock::now();
    while (rounds.size() < kMinRounds ||
           secondsSince(measureStart) < opt.seconds) {
        double setupSeconds = 0.0;
        {
            Span span("bench.setup");
            auto t0 = Clock::now();
            inputs.clear();
            for (const std::string &app : kApps) {
                TenantInput in;
                in.app = app;
                BranchTrace stream = generateTrace(
                    app, 0, opt.seed, chunksPerTenant * chunkRecords);
                for (size_t k = 0; k < chunksPerTenant; ++k)
                    in.chunks.emplace_back(
                        stream.begin() + k * chunkRecords,
                        stream.begin() + (k + 1) * chunkRecords);
                inputs.push_back(std::move(in));
            }
            genTimes.push_back(secondsSince(t0));
            {
                Span tables("core.truth_tables");
                cache = std::make_unique<TruthTableCache>(8);
            }
            setupSeconds = secondsSince(t0);
        }
        double calSetup = calibrationSeconds();
        setupTimes.push_back(atQuietSpeed(setupSeconds, cal, calSetup));

        unsigned round = static_cast<unsigned>(rounds.size());
        std::string dir = opt.workDir + "/round-" + std::to_string(round);
        beginRoundMemory();
        {
            Span span("bench.round");
            rounds.push_back(runRound(inputs, *cache, round, dir, r));
        }
        roundRss.push_back(peakRssMb());
        cal = calibrationSeconds();
        calTimes.insert(calTimes.end(), {calSetup, cal});
        const RoundResult &cur = rounds.back();
        const double scale = atQuietSpeed(1.0, calSetup, cal);
        startup.push_back(cur.startup * scale);
        deploy.push_back(cur.deploy * scale);
        ingest.push_back(cur.ingestMrecPerS / scale);
        std::fprintf(stderr,
                     "round %u: deploy %.4f s wall, %.4f s at quiet speed; "
                     "ingest %.3f Mrec/s wall, %.3f at quiet speed\n",
                     round, cur.deploy, deploy.back(), cur.ingestMrecPerS,
                     ingest.back());
        for (const auto &[app, snap] : rounds.front().deployed) {
            auto it = cur.deployed.find(app);
            bool same = it != cur.deployed.end() && snap && it->second &&
                        snap->epoch == it->second->epoch &&
                        snap->bundle == it->second->bundle;
            r.check(same, app + ": deployed bundle repeats exactly");
        }
    }
    for (const auto &[app, snap] : rounds.front().deployed) {
        if (!snap)
            continue;
        r.outcome[app + ".epoch"] = static_cast<double>(snap->epoch);
        r.outcome[app + ".hints"] =
            static_cast<double>(snap->bundle.hints.size());
        r.outcome[app + ".bundle_crc32"] = bundleDigest(*snap);
    }

    if (opt.trace)
        measureLayers(inputs, opt.seed, r);

    std::vector<double> finish, ackMs, offerUs;
    for (const RoundResult &rr : rounds) {
        finish.push_back(rr.finish);
        ackMs.insert(ackMs.end(), rr.ackMs.begin(), rr.ackMs.end());
        offerUs.insert(offerUs.end(), rr.offers.offerUs.begin(),
                       rr.offers.offerUs.end());
    }
    auto &E = r.endToEnd;
    E["setup_s"] = median(setupTimes) + median(startup);
    E["turnaround_s"] = median(deploy);
    E["mrec_per_s"] = median(ingest);
    // The smallest round peak: which freed blocks the allocators of
    // the server, absorber and trainer threads keep varies from round
    // to round, as round times do.
    E["peak_rss_mb"] = *std::min_element(roundRss.begin(), roundRss.end());

    // ---- per-layer figures ----
    const RoundResult &last = rounds.back();
    const ServiceMetrics &m = last.metrics;
    auto &L = r.perLayer;
    double recordsGenerated = static_cast<double>(
        kApps.size() * (kSeedWindowRecords + chunksPerTenant * chunkRecords));
    L["workloads.gen_mrec_per_s"] = recordsGenerated / median(genTimes) / 1e6;
    L["net.ack_p50_ms"] = percentile(ackMs, 50);
    L["net.ack_p99_ms"] = percentile(ackMs, 99);
    L["net.retry_after_sent"] = static_cast<double>(last.server.retryAfterSent);
    L["net.dup_chunks"] = static_cast<double>(last.server.duplicateChunks);
    L["net.bad_crc"] = static_cast<double>(last.server.badCrcFrames);
    L["net.client_retries"] = static_cast<double>(last.client.retries);
    L["net.client_connects"] = static_cast<double>(last.client.reconnects);
    L["service.offer_us_p50"] = percentile(offerUs, 50);
    L["service.offer_us_p99"] = percentile(offerUs, 99);
    L["service.backpressure_frac"] =
        static_cast<double>(last.offers.backpressure) /
        static_cast<double>(std::max<uint64_t>(1, last.offers.offers));
    L["service.queue_depth_mean"] =
        last.offers.queueDepthSum /
        static_cast<double>(std::max<uint64_t>(1, last.offers.offers));
    uint64_t epochs = 0, accepted = 0, rejected = 0, jobsDropped = 0;
    uint64_t chunksDropped = 0, warm = 0, cold = 0;
    double latencyWeighted = 0.0, latencyMax = 0.0;
    for (const auto &[app, tm] : m.tenants) {
        epochs += tm.epochsRun;
        accepted += tm.bundlesAccepted;
        rejected += tm.bundlesRejected;
        jobsDropped += tm.trainJobsDropped;
        chunksDropped += tm.chunksDropped;
        warm += tm.warmHits;
        cold += tm.coldSearches;
        latencyWeighted += tm.trainLatencyMean *
                           static_cast<double>(tm.epochsRun);
        latencyMax = std::max(latencyMax, tm.trainLatencyMax);
    }
    L["service.epochs"] = static_cast<double>(epochs);
    L["service.train_latency_mean_s"] =
        epochs ? latencyWeighted / static_cast<double>(epochs) : 0.0;
    L["service.train_latency_max_s"] = latencyMax;
    L["service.warm_hit_frac"] =
        warm + cold ? static_cast<double>(warm) /
                          static_cast<double>(warm + cold)
                    : 0.0;
    L["service.bundles_accepted"] = static_cast<double>(accepted);
    L["service.bundles_rejected"] = static_cast<double>(rejected);
    L["service.train_jobs_dropped"] = static_cast<double>(jobsDropped);
    L["service.chunks_dropped"] = static_cast<double>(chunksDropped);
    L["service.finish_s"] = median(finish);
    L["service.journal_bytes"] = static_cast<double>(last.journalBytes);
    L["proc.cpu_per_wall"] =
        (cpuSeconds() - cpu0) / secondsSince(runStart);
    L["bench.host_slowdown"] = median(calTimes) / kQuietCalibrationSeconds;

    std::fprintf(stderr,
                 "whisperd-saturate: %zu rounds, %zu acks, epochs=%llu "
                 "accepted=%llu rejected=%llu\n",
                 rounds.size(), ackMs.size(),
                 static_cast<unsigned long long>(epochs),
                 static_cast<unsigned long long>(accepted),
                 static_cast<unsigned long long>(rejected));
    return r;
}

} // namespace perfbench
