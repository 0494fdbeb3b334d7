/**
 * @file
 * whisperd — continuous profile-guided optimization service CLI.
 *
 * Every run is one TenantRouter: each chunk is routed by the app
 * name it carries to that app's own loop (streaming profiling,
 * parallel formula training, validated hint-bundle deployment), and
 * training capacity is shared fairly across apps. With the default
 * --tenants auto an app is registered on its first chunk, so a
 * single-app stream is simply a one-tenant run.
 *
 * Chunks come from a directory (--chunks: every .whrt file, sorted
 * by name, so naming encodes the drift order) or, with --listen
 * [ADDR:]PORT, over the CRC-framed wire protocol (see src/net/),
 * where clients also pull deployed bundles with epoch-based caching.
 * SIGINT/SIGTERM triggers a graceful drain: stop the listener, drain
 * every tenant queue and in-flight training job, flush the journals,
 * then report.
 *
 * Usage:
 *   whisperd (--chunks DIR | --listen [ADDR:]PORT) [--tenants LIST]
 *            [--journal-dir DIR] [--out-dir DIR] [--chunk-records N]
 *            [--epoch-chunks N] [--workers N] [--tage-kb N]
 *            [--max-hard N] [--margin F] [--fault-spec SPEC]
 *            [--deadline-ms N] [--max-attempts N]
 *            [--eval-trace FILE] [--compare-hints FILE] [--quiet]
 *
 * With --journal-dir every app's deployed-generation history goes
 * through a crash-safe write-ahead journal (DIR/<app>.journal); a
 * restarted daemon replays it and resumes from the last durable
 * epoch. --out-dir writes each deployed bundle to DIR/<app>.vhints.
 * --eval-trace evaluates the deployed bundle of the trace's own app
 * (and --compare-hints a static bundle) on that trace. --fault-spec
 * installs the deterministic fault-injection harness (see
 * fault_injection.hh); its read faults hit every .whrt read, so a
 * flipped frame in the --eval-trace file fails that strict load.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/whisper_io.hh"
#include "net/wire_server.hh"
#include "service/tenant_router.hh"
#include "sim/experiment.hh"
#include "trace/branch_trace.hh"
#include "util/fault_injection.hh"
#include "util/table.hh"

using namespace whisper;

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: whisperd (--chunks DIR | --listen [ADDR:]PORT) "
        "[options]\n"
        "  --chunks DIR         stream a directory of .whrt trace "
        "chunks\n"
        "  --listen [ADDR:]PORT serve the wire protocol instead "
        "(PORT 0 = ephemeral)\n"
        "  --port-file FILE     write the bound port after listen\n"
        "  --tenants LIST       comma-separated app names, or 'auto' "
        "to register apps\n"
        "                       on first chunk (default auto)\n"
        "  --journal-dir DIR    per-app crash-safe journals "
        "(DIR/<app>.journal, resume on restart)\n"
        "  --out-dir DIR        per-app deployed bundles "
        "(DIR/<app>.vhints)\n"
        "  --chunk-records N    ingest chunk size (default 50000)\n"
        "  --epoch-chunks N     training chunks per epoch "
        "(default 4)\n"
        "  --workers N          training pool width (default 4)\n"
        "  --dispatchers N      training dispatcher threads "
        "(default 1)\n"
        "  --tage-kb N          baseline budget (default 64)\n"
        "  --max-hard N         hard-branch cap per app "
        "(default 512)\n"
        "  --fraction F         randomized-testing fraction\n"
        "  --margin F           acceptance accuracy margin "
        "(default 0)\n"
        "  --quota-chunks [APP=]N  per-app queued-chunk quota "
        "(default 16)\n"
        "  --quota-jobs [APP=]N per-app pending-train-job quota "
        "(default 4)\n"
        "  --tenant-weight APP=W  fair-share weight (default 1; "
        "repeatable)\n"
        "  --train-prune=on|off sparse-correlation screening of "
        "the formula search (default on)\n"
        "  --warm-start=on|off  seed each epoch from the deployed "
        "bundle (default on)\n"
        "  --fault-spec SPEC    deterministic fault injection "
        "(e.g. flip-chunks=0.01,stall-worker=400)\n"
        "  --deadline-ms N      training task deadline before "
        "requeue (default 30000)\n"
        "  --max-attempts N     training attempts before a branch "
        "is degraded (default 3)\n"
        "  --retry-after-ms N   backpressure hint sent to clients "
        "(default 25)\n"
        "  --idle-timeout-ms N  reap connections stalled mid-frame "
        "(default 10000)\n"
        "  --eval-trace FILE    evaluate the deployed bundle of the "
        "trace's app on it\n"
        "  --compare-hints FILE also evaluate a static bundle on it\n"
        "  --quiet              no per-epoch log\n");
    std::exit(2);
}

/** Set by the SIGINT/SIGTERM handler; the server loop watches it. */
std::atomic<bool> gShutdownRequested{false};

extern "C" void
handleShutdownSignal(int)
{
    gShutdownRequested.store(true);
}

double
evalBundleAccuracy(const BranchTrace &trace, unsigned tageKb,
                   const WhisperConfig &cfg, const HintBundle *bundle,
                   double *mpki)
{
    std::unique_ptr<BranchPredictor> pred;
    if (bundle) {
        pred = std::make_unique<WhisperPredictor>(
            makeTage(tageKb), cfg, globalTruthTables(),
            bundle->hints, bundle->placements);
    } else {
        pred = makeTage(tageKb);
    }
    TraceSource src(trace);
    PredictorRunStats stats = runPredictor(src, *pred, 0.5);
    if (mpki)
        *mpki = stats.mpki();
    return stats.accuracy();
}

} // namespace

/** Parse an "on"/"off" value (for --train-prune / --warm-start,
 * accepted both as "--flag on" and "--flag=on"). */
bool
parseOnOff(const std::string &value, bool *out)
{
    if (value == "on" || value == "1" || value == "true") {
        *out = true;
        return true;
    }
    if (value == "off" || value == "0" || value == "false") {
        *out = false;
        return true;
    }
    return false;
}

/** Parse "[APP=]N": a bare number applies to every tenant, an
 * APP=N pair to one. @return false on a malformed value. */
bool
parsePerApp(const std::string &value, uint64_t *global,
            std::map<std::string, uint64_t> &perApp)
{
    size_t eq = value.find('=');
    char *end = nullptr;
    if (eq == std::string::npos) {
        uint64_t v = std::strtoull(value.c_str(), &end, 10);
        if (!end || *end != '\0')
            return false;
        *global = v;
        return true;
    }
    std::string app = value.substr(0, eq);
    uint64_t v = std::strtoull(value.c_str() + eq + 1, &end, 10);
    if (app.empty() || !end || *end != '\0')
        return false;
    perApp[app] = v;
    return true;
}

/** The --tenants list and its per-app quota overrides. */
struct TenantArgs
{
    std::string tenantsArg = "auto";
    std::map<std::string, uint64_t> quotaChunks, quotaJobs, weights;
};

/** Register the --tenants list (no-op under auto-register).
 * @return false when the list named no apps. */
bool
registerTenants(TenantRouter &router, const TenantArgs &args)
{
    if (args.tenantsArg == "auto")
        return true;
    auto quotaFor = [&](const std::string &app) {
        TenantQuota q = router.config().defaultQuota;
        if (auto it = args.quotaChunks.find(app);
            it != args.quotaChunks.end())
            q.maxQueuedChunks = static_cast<size_t>(it->second);
        if (auto it = args.quotaJobs.find(app);
            it != args.quotaJobs.end())
            q.maxPendingTrainJobs = static_cast<size_t>(it->second);
        if (auto it = args.weights.find(app);
            it != args.weights.end())
            q.weight = static_cast<unsigned>(it->second);
        return q;
    };
    std::string rest = args.tenantsArg;
    while (!rest.empty()) {
        size_t comma = rest.find(',');
        std::string app = rest.substr(0, comma);
        rest = comma == std::string::npos ? std::string()
                                          : rest.substr(comma + 1);
        if (app.empty())
            continue;
        router.addTenant(app, quotaFor(app));
    }
    return router.registry().size() > 0;
}

/** Per-tenant summary lines, the fault roll-up, the metrics tables,
 * and the deployed-bundle save (--out-dir). */
int
reportTenants(TenantRouter &router, const std::string &outDir)
{
    ServiceMetrics metrics = router.metrics();
    for (const auto &[app, tm] : metrics.tenants) {
        std::printf(
            "whisperd[%s]: epochs=%llu accepted=%llu rejected=%llu "
            "deployed-epoch=%llu resumed-epoch=%llu "
            "dropped-chunks=%llu dropped-jobs=%llu "
            "train-s-mean=%.3f warm-hits=%llu cold-searches=%llu "
            "warm-fallbacks=%llu branch-train-ms=%.3f\n",
            app.c_str(),
            static_cast<unsigned long long>(tm.epochsRun),
            static_cast<unsigned long long>(tm.bundlesAccepted),
            static_cast<unsigned long long>(tm.bundlesRejected),
            static_cast<unsigned long long>(tm.deployedEpoch),
            static_cast<unsigned long long>(tm.journalResumedEpoch),
            static_cast<unsigned long long>(tm.chunksDropped),
            static_cast<unsigned long long>(tm.trainJobsDropped),
            tm.trainLatencyMean,
            static_cast<unsigned long long>(tm.warmHits),
            static_cast<unsigned long long>(tm.coldSearches),
            static_cast<unsigned long long>(tm.warmFallbackEpochs),
            tm.branchTrainMsMean);
    }
    std::printf(
        "whisperd: faults skipped-chunks=%llu skipped-records=%llu "
        "retries=%llu requeued-tasks=%llu degraded-branches=%llu "
        "torn-writes=%llu workers-died=%llu\n",
        static_cast<unsigned long long>(metrics.chunksSkipped),
        static_cast<unsigned long long>(metrics.recordsSkipped),
        static_cast<unsigned long long>(metrics.readRetries),
        static_cast<unsigned long long>(metrics.tasksRequeued),
        static_cast<unsigned long long>(metrics.branchesDegraded),
        static_cast<unsigned long long>(
            metrics.journalAppendFailures),
        static_cast<unsigned long long>(metrics.workersDied));
    metrics.dump(std::cout);

    int status = 0;
    if (!outDir.empty()) {
        for (const Tenant *tenant : router.registry().all()) {
            HintStore::Snapshot deployed = tenant->store.current();
            if (!deployed) {
                std::fprintf(stderr,
                             "whisperd[%s]: no bundle deployed\n",
                             tenant->name.c_str());
                continue;
            }
            std::string path =
                outDir + "/" + tenant->name + ".vhints";
            if (!saveVersionedBundle(*deployed, path)) {
                std::fprintf(stderr, "error: cannot write %s\n",
                             path.c_str());
                status = 1;
                continue;
            }
            std::printf("whisperd[%s]: deployed bundle (epoch %llu, "
                        "%zu hints) -> %s\n",
                        tenant->name.c_str(),
                        static_cast<unsigned long long>(
                            deployed->epoch),
                        deployed->bundle.hints.size(), path.c_str());
        }
    }
    return status;
}

int
runServer(TenantRouter &router, const std::string &listenArg,
          const std::string &portFile, uint32_t retryAfterMs,
          uint32_t idleTimeoutMs)
{
    const TenantRouterConfig &tcfg = router.config();
    router.start();

    WireServerConfig scfg;
    size_t colon = listenArg.rfind(':');
    std::string portStr = listenArg;
    if (colon != std::string::npos) {
        scfg.bindAddress = listenArg.substr(0, colon);
        portStr = listenArg.substr(colon + 1);
    }
    scfg.port =
        static_cast<uint16_t>(std::strtoul(portStr.c_str(), nullptr,
                                           10));
    scfg.retryAfterMs = retryAfterMs;
    scfg.idleTimeoutMs = idleTimeoutMs;
    scfg.verbose = tcfg.verbose;

    WireServer server(
        scfg,
        [&router](TraceChunk chunk) {
            switch (router.tryOffer(std::move(chunk))) {
            case TenantRouter::OfferOutcome::Accepted:
                return ChunkSinkResult::Accepted;
            case TenantRouter::OfferOutcome::UnknownApp:
                return ChunkSinkResult::UnknownApp;
            case TenantRouter::OfferOutcome::Backpressure:
            default:
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
    if (!server.start(&error)) {
        std::fprintf(stderr, "error: cannot listen on %s: %s\n",
                     listenArg.c_str(), error.c_str());
        router.finish();
        return 1;
    }
    std::printf("whisperd: listening on %s:%u (%zu tenants%s, "
                "%u dispatchers)\n",
                scfg.bindAddress.c_str(), server.boundPort(),
                router.registry().size(),
                tcfg.autoRegister ? " + auto-register" : "",
                std::max(1u, tcfg.trainDispatchers));
    if (!portFile.empty()) {
        // Written only after a successful bind, so a waiting script
        // can poll for this file and then connect immediately.
        FILE *f = std::fopen(portFile.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         portFile.c_str());
            server.stop();
            router.finish();
            return 1;
        }
        std::fprintf(f, "%u\n", server.boundPort());
        std::fclose(f);
    }

    std::signal(SIGINT, handleShutdownSignal);
    std::signal(SIGTERM, handleShutdownSignal);
    while (!gShutdownRequested.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(25));

    // Graceful drain: stop accepting bytes first, then let every
    // queued chunk and in-flight training job complete (journal
    // appends happen on the deployment path, so joining the
    // dispatchers flushes them too).
    std::printf("whisperd: shutdown signal, draining\n");
    server.stop();
    router.finish();

    WireServerStats ws = server.stats();
    std::printf(
        "whisperd-server: conns=%llu/%llu frames=%llu chunks=%llu "
        "dup=%llu retry-after=%llu bad-crc=%llu torn-streams=%llu "
        "slow-loris=%llu bundles=%llu unchanged=%llu "
        "listener-restarts=%llu\n",
        static_cast<unsigned long long>(ws.connectionsAccepted),
        static_cast<unsigned long long>(ws.connectionsClosed),
        static_cast<unsigned long long>(ws.framesReceived),
        static_cast<unsigned long long>(ws.chunksAccepted),
        static_cast<unsigned long long>(ws.duplicateChunks),
        static_cast<unsigned long long>(ws.retryAfterSent),
        static_cast<unsigned long long>(ws.badCrcFrames),
        static_cast<unsigned long long>(ws.badStreamCloses),
        static_cast<unsigned long long>(ws.slowLorisCloses),
        static_cast<unsigned long long>(ws.bundlesSent),
        static_cast<unsigned long long>(ws.bundlesUnchanged),
        static_cast<unsigned long long>(ws.listenerRestarts));
    return 0;
}

/** Evaluate the bundle deployed for @p evalPath's app (and, with
 * @p comparePath, a static bundle) against plain TAGE on that trace. */
int
evalDeployed(const TenantRouter &router, const std::string &evalPath,
             const std::string &comparePath)
{
    BranchTrace evalTrace;
    if (IoStatus st = evalTrace.load(evalPath); !st) {
        std::fprintf(stderr, "error: %s\n", st.message.c_str());
        return 1;
    }
    const Tenant *tenant = router.registry().find(evalTrace.app());
    HintStore::Snapshot deployed =
        tenant ? tenant->store.current() : nullptr;
    if (!deployed) {
        std::fprintf(stderr,
                     "whisperd: no bundle deployed for app '%s'\n",
                     evalTrace.app().c_str());
        return 1;
    }

    const TenantRouterConfig &cfg = router.config();
    double baseMpki = 0.0, onlineMpki = 0.0;
    double baseAcc = evalBundleAccuracy(evalTrace, cfg.tageBudgetKB,
                                        cfg.whisper, nullptr,
                                        &baseMpki);
    double onlineAcc = evalBundleAccuracy(
        evalTrace, cfg.tageBudgetKB, cfg.whisper, &deployed->bundle,
        &onlineMpki);
    std::printf("eval %s: tage accuracy=%.4f%% mpki=%.3f\n",
                evalPath.c_str(), 100.0 * baseAcc, baseMpki);
    std::printf("eval %s: online-whisper accuracy=%.4f%% mpki=%.3f\n",
                evalPath.c_str(), 100.0 * onlineAcc, onlineMpki);

    if (comparePath.empty())
        return 0;
    HintBundle staticBundle;
    if (IoStatus st = loadHintBundle(staticBundle, comparePath); !st) {
        std::fprintf(stderr, "error: %s\n", st.message.c_str());
        return 1;
    }
    double staticMpki = 0.0;
    double staticAcc = evalBundleAccuracy(
        evalTrace, cfg.tageBudgetKB, cfg.whisper, &staticBundle,
        &staticMpki);
    std::printf("eval %s: static-whisper accuracy=%.4f%% mpki=%.3f\n",
                evalPath.c_str(), 100.0 * staticAcc, staticMpki);
    std::printf("online-vs-static: %+.4fpp (%s)\n",
                100.0 * (onlineAcc - staticAcc),
                onlineAcc >= staticAcc ? "online wins or ties"
                                       : "online loses");
    return 0;
}

int
main(int argc, char **argv)
{
    // Line-buffered even when redirected, so scripts watching the
    // log (e.g. for an ACCEPTED line) see each line as it happens.
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    // Wire sends use MSG_NOSIGNAL, but library code (journals,
    // stdout) can still hit a closed pipe; EPIPE as an error return
    // beats sudden death.
    std::signal(SIGPIPE, SIG_IGN);

    std::string chunkDir, outDir, evalPath, comparePath;
    std::string faultSpec;
    std::string listenArg, portFile;
    uint32_t retryAfterMs = 25, idleTimeoutMs = 10'000;
    TenantArgs tenants;
    TenantRouterConfig cfg;
    double fraction = -1.0;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--chunks")
            chunkDir = next();
        else if (arg == "--chunk-records")
            cfg.chunkRecords =
                static_cast<size_t>(std::strtoull(next(), nullptr, 10));
        else if (arg == "--epoch-chunks")
            cfg.epochChunks = static_cast<unsigned>(std::atoi(next()));
        else if (arg == "--workers")
            cfg.trainWorkers = static_cast<unsigned>(std::atoi(next()));
        else if (arg == "--tage-kb")
            cfg.tageBudgetKB = static_cast<unsigned>(std::atoi(next()));
        else if (arg == "--max-hard")
            cfg.profilePolicy.maxHardBranches =
                static_cast<unsigned>(std::atoi(next()));
        else if (arg == "--fraction")
            fraction = std::atof(next());
        else if (arg == "--margin")
            cfg.acceptMargin = std::atof(next());
        else if (arg == "--tenants")
            tenants.tenantsArg = next();
        else if (arg == "--journal-dir")
            cfg.journalDir = next();
        else if (arg == "--out-dir")
            outDir = next();
        else if (arg == "--dispatchers")
            cfg.trainDispatchers =
                static_cast<unsigned>(std::atoi(next()));
        else if (arg == "--quota-chunks") {
            uint64_t v = cfg.defaultQuota.maxQueuedChunks;
            if (!parsePerApp(next(), &v, tenants.quotaChunks))
                usage();
            cfg.defaultQuota.maxQueuedChunks = static_cast<size_t>(v);
        } else if (arg == "--quota-jobs") {
            uint64_t v = cfg.defaultQuota.maxPendingTrainJobs;
            if (!parsePerApp(next(), &v, tenants.quotaJobs))
                usage();
            cfg.defaultQuota.maxPendingTrainJobs =
                static_cast<size_t>(v);
        } else if (arg == "--tenant-weight") {
            uint64_t unused = 0;
            std::string value = next();
            if (value.find('=') == std::string::npos ||
                !parsePerApp(value, &unused, tenants.weights))
                usage();
        } else if (arg == "--listen")
            listenArg = next();
        else if (arg == "--port-file")
            portFile = next();
        else if (arg == "--retry-after-ms")
            retryAfterMs = static_cast<uint32_t>(std::atoi(next()));
        else if (arg == "--idle-timeout-ms")
            idleTimeoutMs = static_cast<uint32_t>(std::atoi(next()));
        else if (arg == "--train-prune" ||
                 arg.rfind("--train-prune=", 0) == 0) {
            std::string v = arg == "--train-prune"
                ? std::string(next())
                : arg.substr(sizeof("--train-prune=") - 1);
            if (!parseOnOff(v, &cfg.trainPrune))
                usage();
        } else if (arg == "--warm-start" ||
                   arg.rfind("--warm-start=", 0) == 0) {
            std::string v = arg == "--warm-start"
                ? std::string(next())
                : arg.substr(sizeof("--warm-start=") - 1);
            if (!parseOnOff(v, &cfg.warmStart))
                usage();
        } else if (arg == "--fault-spec")
            faultSpec = next();
        else if (arg == "--deadline-ms")
            cfg.trainTaskDeadlineMs =
                static_cast<uint64_t>(std::strtoull(next(), nullptr, 10));
        else if (arg == "--max-attempts")
            cfg.trainMaxAttempts =
                static_cast<unsigned>(std::atoi(next()));
        else if (arg == "--eval-trace")
            evalPath = next();
        else if (arg == "--compare-hints")
            comparePath = next();
        else if (arg == "--quiet")
            cfg.verbose = false;
        else
            usage();
    }
    bool serverMode = !listenArg.empty();
    if (cfg.chunkRecords == 0 || (!serverMode && chunkDir.empty()))
        usage();
    if (fraction > 0)
        cfg.whisper.formulaFraction = fraction;
    cfg.autoRegister = tenants.tenantsArg == "auto";
    if (!faultSpec.empty()) {
        std::string error;
        if (!FaultInjector::instance().configure(faultSpec, &error)) {
            std::fprintf(stderr, "error: bad --fault-spec: %s\n",
                         error.c_str());
            return 2;
        }
        std::printf("whisperd: fault injection armed: %s\n",
                    faultSpec.c_str());
    }
    if (!serverMode &&
        ChunkIngestor::listTraceFiles(chunkDir).empty()) {
        std::fprintf(stderr, "error: no .whrt files in %s\n",
                     chunkDir.c_str());
        return 1;
    }

    TenantRouter router(cfg, globalTruthTables());
    if (!registerTenants(router, tenants)) {
        std::fprintf(stderr, "error: --tenants named no apps\n");
        return 2;
    }

    if (serverMode) {
        if (int status = runServer(router, listenArg, portFile,
                                   retryAfterMs, idleTimeoutMs))
            return status;
    } else {
        std::printf("whisperd: streaming %s (%zu tenants%s, "
                    "chunk=%zu records, epoch=%u chunks, %u train "
                    "workers, %u dispatchers)\n",
                    chunkDir.c_str(), router.registry().size(),
                    cfg.autoRegister ? " + auto-register" : "",
                    cfg.chunkRecords, cfg.epochChunks,
                    cfg.trainWorkers,
                    std::max(1u, cfg.trainDispatchers));
        router.run(chunkDir);
    }

    if (int status = reportTenants(router, outDir))
        return status;
    if (evalPath.empty())
        return 0;
    return evalDeployed(router, evalPath, comparePath);
}
