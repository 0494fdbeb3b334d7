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
 * Numeric flags are parsed strictly (cli_parse.hh): a malformed or
 * out-of-range value exits 2 naming the flag.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
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

#include "cli_parse.hh"

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
        "  --workers N          training threads of the one "
        "dispatcher (default: one\n"
        "                       per hardware thread)\n"
        "  --tage-kb N          baseline budget, a power of two in "
        "8..8192 (default 64)\n"
        "  --max-hard N         hard-branch cap per app "
        "(default 512)\n"
        "  --fraction F         randomized-testing fraction, in "
        "(0, 1]\n"
        "  --margin F           acceptance accuracy margin, in "
        "[-1, 1] (default 0)\n"
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
        "(e.g. flip-chunks=0.01,fail-train)\n"
        "  --retry-after-ms N   backpressure hint sent to clients "
        "(default 25)\n"
        "  --idle-timeout-ms N  reap connections stalled mid-frame "
        "(default 10000)\n"
        "  --eval-trace FILE    evaluate the deployed bundle of the "
        "trace's app on it\n"
        "  --compare-hints FILE also evaluate a static bundle on it\n"
        "  --quiet              no per-epoch log\n"
        "A malformed or out-of-range value exits 2 naming its "
        "flag.\n");
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
    auto pred =
        makeBundlePredictor(tageKb, cfg, globalTruthTables(), bundle);
    TraceSource src(trace);
    PredictorRunStats stats = runPredictor(src, *pred, 0.5);
    if (mpki)
        *mpki = stats.mpki();
    return stats.accuracy();
}

} // namespace

/** Parse "[APP=]N" (N positive): a bare number applies to every
 * tenant, an APP=N pair to one. Bad values exit 2. */
void
parsePerApp(const char *flag, const std::string &value,
            uint64_t *global, std::map<std::string, uint64_t> &perApp)
{
    size_t eq = value.find('=');
    if (eq == std::string::npos) {
        *global = parsePositive(flag, value.c_str());
        return;
    }
    std::string app = value.substr(0, eq);
    if (app.empty())
        badValue(flag, value.c_str(), "[APP=]N");
    perApp[app] = parsePositive(flag, value.c_str() + eq + 1);
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
    TenantMetrics all = metrics.all();
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
        "retries=%llu degraded-branches=%llu torn-writes=%llu\n",
        static_cast<unsigned long long>(metrics.chunksSkipped),
        static_cast<unsigned long long>(metrics.recordsSkipped),
        static_cast<unsigned long long>(metrics.readRetries),
        static_cast<unsigned long long>(all.branchesDegraded),
        static_cast<unsigned long long>(all.journalAppendFailures));
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

/** Split "--listen [ADDR:]PORT" into @p scfg (PORT 0 = ephemeral). */
void
parseListen(const std::string &listenArg, WireServerConfig &scfg)
{
    size_t colon = listenArg.rfind(':');
    std::string portStr = listenArg;
    if (colon != std::string::npos) {
        scfg.bindAddress = listenArg.substr(0, colon);
        portStr = listenArg.substr(colon + 1);
    }
    scfg.port = static_cast<uint16_t>(
        parseInteger("--listen", portStr.c_str(), 0, UINT16_MAX));
}

int
runServer(TenantRouter &router, WireServerConfig scfg,
          const std::string &portFile)
{
    const TenantRouterConfig &tcfg = router.config();
    router.start();
    scfg.verbose = tcfg.verbose;

    WireServer server(
        scfg,
        [&router](TraceChunk chunk) {
            return router.tryOffer(std::move(chunk));
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
        std::fprintf(stderr, "error: cannot listen on %s:%u: %s\n",
                     scfg.bindAddress.c_str(),
                     static_cast<unsigned>(scfg.port), error.c_str());
        router.finish();
        return 1;
    }
    std::printf("whisperd: listening on %s:%u (%zu tenants%s)\n",
                scfg.bindAddress.c_str(), server.boundPort(),
                router.registry().size(),
                tcfg.autoRegister ? " + auto-register" : "");
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
    // dispatcher flushes them too).
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
    std::string portFile;
    bool serverMode = false;
    WireServerConfig scfg;
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
        // Strict values for this flag: out of range exits 2.
        auto integer = [&](uint64_t min, uint64_t max) {
            return parseInteger(arg.c_str(), next(), min, max);
        };
        auto positive = [&]() {
            return static_cast<unsigned>(
                integer(1, std::numeric_limits<unsigned>::max()));
        };
        if (arg == "--chunks")
            chunkDir = next();
        else if (arg == "--chunk-records")
            cfg.chunkRecords =
                static_cast<size_t>(integer(1, SIZE_MAX));
        else if (arg == "--epoch-chunks")
            cfg.epochChunks = positive();
        else if (arg == "--workers")
            cfg.trainWorkers = positive();
        else if (arg == "--tage-kb")
            cfg.tageBudgetKB = parseTageKb("--tage-kb", next());
        else if (arg == "--max-hard")
            cfg.profilePolicy.maxHardBranches = positive();
        else if (arg == "--fraction")
            fraction = parseReal("--fraction", next(),
                                 std::numeric_limits<double>::min(), 1.0,
                                 "a fraction in (0, 1]");
        else if (arg == "--margin")
            cfg.acceptMargin = parseReal("--margin", next(), -1.0, 1.0,
                                         "an accuracy margin in [-1, 1]");
        else if (arg == "--tenants")
            tenants.tenantsArg = next();
        else if (arg == "--journal-dir")
            cfg.journalDir = next();
        else if (arg == "--out-dir")
            outDir = next();
        else if (arg == "--quota-chunks") {
            uint64_t v = cfg.defaultQuota.maxQueuedChunks;
            parsePerApp("--quota-chunks", next(), &v,
                        tenants.quotaChunks);
            cfg.defaultQuota.maxQueuedChunks = static_cast<size_t>(v);
        } else if (arg == "--quota-jobs") {
            uint64_t v = cfg.defaultQuota.maxPendingTrainJobs;
            parsePerApp("--quota-jobs", next(), &v, tenants.quotaJobs);
            cfg.defaultQuota.maxPendingTrainJobs =
                static_cast<size_t>(v);
        } else if (arg == "--tenant-weight") {
            uint64_t unused = 0;
            std::string value = next();
            if (value.find('=') == std::string::npos)
                badValue("--tenant-weight", value.c_str(), "APP=W");
            parsePerApp("--tenant-weight", value, &unused,
                        tenants.weights);
        } else if (arg == "--listen") {
            parseListen(next(), scfg);
            serverMode = true;
        } else if (arg == "--port-file")
            portFile = next();
        else if (arg == "--retry-after-ms")
            scfg.retryAfterMs =
                static_cast<uint32_t>(integer(0, UINT32_MAX));
        else if (arg == "--idle-timeout-ms")
            scfg.idleTimeoutMs =
                static_cast<uint32_t>(integer(0, UINT32_MAX));
        else if (arg == "--train-prune" ||
                 arg.rfind("--train-prune=", 0) == 0) {
            std::string v = arg == "--train-prune"
                ? std::string(next())
                : arg.substr(sizeof("--train-prune=") - 1);
            cfg.trainPrune = parseOnOff("--train-prune", v);
        } else if (arg == "--warm-start" ||
                   arg.rfind("--warm-start=", 0) == 0) {
            std::string v = arg == "--warm-start"
                ? std::string(next())
                : arg.substr(sizeof("--warm-start=") - 1);
            cfg.warmStart = parseOnOff("--warm-start", v);
        } else if (arg == "--fault-spec")
            faultSpec = next();
        else if (arg == "--eval-trace")
            evalPath = next();
        else if (arg == "--compare-hints")
            comparePath = next();
        else if (arg == "--quiet")
            cfg.verbose = false;
        else
            usage();
    }
    if (!serverMode && chunkDir.empty())
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
    if (!serverMode && listTraceFiles(chunkDir).empty()) {
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
        if (int status = runServer(router, scfg, portFile))
            return status;
    } else {
        std::printf("whisperd: streaming %s (%zu tenants%s, "
                    "chunk=%zu records, epoch=%u chunks, %u train "
                    "workers)\n",
                    chunkDir.c_str(), router.registry().size(),
                    cfg.autoRegister ? " + auto-register" : "",
                    cfg.chunkRecords, cfg.epochChunks,
                    cfg.trainWorkers);
        router.run(chunkDir);
    }

    if (int status = reportTenants(router, outDir))
        return status;
    if (evalPath.empty())
        return 0;
    return evalDeployed(router, evalPath, comparePath);
}
