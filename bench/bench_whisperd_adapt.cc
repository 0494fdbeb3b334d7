/**
 * @file
 * Continuous-PGO replay: whisperd's train/validate/deploy loop
 * running alongside an adaptive fleet simulation while the workload
 * drifts from kafka input #0 to input #1 mid-stream, followed by a
 * mixed-fleet scenario where every data center app of Table I
 * streams into one multi-tenant service at a different rate (kafka
 * as a 10x noisy neighbor) under fair-share scheduling.
 *
 * Extends the paper's input-sensitivity result (Fig. 17): a static
 * bundle trained on input #0 degrades after the drift, while the
 * service retrains on recent chunks and redeploys through the
 * versioned hint store, so the fleet predictor follows the workload.
 *
 * Besides the usual tables, the run emits BENCH_whisperd.json with
 * the headline numbers (service throughput in chunks/sec, epochs,
 * per-app mispredict rates) for machine consumption.
 */

#include <chrono>
#include <map>
#include <memory>

#include "common.hh"
#include "service/chunk_profiler.hh"
#include "service/hint_store.hh"
#include "service/tenant_router.hh"
#include "sim/runner.hh"
#include "trace/branch_trace.hh"

using namespace whisper;
using namespace whisper::bench;

namespace
{

std::vector<BranchRecord>
driftStream(const AppConfig &app, uint64_t perInput)
{
    std::vector<BranchRecord> records;
    records.reserve(2 * perInput);
    for (uint32_t input : {0u, 1u}) {
        AppWorkload workload(app, input, perInput);
        BranchRecord rec;
        while (workload.next(rec))
            records.push_back(rec);
    }
    return records;
}

/** One tenant's outcome in the mixed-fleet scenario. */
struct FleetAppResult
{
    uint64_t chunks = 0;
    uint64_t epochs = 0;
    uint64_t accepted = 0;
    uint64_t deployedEpoch = 0;
    double mispredictRate = 0.0; //!< 1 - last validation accuracy
};

struct FleetRunResult
{
    uint64_t chunks = 0;
    uint64_t records = 0;
    uint64_t epochs = 0;
    double wallSeconds = 0.0;
    std::map<std::string, FleetAppResult> apps;
};

/**
 * Mixed fleet: every data center app streams into one TenantRouter
 * at its own rate — @p noisy gets 10x the chunks of everyone else —
 * and the deficit-round-robin scheduler shares the training workers.
 */
FleetRunResult
runMixedFleet(const ExperimentConfig &cfg, const std::string &noisy,
              uint64_t chunkRecords, unsigned quietChunks)
{
    TenantRouterConfig tcfg;
    tcfg.chunkRecords = chunkRecords;
    tcfg.epochChunks = 2;
    tcfg.trainWorkers = 2;
    tcfg.tageBudgetKB = cfg.tageBudgetKB;
    tcfg.profilePolicy.maxHardBranches = cfg.profile.maxHardBranches;
    tcfg.whisper = cfg.whisper;
    tcfg.injector = cfg.injector;
    tcfg.verbose = false;
    tcfg.defaultQuota.maxQueuedChunks = 64;
    tcfg.defaultQuota.maxPendingTrainJobs = 64;

    // Per-app chunk sequences, noisy neighbor at 10x.
    std::map<std::string, std::vector<TraceChunk>> streams;
    for (const AppConfig &app : dataCenterApps()) {
        unsigned n =
            app.name == noisy ? 10 * quietChunks : quietChunks;
        AppWorkload workload(app, 0, chunkRecords * n);
        std::vector<TraceChunk> chunks(n);
        BranchRecord rec;
        for (unsigned i = 0; i < n; ++i) {
            chunks[i].app = app.name;
            chunks[i].records.reserve(chunkRecords);
            while (chunks[i].records.size() < chunkRecords &&
                   workload.next(rec))
                chunks[i].records.push_back(rec);
        }
        streams[app.name] = std::move(chunks);
    }

    TenantRouter router(tcfg, globalTruthTables());
    for (const auto &[app, chunks] : streams)
        router.addTenant(app);

    auto start = std::chrono::steady_clock::now();
    router.start();
    size_t maxLen = 0;
    for (const auto &[app, chunks] : streams)
        maxLen = std::max(maxLen, chunks.size());
    for (size_t i = 0; i < maxLen; ++i) {
        for (auto &[app, chunks] : streams) {
            if (i < chunks.size())
                router.offer(std::move(chunks[i]));
        }
    }
    router.finish();
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();

    FleetRunResult result;
    result.wallSeconds = wall;
    ServiceMetrics metrics = router.metrics();
    for (const auto &[app, tm] : metrics.tenants) {
        FleetAppResult r;
        r.chunks = tm.chunksRouted;
        r.epochs = tm.epochsRun;
        r.accepted = tm.bundlesAccepted;
        r.deployedEpoch = tm.deployedEpoch;
        r.mispredictRate = 1.0 - tm.lastValidationAccuracy;
        result.chunks += tm.chunksRouted;
        result.records += tm.recordsRouted;
        result.epochs += tm.epochsRun;
        result.apps[app] = r;
    }
    return result;
}

} // namespace

int
main()
{
    banner("whisperd adaptive replay under input drift",
           "SV-A / Fig. 17 (input drift) + continuous deployment");

    ExperimentConfig cfg = defaultConfig(0.4);
    const AppConfig &app = appByName("kafka");
    const uint64_t perInput = cfg.trainRecords;
    const uint64_t window = perInput / 4; // 8 epochs total
    const unsigned trainEveryEpochs = 2;

    std::vector<BranchRecord> stream = driftStream(app, perInput);

    // Static reference: one-shot bundle from the pre-drift input.
    BranchProfile staticProfile = profileApp(app, 0, cfg);
    WhisperBuild staticBuild =
        trainWhisper(app, 0, staticProfile, cfg);

    // Online: service components wired around the adaptive runner.
    // Each epoch boundary hands the finished window to the profiler;
    // every trainEveryEpochs windows a candidate is trained on the
    // profiler's running profile, validated on the newest window, and
    // proposed to the store the fleet predictor consults.
    ChunkProfiler::Options profOpt;
    profOpt.maxHardBranches = cfg.profile.maxHardBranches;
    profOpt.statsWarmupRecords = window / 2; // half the first window
    ChunkProfiler profiler(cfg.whisper, makeTage(cfg.tageBudgetKB),
                           profOpt);
    WhisperTrainer trainer(cfg.whisper, globalTruthTables());
    HintInjector injector(cfg.injector);
    HintStore store;
    HintStoreConsultant consultant(
        store, cfg.whisper, globalTruthTables(),
        [&] { return makeTage(cfg.tageBudgetKB); });

    auto evalWindow = [&](const std::vector<BranchRecord> &records,
                          const HintBundle *bundle) {
        TraceSource src(records);
        auto pred = makeBundlePredictor(cfg.tageBudgetKB, cfg.whisper,
                                        globalTruthTables(), bundle);
        return runPredictor(src, *pred);
    };

    auto onEpoch = [&](uint64_t nextEpoch) -> BranchPredictor * {
        size_t from = (nextEpoch - 1) * window;
        size_t to = std::min<size_t>(stream.size(), from + window);
        std::vector<BranchRecord> finished(stream.begin() + from,
                                           stream.begin() + to);

        if (nextEpoch % trainEveryEpochs == 0) {
            if (profiler.profile().numBranches() > 0) {
                HintBundle candidate;
                candidate.hints = trainer.train(profiler.profile(),
                                                nullptr, nullptr, 4);
                TraceSource placeSrc(finished);
                candidate.placements =
                    injector.place(placeSrc, candidate.hints);

                HintStore::Snapshot incumbent = store.current();
                auto incStats = evalWindow(
                    finished,
                    incumbent ? &incumbent->bundle : nullptr);
                auto candStats = evalWindow(finished, &candidate);
                store.propose(std::move(candidate),
                              candStats.accuracy(),
                              incStats.accuracy());
            }
        }

        profiler.profileChunk(finished);
        return consultant.refresh(nextEpoch);
    };

    // Start the fleet on the consultant-managed predictor (no hints
    // deployed yet, so it behaves as plain TAGE); every later
    // deployment swaps hints in place with the tables kept warm.
    TraceSource onlineSource(stream);
    AdaptiveRunStats online = runPredictorAdaptive(
        onlineSource, consultant.predictor(), window, onEpoch);

    // References over the same stream, cut at the same windows.
    std::unique_ptr<BranchPredictor> tage =
        makeTage(cfg.tageBudgetKB);
    TraceSource tageSource(stream);
    AdaptiveRunStats tageRun =
        runPredictorAdaptive(tageSource, *tage, window, nullptr);

    auto staticPred = makeWhisperPredictor(cfg, staticBuild);
    TraceSource staticSource(stream);
    AdaptiveRunStats staticRun =
        runPredictorAdaptive(staticSource, *staticPred, window, nullptr);

    TableReporter table("per-epoch MPKI over the drift stream "
                        "(inputs #0 -> #1 at the midpoint)");
    table.setHeader({"epoch", "tage", "static-whisper",
                     "online-whisperd"});
    for (size_t e = 0; e < online.perEpoch.size(); ++e) {
        table.addRow("epoch " + std::to_string(e),
                     {tageRun.perEpoch[e].mpki(),
                      staticRun.perEpoch[e].mpki(),
                      online.perEpoch[e].mpki()},
                     3);
    }
    table.addRow("total", {tageRun.total.mpki(),
                           staticRun.total.mpki(),
                           online.total.mpki()},
                 3);
    table.print();

    std::printf("\ndeployments: accepted=%llu rejected=%llu "
                "swaps=%llu final-epoch=%llu\n",
                static_cast<unsigned long long>(store.accepted()),
                static_cast<unsigned long long>(store.rejected()),
                static_cast<unsigned long long>(
                    online.predictorSwaps),
                static_cast<unsigned long long>(store.epoch()));
    std::printf("accuracy: tage %.4f%%, static-whisper %.4f%%, "
                "online-whisperd %.4f%%\n",
                100.0 * tageRun.total.accuracy(),
                100.0 * staticRun.total.accuracy(),
                100.0 * online.total.accuracy());

    // ---- mixed-fleet scenario: 12 tenants, one 10x noisy ----
    const std::string noisy = "kafka";
    const uint64_t fleetChunk = std::max<uint64_t>(
        5'000, static_cast<uint64_t>(15'000 * scaleFactor()));
    FleetRunResult fleet =
        runMixedFleet(cfg, noisy, fleetChunk, 4);

    TableReporter fleetTable(
        "mixed fleet: 12 tenants, fair-share training (" + noisy +
        " at 10x rate)");
    fleetTable.setHeader({"app", "chunks", "epochs", "accepted",
                          "deploy-epoch", "val-mispredict%"});
    for (const auto &[app, r] : fleet.apps) {
        fleetTable.addRow(
            {app, std::to_string(r.chunks),
             std::to_string(r.epochs), std::to_string(r.accepted),
             std::to_string(r.deployedEpoch),
             TableReporter::formatDouble(100.0 * r.mispredictRate,
                                         3)});
    }
    fleetTable.print();

    double chunksPerSec =
        fleet.wallSeconds > 0.0 ? fleet.chunks / fleet.wallSeconds
                                : 0.0;
    std::printf("fleet: chunks=%llu records=%llu epochs=%llu "
                "wall-seconds=%.3f chunks/sec=%.1f\n",
                static_cast<unsigned long long>(fleet.chunks),
                static_cast<unsigned long long>(fleet.records),
                static_cast<unsigned long long>(fleet.epochs),
                fleet.wallSeconds, chunksPerSec);

    // ---- machine-readable summary: one run record ----
    auto count = [](uint64_t v) { return std::to_string(v); };
    std::string fields =
        "      \"scale\": " + fixed(scaleFactor(), 3) + ",\n" +
        "      \"drift\": {\"epochs\": " +
        count(online.perEpoch.size()) +
        ", \"accepted\": " + count(store.accepted()) +
        ", \"rejected\": " + count(store.rejected()) +
        ", \"predictor_swaps\": " + count(online.predictorSwaps) +
        ", \"tage_mpki\": " + fixed(tageRun.total.mpki(), 6) +
        ", \"static_whisper_mpki\": " +
        fixed(staticRun.total.mpki(), 6) +
        ", \"online_whisperd_mpki\": " + fixed(online.total.mpki(), 6) +
        "},\n" +
        "      \"fleet\": {\"tenants\": " + count(fleet.apps.size()) +
        ", \"noisy_tenant\": \"" + noisy +
        "\", \"chunks\": " + count(fleet.chunks) +
        ", \"records\": " + count(fleet.records) +
        ", \"epochs\": " + count(fleet.epochs) +
        ", \"wall_seconds\": " + fixed(fleet.wallSeconds, 3) +
        ", \"chunks_per_sec\": " + fixed(chunksPerSec, 2) +
        ",\n        \"apps\": {\n";
    size_t i = 0;
    for (const auto &[app, r] : fleet.apps) {
        fields += "          \"" + app + "\": {\"chunks\": " +
                  count(r.chunks) + ", \"epochs\": " + count(r.epochs) +
                  ", \"accepted\": " + count(r.accepted) +
                  ", \"deployed_epoch\": " + count(r.deployedEpoch) +
                  ", \"mispredict_rate\": " +
                  fixed(r.mispredictRate, 6) + "}" +
                  (++i < fleet.apps.size() ? "," : "") + "\n";
    }
    fields += "        }}";
    const char *jsonPath = "BENCH_whisperd.json";
    if (appendRunRecord(jsonPath, "whisperd", fields))
        std::printf("appended a run to %s\n", jsonPath);
    else
        std::fprintf(stderr, "warning: cannot append to %s\n",
                     jsonPath);
    return 0;
}
