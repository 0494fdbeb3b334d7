/**
 * @file
 * whisperd's operational metrics, built on util/stats accumulators:
 * ingest throughput, training latency per epoch, bundle
 * acceptance, and the per-epoch validation-MPKI movement of the
 * deployed configuration.
 *
 * The service additionally reports one metrics row per
 * application (ingested/dropped chunks, epochs, train latency,
 * deployment state) plus an aggregate roll-up — the `tenants` map
 * below, rendered by dump(). Every cell of every table is rendered
 * explicitly, zeros included: a tenant that never trained prints
 * "0", not a blank cell, so the tables stay machine-parseable when
 * the per-tenant dimension makes them wide.
 */

#ifndef WHISPER_SERVICE_SERVICE_METRICS_HH
#define WHISPER_SERVICE_SERVICE_METRICS_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "util/stats.hh"
#include "util/table.hh"

namespace whisper
{

/** One tenant's slice of the service metrics (a value snapshot, so
 * callers can hold it without racing the live counters). */
struct TenantMetrics
{
    // -- ingest / routing --
    uint64_t chunksRouted = 0;
    uint64_t recordsRouted = 0;
    uint64_t chunksDropped = 0;    //!< maxQueuedChunks quota breaches
    uint64_t recordsDropped = 0;
    uint64_t trainJobsDropped = 0; //!< maxPendingTrainJobs breaches

    // -- training --
    uint64_t epochsRun = 0;
    double trainLatencyMean = 0.0; //!< seconds per epoch
    double trainLatencyMax = 0.0;
    double hintsPerEpochMean = 0.0;

    // -- warm-start / screening --
    uint64_t warmHits = 0;          //!< branches emitted from seeds
    uint64_t coldSearches = 0;      //!< branches searched cold
    uint64_t warmFallbackEpochs = 0; //!< epochs retrained cold
    double branchTrainMsMean = 0.0; //!< per-branch train time
    double branchTrainMsMax = 0.0;

    // -- deployment --
    uint64_t bundlesAccepted = 0;
    uint64_t bundlesRejected = 0;
    uint64_t rollbacks = 0;
    uint64_t deployedEpoch = 0;
    uint64_t hintsDeployed = 0;
    double lastValidationAccuracy = 0.0;

    // -- durability --
    uint64_t journalResumedEpoch = 0;
    uint64_t journalRecoveredRecords = 0;

    // -- training supervision --
    uint64_t tasksRequeued = 0;
    uint64_t taskFailures = 0;
    uint64_t branchesDegraded = 0;
    uint64_t workersDied = 0;
};

/** Counters and accumulators for one service run. */
struct ServiceMetrics
{
    // -- ingest (counted where the router decides on a chunk) --
    uint64_t chunksIngested = 0;
    uint64_t recordsIngested = 0;
    uint64_t filesIngested = 0;
    /** Records/sec since the router was built, one sample per
     * chunk. */
    RunningStat ingestRate;

    // -- training --
    uint64_t epochsRun = 0;
    RunningStat trainLatency;    //!< seconds per training epoch
    RunningStat hintsPerEpoch;   //!< bundle size per epoch
    RatioStat bundleAcceptance;  //!< accepted / proposed
    /** Warm-start / sparse-correlation screening: branches whose
     * previous-epoch seed cleared the gates vs branches searched
     * cold, epochs where a regressing warm candidate forced a cold
     * retrain, and the per-branch train time (ms, one sample = one
     * epoch's mean). */
    uint64_t warmHits = 0;
    uint64_t coldSearches = 0;
    uint64_t warmFallbackEpochs = 0;
    RunningStat branchTrainMs;
    /** Validation MPKI of the deployed configuration after each
     * epoch minus before it (negative = the swap helped). */
    RunningStat deployedMpkiDelta;

    // -- robustness: corrupt-input handling --
    uint64_t chunksSkipped = 0;   //!< damaged trace frames dropped
    uint64_t recordsSkipped = 0;  //!< records lost to dropped frames
    uint64_t readRetries = 0;     //!< transient read errors retried
    uint64_t corruptFiles = 0;    //!< files rejected (bad header/body)

    // -- robustness: training supervision --
    uint64_t tasksRequeued = 0;     //!< deadline-expired reclaims
    uint64_t taskFailures = 0;      //!< training attempts that threw
    uint64_t branchesDegraded = 0;  //!< fell back to TAGE-SC-L
    uint64_t workersDied = 0;       //!< training workers lost

    // -- robustness: journal durability --
    uint64_t journalAppendFailures = 0; //!< torn/failed appends
    uint64_t journalRepairs = 0;        //!< in-place tail truncations
    uint64_t journalResumedEpoch = 0;   //!< epoch restored at startup
    uint64_t journalRecoveredRecords = 0; //!< generations replayed

    // -- multi-tenancy --
    uint64_t tenantsRegistered = 0;
    /** Chunks whose app matched no registered tenant (dropped). */
    uint64_t unknownAppChunks = 0;
    /** Per-application metrics, keyed by app name. */
    std::map<std::string, TenantMetrics> tenants;

    /** Render the aggregate table plus (when tenants exist) the
     * per-tenant table with an ALL roll-up row. Every counter is
     * printed, zero or not — no blank cells. */
    void
    dump(std::ostream &os) const
    {
        TableReporter t("whisperd service metrics");
        t.setHeader({"metric", "value"});
        auto num = [](double v) {
            return TableReporter::formatDouble(v, 2);
        };
        t.addRow({"chunks ingested",
                  std::to_string(chunksIngested)});
        t.addRow({"records ingested",
                  std::to_string(recordsIngested)});
        t.addRow({"files ingested", std::to_string(filesIngested)});
        t.addRow({"ingest rate (records/s, mean)",
                  num(ingestRate.mean())});
        t.addRow({"training epochs", std::to_string(epochsRun)});
        t.addRow({"training latency (s, mean)",
                  num(trainLatency.mean())});
        t.addRow({"training latency (s, max)",
                  num(trainLatency.max())});
        t.addRow({"hints per epoch (mean)",
                  num(hintsPerEpoch.mean())});
        t.addRow({"warm-start hits (branches)",
                  std::to_string(warmHits)});
        t.addRow({"cold searches (branches)",
                  std::to_string(coldSearches)});
        t.addRow({"warm-fallback epochs",
                  std::to_string(warmFallbackEpochs)});
        t.addRow({"branch train time (ms, mean)",
                  TableReporter::formatDouble(branchTrainMs.mean(),
                                              3)});
        t.addRow({"branch train time (ms, max)",
                  TableReporter::formatDouble(branchTrainMs.max(),
                                              3)});
        t.addRow({"bundles accepted",
                  std::to_string(bundleAcceptance.hits())});
        t.addRow({"bundles rejected",
                  std::to_string(bundleAcceptance.misses())});
        t.addRow({"acceptance ratio",
                  num(bundleAcceptance.ratio())});
        t.addRow({"deployed MPKI delta per epoch (mean)",
                  num(deployedMpkiDelta.mean())});
        t.addRow({"chunks skipped (corrupt)",
                  std::to_string(chunksSkipped)});
        t.addRow({"records skipped (corrupt)",
                  std::to_string(recordsSkipped)});
        t.addRow({"read retries", std::to_string(readRetries)});
        t.addRow({"files rejected", std::to_string(corruptFiles)});
        t.addRow({"training tasks requeued",
                  std::to_string(tasksRequeued)});
        t.addRow({"training task failures",
                  std::to_string(taskFailures)});
        t.addRow({"branches degraded to baseline",
                  std::to_string(branchesDegraded)});
        t.addRow({"training workers died",
                  std::to_string(workersDied)});
        t.addRow({"journal append failures",
                  std::to_string(journalAppendFailures)});
        t.addRow({"journal repairs",
                  std::to_string(journalRepairs)});
        t.addRow({"journal resumed epoch",
                  std::to_string(journalResumedEpoch)});
        t.addRow({"journal generations recovered",
                  std::to_string(journalRecoveredRecords)});
        if (tenantsRegistered > 0) {
            t.addRow({"tenants registered",
                      std::to_string(tenantsRegistered)});
            t.addRow({"unknown-app chunks dropped",
                      std::to_string(unknownAppChunks)});
        }
        t.print(os);

        if (!tenants.empty())
            dumpTenants(os);
    }

  private:
    void
    dumpTenants(std::ostream &os) const
    {
        TableReporter t("whisperd per-tenant metrics");
        t.setHeader({"tenant", "chunks", "records", "drop-chunks",
                     "drop-jobs", "epochs", "accept", "reject",
                     "rollbk", "deploy-epoch", "hints", "train-s",
                     "warm", "cold", "fallbk", "br-ms",
                     "val-acc%", "resume-epoch"});
        TenantMetrics all;
        auto row = [&](const std::string &name,
                       const TenantMetrics &m) {
            t.addRow({name, std::to_string(m.chunksRouted),
                      std::to_string(m.recordsRouted),
                      std::to_string(m.chunksDropped),
                      std::to_string(m.trainJobsDropped),
                      std::to_string(m.epochsRun),
                      std::to_string(m.bundlesAccepted),
                      std::to_string(m.bundlesRejected),
                      std::to_string(m.rollbacks),
                      std::to_string(m.deployedEpoch),
                      std::to_string(m.hintsDeployed),
                      TableReporter::formatDouble(
                          m.trainLatencyMean, 3),
                      std::to_string(m.warmHits),
                      std::to_string(m.coldSearches),
                      std::to_string(m.warmFallbackEpochs),
                      TableReporter::formatDouble(
                          m.branchTrainMsMean, 3),
                      TableReporter::formatDouble(
                          100.0 * m.lastValidationAccuracy, 3),
                      std::to_string(m.journalResumedEpoch)});
        };
        double latencySum = 0.0;
        double accuracySum = 0.0;
        double branchMsSum = 0.0;
        for (const auto &[name, m] : tenants) {
            row(name, m);
            all.warmHits += m.warmHits;
            all.coldSearches += m.coldSearches;
            all.warmFallbackEpochs += m.warmFallbackEpochs;
            all.branchTrainMsMax = std::max(all.branchTrainMsMax,
                                            m.branchTrainMsMax);
            branchMsSum += m.branchTrainMsMean;
            all.chunksRouted += m.chunksRouted;
            all.recordsRouted += m.recordsRouted;
            all.chunksDropped += m.chunksDropped;
            all.recordsDropped += m.recordsDropped;
            all.trainJobsDropped += m.trainJobsDropped;
            all.epochsRun += m.epochsRun;
            all.bundlesAccepted += m.bundlesAccepted;
            all.bundlesRejected += m.bundlesRejected;
            all.rollbacks += m.rollbacks;
            all.deployedEpoch =
                std::max(all.deployedEpoch, m.deployedEpoch);
            all.hintsDeployed += m.hintsDeployed;
            all.journalResumedEpoch = std::max(
                all.journalResumedEpoch, m.journalResumedEpoch);
            latencySum += m.trainLatencyMean;
            accuracySum += m.lastValidationAccuracy;
        }
        size_t n = tenants.size();
        all.trainLatencyMean = n ? latencySum / n : 0.0;
        all.lastValidationAccuracy = n ? accuracySum / n : 0.0;
        all.branchTrainMsMean = n ? branchMsSum / n : 0.0;
        row("ALL", all);
        t.print(os);
    }
};

} // namespace whisper

#endif // WHISPER_SERVICE_SERVICE_METRICS_HH
