/**
 * @file
 * whisperd's operational metrics.
 *
 * TenantMetrics is the one list of per-tenant fields: each tenant
 * keeps one record of it (see Tenant::metrics()), and every
 * service-wide figure about routing, training, deployment or
 * durability is the roll-up of those records, ServiceMetrics::all().
 * The roll-up sums the counts, takes the maximum of each maximum
 * (and of the two epoch numbers), weights each per-epoch mean by the
 * tenant's epochsRun, and averages
 * lastValidationAccuracy over the tenants that ran at least one
 * epoch — so an idle tenant changes no mean. Both dump() tables,
 * whisperd's fault line and the tests read the roll-up; nothing
 * else sums tenants.
 *
 * The only service-level fields are what no tenant owns: the
 * router's ingest counters (chunks it decided on, unknown apps
 * included) and the directory reader's tally of skipped frames,
 * retries and rejected files.
 *
 * Every cell of every table is rendered explicitly, zeros included:
 * a tenant that never trained prints "0", not a blank cell, so the
 * tables stay machine-parseable when the per-tenant dimension makes
 * them wide.
 */

#ifndef WHISPER_SERVICE_SERVICE_METRICS_HH
#define WHISPER_SERVICE_SERVICE_METRICS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "util/table.hh"

namespace whisper
{

/** One tenant's slice of the service metrics (a value snapshot, so
 * callers can hold it without racing the live record). */
struct TenantMetrics
{
    // -- ingest / routing --
    uint64_t chunksRouted = 0;
    uint64_t recordsRouted = 0;
    uint64_t chunksDropped = 0;    //!< maxQueuedChunks quota breaches
    uint64_t recordsDropped = 0;
    uint64_t trainJobsDropped = 0; //!< maxPendingTrainJobs breaches

    // -- training (means and maxima are per epoch) --
    uint64_t epochsRun = 0;
    double trainLatencyMean = 0.0; //!< seconds per epoch
    double trainLatencyMax = 0.0;
    double hintsPerEpochMean = 0.0;

    // -- warm-start / screening --
    uint64_t warmHits = 0;          //!< branches emitted from seeds
    uint64_t coldSearches = 0;      //!< branches searched cold
    uint64_t warmFallbackEpochs = 0; //!< epochs retrained cold
    double branchTrainMsMean = 0.0; //!< per-branch train CPU time
    double branchTrainMsMax = 0.0;

    // -- deployment --
    uint64_t bundlesAccepted = 0;
    uint64_t bundlesRejected = 0;
    uint64_t deployedEpoch = 0;
    uint64_t hintsDeployed = 0;
    double lastValidationAccuracy = 0.0;
    /** Validation MPKI of the deployed configuration after each
     * epoch minus before it (negative = the swap helped). */
    double deployedMpkiDeltaMean = 0.0;

    // -- durability --
    uint64_t journalResumedEpoch = 0;     //!< epoch restored at startup
    uint64_t journalRecoveredRecords = 0; //!< generations replayed
    uint64_t journalAppendFailures = 0;   //!< torn/failed appends
    uint64_t journalRepairs = 0;          //!< in-place tail truncations

    // -- training failures --
    uint64_t branchesDegraded = 0; //!< fell back to TAGE-SC-L
};

/** Counters for one service run: the router's own plus one record
 * per tenant. */
struct ServiceMetrics
{
    // -- ingest (counted where the router decides on a chunk) --
    uint64_t chunksIngested = 0;
    uint64_t recordsIngested = 0;
    uint64_t filesIngested = 0;
    /** Records counted after the first chunk over the time from the
     * first to the last counted chunk; 0 until two were counted. */
    double ingestRate = 0.0;

    // -- corrupt-input handling (the directory reader's tally) --
    uint64_t chunksSkipped = 0;   //!< damaged trace frames dropped
    uint64_t recordsSkipped = 0;  //!< records lost to dropped frames
    uint64_t readRetries = 0;     //!< transient read errors retried
    uint64_t corruptFiles = 0;    //!< files rejected (bad header/body)

    // -- multi-tenancy --
    uint64_t tenantsRegistered = 0;
    /** Chunks whose app matched no registered tenant (dropped). */
    uint64_t unknownAppChunks = 0;
    /** Per-application metrics, keyed by app name. */
    std::map<std::string, TenantMetrics> tenants;

    /** The roll-up of every tenant record (see the file comment). */
    TenantMetrics
    all() const
    {
        TenantMetrics a;
        uint64_t trainedTenants = 0;
        for (const auto &[name, m] : tenants) {
            double epochs = static_cast<double>(m.epochsRun);
            a.chunksRouted += m.chunksRouted;
            a.recordsRouted += m.recordsRouted;
            a.chunksDropped += m.chunksDropped;
            a.recordsDropped += m.recordsDropped;
            a.trainJobsDropped += m.trainJobsDropped;
            a.epochsRun += m.epochsRun;
            a.trainLatencyMean += epochs * m.trainLatencyMean;
            a.trainLatencyMax =
                std::max(a.trainLatencyMax, m.trainLatencyMax);
            a.hintsPerEpochMean += epochs * m.hintsPerEpochMean;
            a.warmHits += m.warmHits;
            a.coldSearches += m.coldSearches;
            a.warmFallbackEpochs += m.warmFallbackEpochs;
            a.branchTrainMsMean += epochs * m.branchTrainMsMean;
            a.branchTrainMsMax =
                std::max(a.branchTrainMsMax, m.branchTrainMsMax);
            a.bundlesAccepted += m.bundlesAccepted;
            a.bundlesRejected += m.bundlesRejected;
            a.deployedEpoch = std::max(a.deployedEpoch, m.deployedEpoch);
            a.hintsDeployed += m.hintsDeployed;
            if (m.epochsRun > 0) {
                a.lastValidationAccuracy += m.lastValidationAccuracy;
                ++trainedTenants;
            }
            a.deployedMpkiDeltaMean += epochs * m.deployedMpkiDeltaMean;
            a.journalResumedEpoch =
                std::max(a.journalResumedEpoch, m.journalResumedEpoch);
            a.journalRecoveredRecords += m.journalRecoveredRecords;
            a.journalAppendFailures += m.journalAppendFailures;
            a.journalRepairs += m.journalRepairs;
            a.branchesDegraded += m.branchesDegraded;
        }
        if (a.epochsRun > 0) {
            double epochs = static_cast<double>(a.epochsRun);
            a.trainLatencyMean /= epochs;
            a.hintsPerEpochMean /= epochs;
            a.branchTrainMsMean /= epochs;
            a.deployedMpkiDeltaMean /= epochs;
        }
        if (trainedTenants > 0)
            a.lastValidationAccuracy /=
                static_cast<double>(trainedTenants);
        return a;
    }

    /** Render the aggregate table plus (when tenants exist) the
     * per-tenant table with an ALL roll-up row. Every counter is
     * printed, zero or not — no blank cells. */
    void
    dump(std::ostream &os) const
    {
        const TenantMetrics a = all();
        TableReporter t("whisperd service metrics");
        t.setHeader({"metric", "value"});
        auto count = [](uint64_t v) { return std::to_string(v); };
        auto num = [](double v, int digits = 2) {
            return TableReporter::formatDouble(v, digits);
        };
        uint64_t proposed = a.bundlesAccepted + a.bundlesRejected;
        t.addRow({"chunks ingested", count(chunksIngested)});
        t.addRow({"records ingested", count(recordsIngested)});
        t.addRow({"files ingested", count(filesIngested)});
        t.addRow({"ingest rate (records/s)", num(ingestRate)});
        t.addRow({"training epochs", count(a.epochsRun)});
        t.addRow({"training latency (s, mean)",
                  num(a.trainLatencyMean, 3)});
        t.addRow({"training latency (s, max)",
                  num(a.trainLatencyMax, 3)});
        t.addRow({"hints per epoch (mean)", num(a.hintsPerEpochMean)});
        t.addRow({"warm-start hits (branches)", count(a.warmHits)});
        t.addRow({"cold searches (branches)", count(a.coldSearches)});
        t.addRow({"warm-fallback epochs", count(a.warmFallbackEpochs)});
        t.addRow({"branch train CPU (ms, mean)",
                  num(a.branchTrainMsMean, 3)});
        t.addRow({"branch train CPU (ms, max)",
                  num(a.branchTrainMsMax, 3)});
        t.addRow({"bundles accepted", count(a.bundlesAccepted)});
        t.addRow({"bundles rejected", count(a.bundlesRejected)});
        t.addRow({"acceptance ratio",
                  num(proposed ? static_cast<double>(a.bundlesAccepted) /
                                     static_cast<double>(proposed)
                               : 0.0)});
        t.addRow({"deployed MPKI delta per epoch (mean)",
                  num(a.deployedMpkiDeltaMean)});
        t.addRow({"chunks skipped (corrupt)", count(chunksSkipped)});
        t.addRow({"records skipped (corrupt)", count(recordsSkipped)});
        t.addRow({"read retries", count(readRetries)});
        t.addRow({"files rejected", count(corruptFiles)});
        t.addRow({"branches degraded to baseline",
                  count(a.branchesDegraded)});
        t.addRow({"journal append failures",
                  count(a.journalAppendFailures)});
        t.addRow({"journal repairs", count(a.journalRepairs)});
        t.addRow({"journal resumed epoch", count(a.journalResumedEpoch)});
        t.addRow({"journal generations recovered",
                  count(a.journalRecoveredRecords)});
        if (tenantsRegistered > 0) {
            t.addRow({"tenants registered", count(tenantsRegistered)});
            t.addRow({"unknown-app chunks dropped",
                      count(unknownAppChunks)});
        }
        t.print(os);

        if (!tenants.empty())
            dumpTenants(os, a);
    }

  private:
    void
    dumpTenants(std::ostream &os, const TenantMetrics &all) const
    {
        TableReporter t("whisperd per-tenant metrics");
        t.setHeader({"tenant", "chunks", "records", "drop-chunks",
                     "drop-jobs", "epochs", "accept", "reject",
                     "deploy-epoch", "hints", "train-s", "warm",
                     "cold", "fallbk", "br-ms", "val-acc%",
                     "resume-epoch"});
        auto row = [&](const std::string &name,
                       const TenantMetrics &m) {
            t.addRow({name, std::to_string(m.chunksRouted),
                      std::to_string(m.recordsRouted),
                      std::to_string(m.chunksDropped),
                      std::to_string(m.trainJobsDropped),
                      std::to_string(m.epochsRun),
                      std::to_string(m.bundlesAccepted),
                      std::to_string(m.bundlesRejected),
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
        for (const auto &[name, m] : tenants)
            row(name, m);
        row("ALL", all);
        t.print(os);
    }
};

} // namespace whisper

#endif // WHISPER_SERVICE_SERVICE_METRICS_HH
