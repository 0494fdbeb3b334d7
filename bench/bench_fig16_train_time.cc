/**
 * @file
 * Fig. 16: offline training time per technique.
 *
 * Paper result (log scale): BranchNet needs thousands of seconds
 * even on a V100 GPU; 8b-ROMBF's exhaustive enumeration grows
 * exponentially with history length; Whisper is the cheapest.
 * Our absolute numbers are host-CPU seconds at reproduction scale —
 * the ordering and the growth shape are the reproduced result.
 */

#include "common.hh"

#include "rombf/rombf_trainer.hh"

using namespace whisper;
using namespace whisper::bench;

int
main()
{
    banner("Fig. 16: offline training time",
           "Fig. 16 (Whisper < 8b-ROMBF < BranchNet; 4b-ROMBF "
           "cheap)");

    ExperimentConfig cfg = defaultConfig();
    cfg.profile.maxHardBranches = 512;
    const std::vector<AppConfig> apps = {
        appByName("mysql"), appByName("cassandra"),
        appByName("finagle-http")};

    RunningStat t4, t8, bn8, bn32, bnU, tw;
    for (const auto &app : apps) {
        BranchNetSampleStore store;
        BranchProfile profile = profileApp(app, 0, cfg, &store);

        {
            // Full enumerations (no function dedup) — the genuine
            // cost of the prior work's exhaustive search.
            RombfTrainer trainer(4, /*dedupe=*/false);
            RombfTrainingStats s;
            trainer.train(profile, &s);
            t4.add(s.trainSeconds);
        }
        {
            RombfTrainer trainer(8, /*dedupe=*/false);
            RombfTrainingStats s;
            trainer.train(profile, &s);
            t8.add(s.trainSeconds);
        }
        for (auto [budget, stat] :
             {std::pair<uint64_t, RunningStat *>{8 * 1024, &bn8},
              {32 * 1024, &bn32},
              {0, &bnU}}) {
            BranchNetTrainingStats s;
            BranchNetTrainer trainer(budget);
            trainer.train(profile, store, &s);
            stat->add(s.trainSeconds);
        }
        {
            TrainingStats s;
            WhisperTrainer trainer(cfg.whisper, globalTruthTables());
            trainer.train(profile, nullptr, &s);
            tw.add(s.trainSeconds);
        }
    }

    TableReporter table("Fig. 16: average training time in seconds "
                        "(3 apps, top-512 hard branches)");
    table.setHeader({"technique", "seconds"});
    table.addRow("4b-ROMBF", {t4.mean()}, 4);
    table.addRow("8b-ROMBF", {t8.mean()}, 4);
    table.addRow("8KB-BranchNet", {bn8.mean()}, 4);
    table.addRow("32KB-BranchNet", {bn32.mean()}, 4);
    table.addRow("Unlimited-BranchNet", {bnU.mean()}, 4);
    table.addRow("Whisper", {tw.mean()}, 4);
    table.print();

    std::printf("note: the paper's BranchNet trains multi-layer "
                "CNNs on GPUs (1000s of seconds); our reduced-scale "
                "CNN preserves the ordering, not the magnitude.\n");
    return 0;
}
