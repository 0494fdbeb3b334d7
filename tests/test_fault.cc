/**
 * @file
 * Fault-tolerance tests: CRC32, the crash-safe hint-store journal
 * (torn-tail recovery, resume-from-epoch), corrupt-trace skipping,
 * hostile length fields, the fault-injection harness itself, and the
 * degradation of a branch whose training throws.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "service/hint_journal.hh"
#include "service/hint_store.hh"
#include "service/tenant_router.hh"
#include "sim/experiment.hh"
#include "trace/branch_trace.hh"
#include "trace/trace_reader.hh"
#include "util/crc32.hh"
#include "util/fault_injection.hh"
#include "util/rng.hh"
#include "workloads/app_workload.hh"

using namespace whisper;

namespace
{

/** Clears any installed fault spec around each test. */
class FaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }
};

VersionedHintBundle
makeBundle(uint64_t epoch, size_t hints)
{
    VersionedHintBundle v;
    v.epoch = epoch;
    v.validationAccuracy = 0.9 + 0.0001 * static_cast<double>(epoch);
    for (size_t i = 0; i < hints; ++i) {
        TrainedHint h;
        h.pc = 0x400000 + 16 * (epoch * 1000 + i);
        h.hint.pcPointer = BrHint::pcPointerFor(h.pc);
        h.hint.formula = static_cast<uint16_t>(i * 7 + epoch);
        h.historyLength = 64;
        v.bundle.hints.push_back(h);

        HintPlacement p;
        p.branchPc = h.pc;
        p.predecessorPc = h.pc - 16;
        p.coverage = 0.5;
        v.bundle.placements.push_back(p);
    }
    return v;
}

std::vector<BranchRecord>
kafkaRecords(uint32_t inputId, uint64_t count)
{
    AppWorkload workload(appByName("kafka"), inputId, count);
    std::vector<BranchRecord> records;
    records.reserve(count);
    BranchRecord rec;
    while (workload.next(rec))
        records.push_back(rec);
    return records;
}

long
fileSize(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return -1;
    std::fseek(f, 0, SEEK_END);
    long n = std::ftell(f);
    std::fclose(f);
    return n;
}

void
truncateFile(const std::string &path, long newSize)
{
    std::filesystem::resize_file(path,
                                 static_cast<uintmax_t>(newSize));
}

} // namespace

// --------------------------------------------------------------------
// CRC32
// --------------------------------------------------------------------

TEST(Crc32, KnownAnswer)
{
    // IEEE 802.3 check value for "123456789".
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, SeedChains)
{
    // Incremental CRC over two halves equals one shot.
    const char *s = "whisper journal record";
    uint32_t whole = crc32(s, 22);
    uint32_t half = crc32(s, 10);
    EXPECT_EQ(crc32(s + 10, 12, half), whole);
}

namespace
{

/** The textbook bit-at-a-time CRC-32: no tables to get wrong. */
uint32_t
bytewiseCrc32(const unsigned char *p, size_t len, uint32_t seed)
{
    uint32_t crc = ~seed;
    for (size_t i = 0; i < len; ++i) {
        crc ^= p[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    return ~crc;
}

} // namespace

TEST(Crc32, MatchesBytewiseReference)
{
    Rng rng(0xC3C32);
    std::vector<unsigned char> buf(1 << 20);
    for (unsigned char &b : buf)
        b = static_cast<unsigned char>(rng.nextBelow(256));
    const uint32_t seeds[] = {0, 1, 0xFFFFFFFFu, 0x9E3779B9u};

    // Every length around the 16-byte block and every start
    // alignment, so each tail length meets each block phase.
    for (size_t at = 0; at < 16; ++at) {
        for (size_t len = 0; len <= 257; ++len) {
            for (uint32_t seed : seeds) {
                ASSERT_EQ(crc32(buf.data() + at, len, seed),
                          bytewiseCrc32(buf.data() + at, len, seed))
                    << "at=" << at << " len=" << len
                    << " seed=" << seed;
            }
        }
    }

    // Pieces chained through the seed equal one shot.
    for (int trial = 0; trial < 200; ++trial) {
        size_t len = 1 + rng.nextBelow(4096);
        const unsigned char *p = buf.data() + rng.nextBelow(1024);
        uint32_t whole = bytewiseCrc32(p, len, 0);
        size_t cut1 = rng.nextBelow(len + 1);
        size_t cut2 = cut1 + rng.nextBelow(len - cut1 + 1);
        EXPECT_EQ(crc32(p + cut1, len - cut1, crc32(p, cut1)), whole)
            << "len=" << len << " cut=" << cut1;
        uint32_t chained = crc32(p, cut1);
        chained = crc32(p + cut1, cut2 - cut1, chained);
        chained = crc32(p + cut2, len - cut2, chained);
        EXPECT_EQ(chained, whole)
            << "len=" << len << " cuts=" << cut1 << "," << cut2;
    }

    EXPECT_EQ(crc32(buf.data(), buf.size()),
              bytewiseCrc32(buf.data(), buf.size(), 0));
}

// --------------------------------------------------------------------
// HintJournal
// --------------------------------------------------------------------

TEST(HintJournal, AppendReplayRoundTrip)
{
    std::string path = "/tmp/whisper_test_journal.wal";
    std::remove(path.c_str());
    {
        HintJournal journal;
        std::vector<VersionedHintBundle> replayed;
        ASSERT_TRUE(journal.open(path, replayed).ok());
        EXPECT_TRUE(replayed.empty());
        ASSERT_TRUE(journal.append(makeBundle(1, 3)));
        ASSERT_TRUE(journal.append(makeBundle(2, 5)));
        ASSERT_TRUE(journal.append(makeBundle(3, 1)));
    }
    std::vector<VersionedHintBundle> replayed =
        HintJournal::replay(path);
    ASSERT_EQ(replayed.size(), 3u);
    EXPECT_TRUE(replayed[0] == makeBundle(1, 3));
    EXPECT_TRUE(replayed[1] == makeBundle(2, 5));
    EXPECT_TRUE(replayed[2] == makeBundle(3, 1));
    std::remove(path.c_str());
}

TEST(HintJournal, TornTailIsDiscardedAndCompacted)
{
    std::string path = "/tmp/whisper_test_journal_torn.wal";
    std::remove(path.c_str());
    {
        HintJournal journal;
        std::vector<VersionedHintBundle> replayed;
        ASSERT_TRUE(journal.open(path, replayed).ok());
        ASSERT_TRUE(journal.append(makeBundle(1, 4)));
        ASSERT_TRUE(journal.append(makeBundle(2, 4)));
    }
    // Simulate a crash mid-append: chop bytes off the last record.
    long full = fileSize(path);
    ASSERT_GT(full, 10);
    truncateFile(path, full - 7);

    HintJournal journal;
    std::vector<VersionedHintBundle> replayed;
    HintJournal::RecoveryInfo info;
    ASSERT_TRUE(journal.open(path, replayed, &info).ok());
    ASSERT_EQ(replayed.size(), 1u);
    // The surviving generation is bit-identical to what was written.
    EXPECT_TRUE(replayed[0] == makeBundle(1, 4));
    EXPECT_GT(info.tailBytesDiscarded, 0u);
    EXPECT_TRUE(info.compacted);

    // The compacted file replays clean, and appending after recovery
    // works.
    ASSERT_TRUE(journal.append(makeBundle(2, 6)));
    journal.close();
    std::vector<VersionedHintBundle> again =
        HintJournal::replay(path);
    ASSERT_EQ(again.size(), 2u);
    EXPECT_TRUE(again[1] == makeBundle(2, 6));
    std::remove(path.c_str());
}

TEST(HintJournal, GarbageTailAfterValidPrefix)
{
    std::string path = "/tmp/whisper_test_journal_garbage.wal";
    std::remove(path.c_str());
    {
        HintJournal journal;
        std::vector<VersionedHintBundle> replayed;
        ASSERT_TRUE(journal.open(path, replayed).ok());
        ASSERT_TRUE(journal.append(makeBundle(1, 2)));
    }
    {
        std::FILE *f = std::fopen(path.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        std::fputs("garbage that is definitely not a record", f);
        std::fclose(f);
    }
    std::vector<VersionedHintBundle> replayed =
        HintJournal::replay(path);
    ASSERT_EQ(replayed.size(), 1u);
    EXPECT_TRUE(replayed[0] == makeBundle(1, 2));
    std::remove(path.c_str());
}

TEST_F(FaultTest, InjectedTornAppendSelfHeals)
{
    std::string path = "/tmp/whisper_test_journal_inject.wal";
    std::remove(path.c_str());
    // Second append (1-based) is torn.
    ASSERT_TRUE(FaultInjector::instance().configure(
        "truncate-journal=2"));

    HintJournal journal;
    std::vector<VersionedHintBundle> replayed;
    ASSERT_TRUE(journal.open(path, replayed).ok());
    EXPECT_TRUE(journal.append(makeBundle(1, 3)));
    EXPECT_FALSE(journal.append(makeBundle(2, 3))); // torn
    EXPECT_EQ(journal.appendFailures(), 1u);
    // The next append truncates back to the good offset first.
    EXPECT_TRUE(journal.append(makeBundle(3, 3)));
    EXPECT_EQ(journal.repairs(), 1u);
    journal.close();

    std::vector<VersionedHintBundle> again =
        HintJournal::replay(path);
    ASSERT_EQ(again.size(), 2u);
    EXPECT_TRUE(again[0] == makeBundle(1, 3));
    EXPECT_TRUE(again[1] == makeBundle(3, 3));
    EXPECT_EQ(FaultInjector::instance().writesTorn(), 1u);
    std::remove(path.c_str());
}

TEST(HintJournal, CompactionRacingConcurrentAppendThenReplay)
{
    // The restart race: whisperd reopens a torn journal (open()
    // compacts through temp file + atomic rename) and immediately
    // starts appending fresh deployments, while an observer —
    // a crashed-and-restarting reader, or an operator's inspection
    // tool — replays the same path concurrently. Every concurrent
    // replay must see a valid ascending prefix (rename is atomic,
    // a half-written append reads as a torn tail), and once the
    // writer is done a restart-replay must recover every generation
    // and land on the writer's exact final epoch.
    std::string path = "/tmp/whisper_test_journal_race.wal";
    std::remove(path.c_str());
    constexpr uint64_t kSeedGens = 6;
    constexpr uint64_t kLiveGens = 40;
    {
        HintJournal journal;
        std::vector<VersionedHintBundle> replayed;
        ASSERT_TRUE(journal.open(path, replayed).ok());
        for (uint64_t e = 1; e <= kSeedGens; ++e)
            ASSERT_TRUE(journal.append(makeBundle(e, 3)));
    }
    // Crash mid-append: tear the last record so open() must compact.
    long full = fileSize(path);
    ASSERT_GT(full, 10);
    truncateFile(path, full - 9);

    std::atomic<bool> writerDone{false};
    std::atomic<bool> replayBroken{false};
    std::atomic<uint64_t> replays{0};
    std::thread reader([&] {
        while (!writerDone.load()) {
            std::vector<VersionedHintBundle> seen =
                HintJournal::replay(path);
            ++replays;
            uint64_t prev = 0;
            for (const auto &gen : seen) {
                if (gen.epoch <= prev ||
                    gen.epoch > kSeedGens + kLiveGens) {
                    replayBroken = true;
                    return;
                }
                prev = gen.epoch;
            }
        }
    });

    HintJournal journal;
    std::vector<VersionedHintBundle> replayed;
    HintJournal::RecoveryInfo info;
    ASSERT_TRUE(journal.open(path, replayed, &info).ok());
    ASSERT_EQ(replayed.size(), kSeedGens - 1); // torn gen dropped
    EXPECT_TRUE(info.compacted);
    uint64_t epoch = replayed.back().epoch;
    for (uint64_t i = 0; i < kLiveGens; ++i)
        ASSERT_TRUE(journal.append(makeBundle(++epoch, 2)));
    journal.close();
    writerDone = true;
    reader.join();

    EXPECT_FALSE(replayBroken.load());
    EXPECT_GT(replays.load(), 0u);

    // Restart-replay: the post-compaction journal recovers the
    // surviving seed prefix plus every live append, ending on the
    // writer's final epoch.
    std::vector<VersionedHintBundle> recovered =
        HintJournal::replay(path);
    ASSERT_EQ(recovered.size(), kSeedGens - 1 + kLiveGens);
    EXPECT_EQ(recovered.back().epoch, epoch);
    for (size_t i = 1; i < recovered.size(); ++i)
        EXPECT_LT(recovered[i - 1].epoch, recovered[i].epoch);

    // And a HintStore restored from it resumes at that epoch.
    HintStore store;
    EXPECT_EQ(store.restore(std::move(recovered)),
              kSeedGens - 1 + kLiveGens);
    EXPECT_EQ(store.epoch(), epoch);
    std::remove(path.c_str());
}

// --------------------------------------------------------------------
// HintStore restore / journaled deployment
// --------------------------------------------------------------------

TEST(HintStore, RestoreResumesEpochNumbering)
{
    HintStore store;
    std::vector<VersionedHintBundle> history;
    history.push_back(makeBundle(3, 2));
    history.push_back(makeBundle(7, 4));
    EXPECT_EQ(store.restore(std::move(history)), 2u);

    EXPECT_EQ(store.epoch(), 7u);
    ASSERT_NE(store.current(), nullptr);
    EXPECT_EQ(store.current()->bundle.hints.size(), 4u);

    // New deployments continue after the restored epoch, not from 1.
    HintBundle next;
    next.hints.resize(9);
    ASSERT_TRUE(store.propose(next, 0.99, 0.90));
    EXPECT_EQ(store.epoch(), 8u);
}

TEST(HintStore, RestoreDropsNonMonotonicEpochs)
{
    HintStore store;
    std::vector<VersionedHintBundle> history;
    history.push_back(makeBundle(2, 1));
    history.push_back(makeBundle(2, 2)); // duplicate: dropped
    history.push_back(makeBundle(1, 3)); // regression: dropped
    history.push_back(makeBundle(5, 4));
    EXPECT_EQ(store.restore(std::move(history)), 2u);
    EXPECT_EQ(store.epoch(), 5u);
    EXPECT_EQ(store.current()->bundle.hints.size(), 4u);
}

TEST(HintStore, JournaledDeploymentsSurviveRestart)
{
    std::string path = "/tmp/whisper_test_store_journal.wal";
    std::remove(path.c_str());

    // First life: journal two accepted generations.
    {
        HintJournal journal;
        std::vector<VersionedHintBundle> replayed;
        ASSERT_TRUE(journal.open(path, replayed).ok());
        HintStore store;
        store.attachJournal(&journal);
        HintBundle g1, g2;
        g1.hints.resize(2);
        g2.hints.resize(6);
        ASSERT_TRUE(store.propose(g1, 0.91, 0.90));
        ASSERT_TRUE(store.propose(g2, 0.93, 0.91));
        EXPECT_EQ(store.epoch(), 2u);
    }

    // Second life: replay, restore, resume.
    {
        HintJournal journal;
        std::vector<VersionedHintBundle> replayed;
        ASSERT_TRUE(journal.open(path, replayed).ok());
        ASSERT_EQ(replayed.size(), 2u);
        HintStore store;
        ASSERT_EQ(store.restore(std::move(replayed)), 2u);
        store.attachJournal(&journal);
        EXPECT_EQ(store.epoch(), 2u);
        EXPECT_EQ(store.current()->bundle.hints.size(), 6u);

        HintBundle g3;
        g3.hints.resize(8);
        ASSERT_TRUE(store.propose(g3, 0.95, 0.93));
        EXPECT_EQ(store.epoch(), 3u);
    }

    std::vector<VersionedHintBundle> persisted =
        HintJournal::replay(path);
    ASSERT_EQ(persisted.size(), 3u);
    EXPECT_EQ(persisted[2].epoch, 3u);
    EXPECT_EQ(persisted[2].bundle.hints.size(), 8u);
    std::remove(path.c_str());
}

// --------------------------------------------------------------------
// Corrupt trace streams
// --------------------------------------------------------------------

TEST_F(FaultTest, CorruptFrameIsSkippedAndCounted)
{
    BranchTrace trace("kafka", 0);
    for (const BranchRecord &rec : kafkaRecords(0, 50'000))
        trace.append(rec);
    std::string path = "/tmp/whisper_test_corrupt_frame.whrt";
    ASSERT_TRUE(trace.save(path));

    // Corrupt every 2nd frame: roughly half the stream survives.
    ASSERT_TRUE(
        FaultInjector::instance().configure("flip-chunks=2,seed=11"));

    TraceStreamReader reader(path);
    ASSERT_TRUE(reader.valid());
    std::vector<BranchRecord> got, chunk;
    while (reader.readChunk(chunk, 10'000) > 0)
        got.insert(got.end(), chunk.begin(), chunk.end());
    std::remove(path.c_str());

    EXPECT_GT(reader.framesSkipped(), 0u);
    EXPECT_GT(reader.recordsSkipped(), 0u);
    EXPECT_GT(got.size(), 0u);
    EXPECT_EQ(got.size() + reader.recordsSkipped(), trace.size());
    EXPECT_GT(FaultInjector::instance().framesCorrupted(), 0u);
}

TEST_F(FaultTest, TransientReadErrorsAreRetried)
{
    BranchTrace trace("kafka", 0);
    for (const BranchRecord &rec : kafkaRecords(0, 20'000))
        trace.append(rec);
    std::string path = "/tmp/whisper_test_retry.whrt";
    ASSERT_TRUE(trace.save(path));

    ASSERT_TRUE(FaultInjector::instance().configure("fail-read=2"));

    TraceStreamReader reader(path);
    ASSERT_TRUE(reader.valid());
    std::vector<BranchRecord> got, chunk;
    while (reader.readChunk(chunk, 6'000) > 0)
        got.insert(got.end(), chunk.begin(), chunk.end());
    std::remove(path.c_str());

    // Retries absorbed the transient errors: nothing lost.
    EXPECT_EQ(got.size(), trace.size());
    EXPECT_GE(reader.readRetries(), 2u);
    EXPECT_EQ(reader.framesSkipped(), 0u);
}

TEST(TraceStream, TornTraceTailIsSkippedNotFatal)
{
    BranchTrace trace("kafka", 0);
    for (const BranchRecord &rec : kafkaRecords(0, 40'000))
        trace.append(rec);
    std::string path = "/tmp/whisper_test_torn_trace.whrt";
    ASSERT_TRUE(trace.save(path));
    long full = fileSize(path);
    truncateFile(path, full - 1000); // tear the last frame

    TraceStreamReader reader(path);
    ASSERT_TRUE(reader.valid());
    std::vector<BranchRecord> got, chunk;
    while (reader.readChunk(chunk, 16'384) > 0)
        got.insert(got.end(), chunk.begin(), chunk.end());
    std::remove(path.c_str());

    EXPECT_GT(got.size(), 0u);
    EXPECT_LT(got.size(), trace.size());
    EXPECT_GE(reader.framesSkipped(), 1u);
    EXPECT_EQ(got.size() + reader.recordsSkipped(), trace.size());
}

TEST(TraceStream, HostileRecordCountDoesNotAllocate)
{
    // A header claiming 2^60 records must be rejected by the
    // file-size cap, whose unit is the smallest (2-byte) record, not
    // drive a giant allocation.
    std::string path = "/tmp/whisper_test_hostile.whrt";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    uint32_t magic = BranchTrace::kFileMagic;
    uint32_t version = BranchTrace::kFileVersion;
    uint32_t nameLen = 1;
    uint32_t inputId = 0;
    uint64_t huge = 1ULL << 60;
    std::fwrite(&magic, sizeof magic, 1, f);
    std::fwrite(&version, sizeof version, 1, f);
    std::fwrite(&nameLen, sizeof nameLen, 1, f);
    std::fputc('x', f);
    std::fwrite(&inputId, sizeof inputId, 1, f);
    std::fwrite(&huge, sizeof huge, 1, f);
    std::fclose(f);

    BranchTrace t;
    IoStatus st = t.load(path);
    EXPECT_TRUE(st.corrupt());
    EXPECT_NE(st.message.find("record count"), std::string::npos);

    // Hostile per-frame count: capped by kMaxFrameRecords, the
    // streaming reader skips it rather than allocating.
    f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    uint32_t frameMagic = BranchTrace::kFrameMagic;
    uint32_t hugeCount = 0x7fffffff, bytes = 0x7fffffff, crc = 0;
    std::fwrite(&frameMagic, sizeof frameMagic, 1, f);
    std::fwrite(&hugeCount, sizeof hugeCount, 1, f);
    std::fwrite(&bytes, sizeof bytes, 1, f);
    std::fwrite(&crc, sizeof crc, 1, f);
    std::fclose(f);
    TraceStreamReader reader(path);
    ASSERT_TRUE(reader.valid());
    std::vector<BranchRecord> chunk;
    EXPECT_EQ(reader.readChunk(chunk, 1000), 0u);
    EXPECT_GE(reader.framesSkipped(), 1u);
    EXPECT_EQ(chunk.capacity(), 0u);
    std::remove(path.c_str());
}

TEST(TraceStream, MissingVsCorruptAreDistinguished)
{
    TraceStreamReader missing("/tmp/whisper_no_such_trace.whrt");
    EXPECT_FALSE(missing.valid());
    EXPECT_TRUE(missing.status().missing());

    std::string path = "/tmp/whisper_test_distinguish.whrt";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("definitely not a trace header", f);
    std::fclose(f);
    TraceStreamReader corrupt(path);
    EXPECT_FALSE(corrupt.valid());
    EXPECT_TRUE(corrupt.status().corrupt());
    std::remove(path.c_str());

    BranchTrace t;
    EXPECT_TRUE(t.load("/tmp/whisper_no_such_trace.whrt").missing());
    EXPECT_TRUE(t.load(path.c_str()).missing()); // removed above
}

// --------------------------------------------------------------------
// FaultInjector spec parsing
// --------------------------------------------------------------------

TEST_F(FaultTest, SpecParsing)
{
    FaultInjector &fi = FaultInjector::instance();
    std::string error;
    EXPECT_TRUE(fi.configure("", &error));
    EXPECT_FALSE(fi.enabled());

    EXPECT_TRUE(fi.configure(
        "flip-chunks=0.01,fail-read=3,truncate-journal,fail-train=1,"
        "seed=42",
        &error))
        << error;
    EXPECT_TRUE(fi.enabled());

    // An unknown token fails loudly instead of arming nothing.
    EXPECT_FALSE(fi.configure("no-such-fault", &error));
    EXPECT_NE(error.find("unknown fault token"), std::string::npos);
    EXPECT_FALSE(fi.enabled());
    // flip-chunks takes a whole period >= 1 or a rate in (0, 1).
    EXPECT_TRUE(fi.configure("flip-chunks=2", &error)) << error;
    EXPECT_TRUE(fi.configure("flip-chunks=1", &error)) << error;
    EXPECT_TRUE(fi.configure("flip-chunks=0.5", &error)) << error;
    EXPECT_TRUE(fi.configure("flip-chunks=1e-3", &error)) << error;
    for (const char *bad :
         {"flip-chunks=abc", "flip-chunks=2x", "flip-chunks=0",
          "flip-chunks=0.0", "flip-chunks=1.0", "flip-chunks=2.5",
          "flip-chunks=-0.5", "flip-chunks=0.5x", "flip-chunks=nan"}) {
        EXPECT_FALSE(fi.configure(bad, &error)) << bad;
        EXPECT_NE(error.find("flip-chunks: bad value"),
                  std::string::npos)
            << bad;
        EXPECT_FALSE(fi.enabled()) << bad;
    }
    // A training task runs once, so fail-train takes no attempt
    // count.
    EXPECT_FALSE(fi.configure("fail-train=0:2", &error));
    // Counts are whole numbers that fit in 64 bits: no sign, no
    // leading space, no saturation.
    for (const char *bad :
         {"fail-read=-1", "fail-read= 3", "fail-read=99999999999999999999",
          "wire-stall=-1:10", "flip-chunks=99999999999999999999"}) {
        EXPECT_FALSE(fi.configure(bad, &error)) << bad;
        EXPECT_NE(error.find("bad"), std::string::npos) << bad;
        EXPECT_FALSE(fi.enabled()) << bad;
    }
    EXPECT_TRUE(fi.configure("fail-read=18446744073709551615", &error))
        << error;
}

// --------------------------------------------------------------------
// Degraded training
// --------------------------------------------------------------------

TEST_F(FaultTest, RepeatedlyFailingBranchIsDegraded)
{
    ExperimentConfig ecfg;
    ecfg.trainRecords = 60'000;
    ecfg.profile.maxHardBranches = 32;
    BranchProfile profile = profileApp(appByName("kafka"), 0, ecfg);
    WhisperTrainer trainer(ecfg.whisper, globalTruthTables());
    std::vector<TrainedHint> serial = trainer.train(profile);

    // Work item 0 is the first hard branch the trainer considers.
    uint64_t failedPc = 0;
    for (const BranchProfileEntry *entry : profile.hardBranches()) {
        if (entry->baselineMispredicts >= ecfg.whisper.minMispredictions) {
            failedPc = entry->pc;
            break;
        }
    }
    std::vector<TrainedHint> expected;
    for (const TrainedHint &h : serial)
        if (h.pc != failedPc)
            expected.push_back(h);
    ASSERT_EQ(expected.size() + 1, serial.size())
        << "work item 0 must emit a hint for this test to bite";

    // Work item 0 throws: it runs once, is degraded to TAGE-SC-L
    // and every other branch trains as in the serial run.
    for (unsigned workers : {1u, 4u}) {
        ASSERT_TRUE(FaultInjector::instance().configure("fail-train"));
        TrainingStats stats;
        std::vector<TrainedHint> hints =
            trainer.train(profile, nullptr, &stats, workers);
        EXPECT_EQ(hints, expected) << workers << " workers";
        EXPECT_EQ(stats.branchesDegraded, 1u) << workers;
        EXPECT_EQ(FaultInjector::instance().trainFailures(), 1u)
            << workers;
    }
}

// --------------------------------------------------------------------
// whisperd end to end (a one-tenant TenantRouter): crash recovery and
// fault-injected runs
// --------------------------------------------------------------------

namespace
{

namespace fs = std::filesystem;

/** Write kafka chunks into @p dir as several .whrt files. */
void
writeChunkDir(const fs::path &dir, uint64_t perFile, int files)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (int i = 0; i < files; ++i) {
        BranchTrace t("kafka", static_cast<uint32_t>(i % 2));
        for (const BranchRecord &rec :
             kafkaRecords(static_cast<uint32_t>(i % 2), perFile))
            t.append(rec);
        char name[32];
        std::snprintf(name, sizeof name, "%03d_kafka.whrt", i);
        ASSERT_TRUE(t.save((dir / name).string()));
    }
}

/** A fresh, empty journal directory. */
void
resetJournalDir(const fs::path &journalDir)
{
    fs::remove_all(journalDir);
    fs::create_directories(journalDir);
}

TenantRouterConfig
demonConfig(const fs::path &journalDir)
{
    TenantRouterConfig cfg;
    cfg.chunkRecords = 12'000;
    cfg.epochChunks = 2;
    cfg.trainWorkers = 2;
    cfg.profilePolicy.maxHardBranches = 32;
    cfg.verbose = false;
    cfg.journalDir = journalDir.string();
    // Deploy every epoch so the test sees a deterministic number of
    // journaled generations regardless of validation noise.
    cfg.acceptMargin = -1.0;
    // The chunk files' app registers the tenant, as in whisperd's
    // default --tenants auto.
    cfg.autoRegister = true;
    return cfg;
}

} // namespace

TEST_F(FaultTest, WhisperdResumesFromJournalAfterCrash)
{
    fs::path dir = "/tmp/whisper_test_crash_dir";
    fs::path journalDir = "/tmp/whisper_test_crash_journal";
    std::string journal = (journalDir / "kafka.journal").string();
    resetJournalDir(journalDir);
    writeChunkDir(dir, 30'000, 3);

    // First life: deploy at least two epochs, journaled.
    uint64_t firstEpoch = 0;
    VersionedHintBundle lastDeployed;
    {
        TenantRouter router(demonConfig(journalDir),
                            globalTruthTables());
        router.run(dir.string());
        ASSERT_EQ(router.registry().size(), 1u);
        const Tenant *tenant = router.registry().find("kafka");
        ASSERT_NE(tenant, nullptr);
        ASSERT_NE(tenant->store.current(), nullptr);
        ASSERT_GE(tenant->store.epoch(), 2u)
            << "need >=2 deployed epochs for the crash test";
        firstEpoch = tenant->store.epoch();
        lastDeployed = *tenant->store.current();
        // No clean shutdown path is exercised: the router object is
        // simply destroyed, as after a crash (the journal is synced
        // per-append, so nothing depends on a destructor).
    }
    std::vector<VersionedHintBundle> beforeCrash =
        HintJournal::replay(journal);
    ASSERT_EQ(beforeCrash.size(), firstEpoch);
    EXPECT_TRUE(beforeCrash.back() == lastDeployed);

    // The crash tears the journal mid-record.
    long full = fileSize(journal);
    ASSERT_GT(full, 12);
    truncateFile(journal, full - 5);

    // Second life: registering the tenant replays its journal; it
    // must resume from the last *intact* epoch with a bit-identical
    // deployed bundle.
    {
        TenantRouter router(demonConfig(journalDir),
                            globalTruthTables());
        Tenant *tenant = router.addTenant("kafka");
        TenantMetrics resumed = tenant->metrics();
        EXPECT_EQ(resumed.journalResumedEpoch, firstEpoch - 1);
        EXPECT_EQ(resumed.journalRecoveredRecords, firstEpoch - 1);
        ASSERT_NE(tenant->store.current(), nullptr);

        // Re-derive what the first life deployed at that epoch from
        // the journal itself (pre-truncation it held everything).
        std::vector<VersionedHintBundle> replayed =
            HintJournal::replay(journal);
        ASSERT_EQ(replayed.size(), firstEpoch - 1);
        EXPECT_TRUE(*tenant->store.current() == replayed.back());
        EXPECT_TRUE(replayed.back() == beforeCrash[firstEpoch - 2]);

        // And it keeps operating: run more chunks, epochs continue
        // past the resumed number.
        router.run(dir.string());
        EXPECT_GT(tenant->store.epoch(), firstEpoch - 1);
    }

    fs::remove_all(dir);
    fs::remove_all(journalDir);
}

TEST_F(FaultTest, WhisperdSurvivesCombinedFaults)
{
    fs::path dir = "/tmp/whisper_test_faulty_dir";
    fs::path journalDir = "/tmp/whisper_test_faulty_journal";
    resetJournalDir(journalDir);
    writeChunkDir(dir, 30'000, 3);

    // The acceptance scenario: ~1% corrupt frames, a branch whose
    // training throws in every epoch, one torn journal write.
    ASSERT_TRUE(FaultInjector::instance().configure(
        "flip-chunks=0.01,fail-train,truncate-journal=1"));

    TenantRouter router(demonConfig(journalDir), globalTruthTables());
    router.run(dir.string());

    ServiceMetrics m = router.metrics();
    TenantMetrics all = m.all();
    const Tenant *tenant = router.registry().find("kafka");
    ASSERT_NE(tenant, nullptr);
    EXPECT_GE(all.epochsRun, 1u);
    EXPECT_GT(m.chunksSkipped, 0u);
    EXPECT_GT(m.recordsSkipped, 0u);
    // Every injected training failure degraded one branch, and every
    // degradation reached the metrics (a warm-fallback retrain's
    // included).
    EXPECT_GE(all.branchesDegraded, 1u);
    EXPECT_EQ(all.branchesDegraded,
              FaultInjector::instance().trainFailures());
    // The torn write shows up and was repaired on the next append.
    if (tenant->store.accepted() >= 2) {
        EXPECT_GE(all.journalAppendFailures, 1u);
        EXPECT_GE(all.journalRepairs, 1u);
    }
    // The journal still replays to exactly the durable generations.
    std::vector<VersionedHintBundle> replayed =
        HintJournal::replay((journalDir / "kafka.journal").string());
    for (size_t i = 1; i < replayed.size(); ++i)
        EXPECT_GT(replayed[i].epoch, replayed[i - 1].epoch);

    fs::remove_all(dir);
    fs::remove_all(journalDir);
}

TEST_F(FaultTest, WarmFallbackCountsBothPassesDegradedBranches)
{
    fs::path dir = "/tmp/whisper_test_fallback_dir";
    writeChunkDir(dir, 30'000, 3);

    // A margin of -1 sends every epoch with a warm hit back through a
    // cold retrain, and work item 0 throws in both passes: the epoch
    // must count both degradations, not just the cold pass's.
    ASSERT_TRUE(FaultInjector::instance().configure("fail-train"));
    TenantRouterConfig cfg = demonConfig("");
    cfg.warmFallbackMargin = -1.0;
    TenantRouter router(cfg, globalTruthTables());
    router.run(dir.string());

    TenantMetrics all = router.metrics().all();
    ASSERT_GE(all.warmFallbackEpochs, 1u);
    EXPECT_EQ(all.branchesDegraded,
              FaultInjector::instance().trainFailures());
    EXPECT_EQ(all.branchesDegraded,
              all.epochsRun + all.warmFallbackEpochs);

    fs::remove_all(dir);
}
