/**
 * @file
 * Unit tests for the micro-architecture substrate: caches, BTB, and
 * the decoupled-frontend pipeline model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "bp/simple_predictors.hh"
#include "sim/experiment.hh"
#include "trace/branch_trace.hh"
#include "uarch/btb.hh"
#include "uarch/cache.hh"
#include "uarch/pipeline.hh"
#include "uarch/ras.hh"
#include "util/bits.hh"
#include "util/rng.hh"
#include "workloads/app_workload.hh"

#include "static_predictor.hh"

using namespace whisper;

TEST(Cache, HitAfterFill)
{
    Cache c(4096, 4);
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1010)); // same 64B line
    EXPECT_FALSE(c.access(0x2000));
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, LruEvictionWithinSet)
{
    // 2-way, 2 sets, 64B lines => 256B cache. Lines mapping to set
    // 0: multiples of 128.
    Cache c(256, 2);
    ASSERT_EQ(c.numSets(), 2u);
    c.access(0);     // set 0
    c.access(128);   // set 0
    c.access(0);     // refresh 0 -> 128 is LRU
    c.access(256);   // set 0, evicts 128
    EXPECT_TRUE(c.access(0));
    EXPECT_TRUE(c.access(256));
    EXPECT_FALSE(c.access(128));
}

TEST(Cache, CapacitySweepMonotone)
{
    // A working set of 1024 lines: a bigger cache must miss less.
    auto run = [](uint64_t bytes) {
        Cache c(bytes, 8);
        Rng rng(5);
        for (int i = 0; i < 50000; ++i)
            c.access((rng.nextBelow(1024)) * 64);
        return c.misses();
    };
    uint64_t small = run(16 * 1024);
    uint64_t medium = run(32 * 1024);
    uint64_t large = run(128 * 1024);
    EXPECT_GT(small, medium);
    EXPECT_GT(medium, large);
}

TEST(Cache, HierarchyLatencies)
{
    InstructionHierarchy::Config cfg;
    InstructionHierarchy h(cfg);
    // Cold: memory latency.
    EXPECT_EQ(h.fetch(0x8000), cfg.memLatency);
    // Now resident everywhere: L1 hit.
    EXPECT_EQ(h.fetch(0x8000), 0u);
}

TEST(Btb, LookupAfterUpdate)
{
    Btb btb(1024, 4);
    uint64_t target = 0;
    EXPECT_FALSE(btb.lookup(0x1234, target));
    btb.update(0x1234, 0x5678);
    EXPECT_TRUE(btb.lookup(0x1234, target));
    EXPECT_EQ(target, 0x5678u);
}

TEST(Btb, CapacityEviction)
{
    Btb small(64, 4);
    for (uint64_t i = 0; i < 1024; ++i)
        small.update(0x1000 + i * 16, i);
    uint64_t target = 0;
    unsigned resident = 0;
    for (uint64_t i = 0; i < 1024; ++i)
        if (small.lookup(0x1000 + i * 16, target))
            ++resident;
    EXPECT_LE(resident, 64u);
    EXPECT_GT(resident, 0u);
}

TEST(Btb, RetargetUpdates)
{
    Btb btb(256, 4);
    btb.update(0x10, 0x100);
    btb.update(0x10, 0x200);
    uint64_t target = 0;
    ASSERT_TRUE(btb.lookup(0x10, target));
    EXPECT_EQ(target, 0x200u);
}

namespace
{

/**
 * Reference replacement model for Cache and Btb, timestamp LRU: a
 * touch stamps the way it finds, and a fill takes the first invalid
 * way, else the way with the smallest stamp.
 */
struct ReferenceLru
{
    struct Way
    {
        uint64_t key = 0;
        uint64_t value = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    ReferenceLru(uint64_t sets, unsigned ways)
        : ways(ways), table(sets * ways)
    {
    }

    Way *
    find(uint64_t set, uint64_t key)
    {
        for (unsigned w = 0; w < ways; ++w) {
            Way &way = table[set * ways + w];
            if (way.valid && way.key == key)
                return &way;
        }
        return nullptr;
    }

    Way *
    touch(uint64_t set, uint64_t key)
    {
        Way *way = find(set, key);
        if (way)
            way->lastUse = ++clock;
        return way;
    }

    void
    fill(uint64_t set, uint64_t key, uint64_t value)
    {
        Way *first = &table[set * ways];
        Way *victim = first;
        for (Way *way = first; way != first + ways; ++way) {
            if (!way->valid) {
                victim = way;
                break;
            }
            if (way->lastUse < victim->lastUse)
                victim = way;
        }
        *victim = {key, value, ++clock, true};
    }

    unsigned ways;
    std::vector<Way> table;
    uint64_t clock = 0;
};

/**
 * An address over twice the capacity of @p lines lines: half the
 * draws from a hot eighth of it, so sets both hit and evict.
 */
uint64_t
drawAddress(Rng &rng, uint64_t lines)
{
    uint64_t span = rng.nextBool(0.5) ? lines / 4 + 1 : 2 * lines;
    return rng.nextBelow(span) * 64 + rng.nextBelow(64);
}

} // namespace

TEST(Cache, MatchesTimestampLruReference)
{
    for (auto [sets, ways] : {std::pair<uint64_t, unsigned>{2, 2},
                              {64, 8}, {8192, 20}}) {
        SCOPED_TRACE(testing::Message() << sets << "x" << ways);
        uint64_t lines = sets * ways, refHits = 0;
        Cache cache(lines * 64, ways);
        ReferenceLru ref(sets, ways);
        Rng rng(17 + ways);
        uint64_t accesses = std::max<uint64_t>(20000, 4 * lines);
        for (uint64_t i = 0; i < accesses; ++i) {
            uint64_t addr = drawAddress(rng, lines), line = addr / 64;
            bool hit = ref.touch(line % sets, line) != nullptr;
            if (!hit)
                ref.fill(line % sets, line, 0);
            refHits += hit;
            ASSERT_EQ(cache.access(addr), hit) << i;
        }
        EXPECT_EQ(cache.hits(), refHits);
        EXPECT_EQ(cache.misses(), accesses - refHits);
        EXPECT_GT(refHits, 0u);
        EXPECT_GT(accesses - refHits, lines);
        // A sweep over every line: each access must hit exactly when
        // the reference still holds the line.
        for (uint64_t line = 0; line < 2 * lines; ++line) {
            bool hit = ref.touch(line % sets, line) != nullptr;
            if (!hit)
                ref.fill(line % sets, line, 0);
            ASSERT_EQ(cache.access(line * 64), hit) << line;
        }
    }
}

TEST(Btb, MatchesTimestampLruReference)
{
    for (unsigned entries : {256u, 8192u}) {
        SCOPED_TRACE(testing::Message() << entries << " entries");
        uint64_t sets = entries / 4, refHits = 0;
        Btb btb(entries, 4);
        ReferenceLru ref(sets, 4);
        Rng rng(29 + entries);
        for (int i = 0; i < 200000; ++i) {
            uint64_t pc = 0x400000 + drawAddress(rng, entries) / 16;
            uint64_t set = pcIndexBits(pc) % sets, got = 0;
            auto *way = ref.touch(set, pc);
            refHits += way != nullptr;
            ASSERT_EQ(btb.lookup(pc, got), way != nullptr) << i;
            if (way) {
                ASSERT_EQ(got, way->value) << i;
            }
            if (rng.nextBool(0.7)) {
                // Four targets per pc: frequent re-targets.
                uint64_t target = pc * 2 + rng.nextBelow(4);
                btb.update(pc, target);
                if (auto *w = ref.touch(set, pc))
                    w->value = target;
                else
                    ref.fill(set, pc, target);
            }
        }
        EXPECT_EQ(btb.hits(), refHits);
        EXPECT_EQ(btb.misses(), 200000 - refHits);
        EXPECT_GT(refHits, 0u);
        EXPECT_GT(200000 - refHits, entries);
    }
}

namespace
{

/** A tight loop trace: perfectly predictable, tiny footprint. */
BranchTrace
loopTrace(int iterations)
{
    BranchTrace t("loop", 0);
    for (int i = 0; i < iterations; ++i) {
        BranchRecord rec;
        rec.pc = 0x1000;
        rec.target = 0x0F80;
        rec.kind = BranchKind::Conditional;
        rec.taken = true;
        rec.instGap = 5;
        t.append(rec);
    }
    return t;
}

/** Random-direction trace over a large code footprint. */
BranchTrace
hostileTrace(int n)
{
    BranchTrace t("hostile", 0);
    Rng rng(9);
    for (int i = 0; i < n; ++i) {
        BranchRecord rec;
        rec.pc = 0x400000 + rng.nextBelow(1 << 20) * 64;
        rec.target = 0x400000 + rng.nextBelow(1 << 20) * 64;
        rec.kind = BranchKind::Conditional;
        rec.taken = rng.nextBool(0.5);
        rec.instGap = 5;
        t.append(rec);
    }
    return t;
}

} // namespace

TEST(Pipeline, IdealLoopNearsFetchWidth)
{
    BranchTrace trace = loopTrace(20000);
    TraceSource src(trace);
    IdealPredictor ideal;
    PipelineModel model;
    PipelineStats stats = model.run(src, ideal);
    EXPECT_EQ(stats.mispredicts, 0u);
    // Warm loop with no stalls: IPC should reach the width-plus-
    // backend-CPI ceiling.
    double ceiling =
        1.0 / (1.0 / model.config().fetchWidth +
               model.config().backendCpi);
    EXPECT_GT(stats.ipc(), 0.95 * ceiling);
    EXPECT_EQ(stats.instructions, 20000u * 6);
}

TEST(Pipeline, MispredictionsCostCycles)
{
    BranchTrace trace = hostileTrace(20000);
    {
        TraceSource src(trace);
        IdealPredictor ideal;
        PipelineModel model;
        auto good = model.run(src, ideal);

        TraceSource src2(trace);
        StaticPredictor poor(true);
        auto bad = PipelineModel().run(src2, poor);

        EXPECT_GT(bad.mispredicts, 8000u);
        EXPECT_GT(bad.squashCycles, 0.0);
        EXPECT_LT(bad.ipc(), good.ipc());
    }
}

TEST(Pipeline, FrontendStallsTrackFootprintAndAccuracy)
{
    // With random directions the frontend cannot run ahead, so the
    // huge footprint's I-cache misses surface as frontend stalls;
    // an ideal predictor hides most of them via FDIP.
    BranchTrace trace = hostileTrace(30000);
    TraceSource src(trace);
    StaticPredictor poor(true);
    auto bad = PipelineModel().run(src, poor);
    EXPECT_GT(bad.frontendStallCycles, 0.0);

    TraceSource src2(trace);
    IdealPredictor ideal;
    auto good = PipelineModel().run(src2, ideal);
    EXPECT_LT(good.frontendStallCycles, bad.frontendStallCycles);
}

TEST(Pipeline, BtbMissesCharged)
{
    BranchTrace trace = hostileTrace(20000);
    TraceSource src(trace);
    IdealPredictor ideal;
    auto stats = PipelineModel().run(src, ideal);
    // 2^20 distinct branch PCs >> 8192-entry BTB.
    EXPECT_GT(stats.btbMisses, 1000u);
    EXPECT_GT(stats.btbStallCycles, 0.0);
}

TEST(Pipeline, StatsArithmetic)
{
    PipelineStats s;
    s.instructions = 1000;
    s.baseCycles = 200;
    s.squashCycles = 50;
    s.frontendStallCycles = 30;
    s.btbStallCycles = 20;
    s.mispredicts = 7;
    EXPECT_DOUBLE_EQ(s.cycles(), 300.0);
    EXPECT_NEAR(s.ipc(), 1000.0 / 300.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.mpki(), 7.0);
}

TEST(ReturnAddressStack, PushPopLifo)
{
    ReturnAddressStack ras(8);
    ras.push(0x100);
    ras.push(0x200);
    ras.push(0x300);
    EXPECT_EQ(ras.depth(), 3u);
    EXPECT_EQ(ras.pop(), 0x300u);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
    EXPECT_EQ(ras.depth(), 0u);
}

TEST(ReturnAddressStack, UnderflowPredictsZero)
{
    ReturnAddressStack ras(4);
    EXPECT_EQ(ras.pop(), 0u);
    ras.push(0x10);
    EXPECT_EQ(ras.pop(), 0x10u);
    EXPECT_EQ(ras.pop(), 0u);
}

TEST(ReturnAddressStack, OverflowWrapsOldest)
{
    ReturnAddressStack ras(2);
    ras.push(0x1);
    ras.push(0x2);
    ras.push(0x3); // overwrites 0x1
    EXPECT_EQ(ras.pop(), 0x3u);
    EXPECT_EQ(ras.pop(), 0x2u);
    // The overwritten entry is gone; depth is exhausted.
    EXPECT_EQ(ras.pop(), 0u);
}

TEST(ReturnAddressStack, ResetClears)
{
    ReturnAddressStack ras(4);
    ras.push(0xAA);
    ras.reset();
    EXPECT_EQ(ras.depth(), 0u);
    EXPECT_EQ(ras.pop(), 0u);
}

TEST(IndirectBtb, LearnsStableTarget)
{
    IndirectBtb ibtb(1024);
    // With a stable path context, a fixed target is predicted
    // correctly after one observation.
    ibtb.update(0x5000, 0x9000);
    // Context advanced by the update; retrain once in new context.
    uint64_t second = ibtb.predict(0x5000);
    ibtb.update(0x5000, 0x9000);
    (void)second;
    int correct = 0;
    for (int i = 0; i < 16; ++i) {
        if (ibtb.predict(0x5000) == 0x9000)
            ++correct;
        ibtb.update(0x5000, 0x9000);
    }
    EXPECT_GE(correct, 14);
}

TEST(IndirectBtb, ResetForgets)
{
    IndirectBtb ibtb(256);
    ibtb.update(0x40, 0x999);
    ibtb.reset();
    EXPECT_EQ(ibtb.predict(0x40), 0u);
}

TEST(Pipeline, RasCoversWorkloadReturns)
{
    // The synthetic apps emit matched call/return pairs; the RAS
    // must predict nearly all returns (no deep recursion).
    AppWorkload wl(appByName("kafka"), 0, 60000);
    IdealPredictor ideal;
    PipelineModel model;
    PipelineStats stats = model.run(wl, ideal);
    EXPECT_GT(stats.branches, 0u);
    EXPECT_LT(static_cast<double>(stats.rasMisses),
              0.02 * stats.branches);
}

TEST(Pipeline, IndirectDispatchExercisesIbtb)
{
    // Request-entry dispatch sites jump to many handler targets:
    // the IBTB must see traffic, mispredict sometimes, but stay
    // well below chance thanks to path history.
    AppWorkload wl(appByName("mysql"), 0, 120000);
    uint64_t indirects = 0;
    BranchRecord rec;
    while (wl.next(rec))
        if (rec.kind == BranchKind::Indirect)
            ++indirects;
    ASSERT_GT(indirects, 100u);

    wl.rewind();
    IdealPredictor ideal;
    PipelineStats stats = PipelineModel().run(wl, ideal);
    EXPECT_GT(stats.indirectMisses, 0u);
    EXPECT_LT(stats.indirectMisses, indirects);
}

namespace
{

/** Every PipelineStats counter, then each cycle component's bits. */
std::array<uint64_t, 13>
flatten(const PipelineStats &s)
{
    return {s.instructions, s.branches, s.conditionals,
            s.mispredicts, s.btbMisses, s.rasMisses,
            s.indirectMisses, s.l1iMisses,
            std::bit_cast<uint64_t>(s.baseCycles),
            std::bit_cast<uint64_t>(s.squashCycles),
            std::bit_cast<uint64_t>(s.frontendStallCycles),
            std::bit_cast<uint64_t>(s.btbStallCycles),
            std::bit_cast<uint64_t>(s.indirectStallCycles)};
}

} // namespace

TEST(Pipeline, GoldenStats)
{
    // Pinned outcome of the model on the first 200k records of mysql
    // input 1, recorded with timestamp-LRU sets (ReferenceLru's rule):
    // any change to hit/miss order or to the cycle arithmetic shows
    // here, bit for bit.
    AppWorkload wl(appByName("mysql"), 1, 200000);
    IdealPredictor ideal;
    std::array<uint64_t, 13> idealGolden = {
        1804333, 200000, 182871, 0, 30751, 0, 1088, 64745,
        0x4130fa600444445dull, 0x0ull, 0x4126c00aaaaaaaaeull,
        0x410685d000000000ull, 0x40cfe00000000000ull};
    EXPECT_EQ(flatten(PipelineModel().run(wl, ideal)), idealGolden);

    auto tage = makeTage(64);
    std::array<uint64_t, 13> tageGolden = {
        1804333, 200000, 182871, 21089, 30751, 0, 1088, 64745,
        0x4130fa600444445dull, 0x41134ebc00000000ull,
        0x4131817755555532ull, 0x410685d000000000ull,
        0x40cfe00000000000ull};
    EXPECT_EQ(flatten(PipelineModel().run(wl, *tage)), tageGolden);
}
