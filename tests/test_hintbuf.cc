/**
 * @file
 * Differential and golden tests for the last-use-stamp HintBuffer
 * against LegacyHintBuffer, the std::list + std::unordered_map
 * reference model of an LRU buffer (the layout HintBuffer replaced),
 * defined in this file.
 *
 * The HintBuffer claims *exact* LRU-equivalence: same hit/miss
 * outcomes, same eviction victims, same recency order, same
 * counters, for any access script. The golden scripts pin specific
 * known-tricky sequences (eviction order, refresh-vs-insert
 * accounting, clear() semantics); the randomized property tests
 * replay long scripts against both implementations and assert
 * observable-state equality after every operation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "core/hint_buffer.hh"
#include "util/rng.hh"

namespace whisper
{

/** The list+map LRU that HintBuffer replaced, kept as its reference:
 * same interface and counter semantics (a refresh is not an
 * insertion; clear() keeps the counters). Front of the list = MRU. */
class LegacyHintBuffer
{
  public:
    explicit LegacyHintBuffer(unsigned entries) : capacity_(entries) {}

    const BrHint *
    lookup(uint64_t pc)
    {
        const BrHint *hint = touch(pc);
        ++(hint ? hits_ : misses_);
        return hint;
    }

    void
    insert(uint64_t pc, const BrHint &hint)
    {
        if (BrHint *resident = touch(pc)) {
            ++refreshes_;
            *resident = hint;
            return;
        }
        if (map_.size() == capacity_) {
            ++evictions_;
            map_.erase(lru_.back().first);
            lru_.pop_back();
        }
        ++insertions_;
        lru_.emplace_front(pc, hint);
        map_[pc] = lru_.begin();
    }

    void
    clear()
    {
        lru_.clear();
        map_.clear();
    }

    void
    resetStats()
    {
        hits_ = misses_ = insertions_ = refreshes_ = evictions_ = 0;
    }

    std::vector<uint64_t>
    lruOrder() const
    {
        std::vector<uint64_t> order;
        for (const auto &[pc, hint] : lru_)
            order.push_back(pc);
        return order;
    }

    unsigned capacity() const { return capacity_; }
    size_t size() const { return map_.size(); }
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t insertions() const { return insertions_; }
    uint64_t refreshes() const { return refreshes_; }
    uint64_t evictions() const { return evictions_; }

  private:
    using Lru = std::list<std::pair<uint64_t, BrHint>>;

    /** The resident hint of @p pc, moved to MRU; nullptr if absent. */
    BrHint *
    touch(uint64_t pc)
    {
        auto it = map_.find(pc);
        if (it == map_.end())
            return nullptr;
        lru_.splice(lru_.begin(), lru_, it->second);
        return &lru_.front().second;
    }

    unsigned capacity_;
    Lru lru_;
    std::unordered_map<uint64_t, Lru::iterator> map_;
    uint64_t hits_ = 0, misses_ = 0, insertions_ = 0, refreshes_ = 0,
             evictions_ = 0;
};

} // namespace whisper

using namespace whisper;

namespace
{

BrHint
hintFor(uint64_t pc)
{
    BrHint h;
    h.historyIdx = static_cast<uint8_t>(pc & 0xF);
    h.formula = static_cast<uint16_t>((pc * 0x9E37u) & 0x7FFF);
    h.bias = static_cast<HintBias>(pc % 3);
    h.pcPointer = BrHint::pcPointerFor(pc);
    return h;
}

/** Assert every observable of the two buffers matches. */
template <typename A, typename B>
void
expectSameState(A &buf, B &legacy, const char *where)
{
    EXPECT_EQ(buf.size(), legacy.size()) << where;
    EXPECT_EQ(buf.hits(), legacy.hits()) << where;
    EXPECT_EQ(buf.misses(), legacy.misses()) << where;
    EXPECT_EQ(buf.insertions(), legacy.insertions()) << where;
    EXPECT_EQ(buf.refreshes(), legacy.refreshes()) << where;
    EXPECT_EQ(buf.evictions(), legacy.evictions()) << where;
    ASSERT_EQ(buf.lruOrder(), legacy.lruOrder()) << where;
}

} // namespace

// ---------------------------------------------------------------
// Golden script: a fixed access sequence with hand-checked expected
// state at each step. Run against BOTH implementations so a future
// change to either one that shifts eviction order or accounting
// fails loudly.
// ---------------------------------------------------------------

template <typename Buffer>
class HintBufferGolden : public ::testing::Test
{
};

using BufferImpls = ::testing::Types<HintBuffer, LegacyHintBuffer>;
TYPED_TEST_SUITE(HintBufferGolden, BufferImpls);

TYPED_TEST(HintBufferGolden, LruEvictionScript)
{
    TypeParam buf(3);
    ASSERT_EQ(buf.capacity(), 3u);

    // Fill: 10, 20, 30 -> MRU order 30, 20, 10.
    buf.insert(0x10, hintFor(0x10));
    buf.insert(0x20, hintFor(0x20));
    buf.insert(0x30, hintFor(0x30));
    EXPECT_EQ(buf.size(), 3u);
    EXPECT_EQ(buf.insertions(), 3u);
    EXPECT_EQ(buf.lruOrder(),
              (std::vector<uint64_t>{0x30, 0x20, 0x10}));

    // Touch 10: it becomes MRU; LRU is now 20.
    ASSERT_NE(buf.lookup(0x10), nullptr);
    EXPECT_EQ(buf.lruOrder(),
              (std::vector<uint64_t>{0x10, 0x30, 0x20}));

    // Insert 40: victim must be 20 (the LRU), not 10.
    buf.insert(0x40, hintFor(0x40));
    EXPECT_EQ(buf.evictions(), 1u);
    EXPECT_EQ(buf.lruOrder(),
              (std::vector<uint64_t>{0x40, 0x10, 0x30}));
    EXPECT_EQ(buf.lookup(0x20), nullptr) << "victim still resident";

    // Re-insert resident 30: refresh, not insertion, no eviction.
    buf.insert(0x30, hintFor(0x99));
    EXPECT_EQ(buf.insertions(), 4u);
    EXPECT_EQ(buf.refreshes(), 1u);
    EXPECT_EQ(buf.evictions(), 1u);
    EXPECT_EQ(buf.lruOrder(),
              (std::vector<uint64_t>{0x30, 0x40, 0x10}));
    // The refresh rewrote the payload.
    const BrHint *h = buf.lookup(0x30);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(*h, hintFor(0x99));

    // Insert 50, 60: victims in exact LRU order (10 then 40).
    buf.insert(0x50, hintFor(0x50));
    EXPECT_EQ(buf.lookup(0x10), nullptr);
    buf.insert(0x60, hintFor(0x60));
    EXPECT_EQ(buf.lookup(0x40), nullptr);
    EXPECT_EQ(buf.evictions(), 3u);
    EXPECT_EQ(buf.lruOrder(),
              (std::vector<uint64_t>{0x60, 0x50, 0x30}));
}

TYPED_TEST(HintBufferGolden, ClearKeepsCountersResetStatsZeroes)
{
    TypeParam buf(2);
    buf.insert(1, hintFor(1));
    buf.insert(2, hintFor(2));
    buf.insert(3, hintFor(3)); // evicts 1
    buf.lookup(2);             // hit
    buf.lookup(1);             // miss

    EXPECT_EQ(buf.insertions(), 3u);
    EXPECT_EQ(buf.evictions(), 1u);
    EXPECT_EQ(buf.hits(), 1u);
    EXPECT_EQ(buf.misses(), 1u);

    // clear() models a hint-bundle redeploy: the buffer empties but
    // cumulative service counters survive.
    buf.clear();
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_TRUE(buf.lruOrder().empty());
    EXPECT_EQ(buf.insertions(), 3u);
    EXPECT_EQ(buf.evictions(), 1u);
    EXPECT_EQ(buf.hits(), 1u);
    EXPECT_EQ(buf.misses(), 1u);
    EXPECT_EQ(buf.lookup(2), nullptr) << "cleared entry resident";
    EXPECT_EQ(buf.misses(), 2u);

    buf.resetStats();
    EXPECT_EQ(buf.hits(), 0u);
    EXPECT_EQ(buf.misses(), 0u);
    EXPECT_EQ(buf.insertions(), 0u);
    EXPECT_EQ(buf.refreshes(), 0u);
    EXPECT_EQ(buf.evictions(), 0u);
}

TYPED_TEST(HintBufferGolden, CapacityOneDegenerate)
{
    TypeParam buf(1);
    buf.insert(7, hintFor(7));
    buf.insert(8, hintFor(8));
    EXPECT_EQ(buf.size(), 1u);
    EXPECT_EQ(buf.evictions(), 1u);
    EXPECT_EQ(buf.lookup(7), nullptr);
    ASSERT_NE(buf.lookup(8), nullptr);
    buf.insert(8, hintFor(8));
    EXPECT_EQ(buf.refreshes(), 1u);
    EXPECT_EQ(buf.evictions(), 1u);
}

// ---------------------------------------------------------------
// Randomized differential property: both implementations replay the
// same script and must agree on every observable after every op.
// ---------------------------------------------------------------

TEST(HintBufDifferential, RandomScriptsMatchLegacy)
{
    for (unsigned capacity : {1u, 2u, 3u, 8u, 32u, 64u, 128u}) {
        HintBuffer buf(capacity);
        LegacyHintBuffer legacy(capacity);
        // PC pool ~3x capacity so lookups mix hits and misses and
        // inserts regularly evict.
        uint64_t pcPool = 3 * capacity + 2;
        Rng rng(0xC0FFEE + capacity);

        for (int op = 0; op < 20000; ++op) {
            uint64_t pc = 0x4000 + rng.nextBelow(
                static_cast<uint32_t>(pcPool)) * 0x40;
            switch (rng.nextBelow(8)) {
              case 0:
              case 1:
              case 2: { // insert
                BrHint h = hintFor(pc + op % 3);
                buf.insert(pc, h);
                legacy.insert(pc, h);
                break;
              }
              case 7: // rare clear
                if (op % 977 == 0) {
                    buf.clear();
                    legacy.clear();
                    break;
                }
                [[fallthrough]];
              default: { // lookup
                const BrHint *a = buf.lookup(pc);
                const BrHint *b = legacy.lookup(pc);
                ASSERT_EQ(a == nullptr, b == nullptr)
                    << "hit/miss diverged at op " << op;
                if (a) {
                    ASSERT_EQ(*a, *b) << "payload diverged at op "
                                      << op;
                }
                break;
              }
            }
            if (op % 64 == 0)
                expectSameState(buf, legacy, "periodic");
        }
        expectSameState(buf, legacy, "final");
    }
}

// Adversarial keys: a small pool of PCs that share their low bits,
// hammered with inserts and lookups over a capacity-4 buffer, so
// inserts often evict and recency order churns constantly.
// Neither implementation depends on key values, so any slip in
// victim choice or stamp bookkeeping shows up as a divergence. (The
// name is kept from a hashed table whose backward-shift deletion
// this script once targeted.)
TEST(HintBufDifferential, CollidingKeysStressBackwardShift)
{
    HintBuffer buf(4);
    LegacyHintBuffer legacy(4);
    Rng rng(42);

    for (int op = 0; op < 20000; ++op) {
        // 6 distinct keys over a capacity-4 buffer.
        uint64_t pc = 0x1000 + (rng.nextBelow(6) << 3);
        if (rng.nextBool(0.5)) {
            BrHint h = hintFor(pc);
            buf.insert(pc, h);
            legacy.insert(pc, h);
        } else {
            const BrHint *a = buf.lookup(pc);
            const BrHint *b = legacy.lookup(pc);
            ASSERT_EQ(a == nullptr, b == nullptr) << "op " << op;
        }
        expectSameState(buf, legacy, "colliding");
    }
}
