/**
 * @file
 * Unit tests for src/util: bits, RNG, histograms, stats, tables.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/bits.hh"
#include "util/histogram.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace whisper;

TEST(Bits, MaskBits)
{
    EXPECT_EQ(maskBits(0), 0u);
    EXPECT_EQ(maskBits(1), 1u);
    EXPECT_EQ(maskBits(8), 0xFFu);
    EXPECT_EQ(maskBits(64), ~0ULL);
}

TEST(Bits, BitsOf)
{
    EXPECT_EQ(bitsOf(0xABCD, 0, 4), 0xDu);
    EXPECT_EQ(bitsOf(0xABCD, 4, 4), 0xCu);
    EXPECT_EQ(bitsOf(0xABCD, 8, 8), 0xABu);
}

TEST(Bits, PowersOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(48));
}

TEST(Bits, Logs)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
}

TEST(Bits, Mix64Distinct)
{
    std::set<uint64_t> seen;
    for (uint64_t i = 0; i < 1000; ++i)
        seen.insert(mix64(i));
    EXPECT_EQ(seen.size(), 1000u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(7);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        sawLo |= v == -3;
        sawHi |= v == 3;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    RunningStat st;
    double sumSq = 0.0;
    for (int i = 0; i < 20000; ++i) {
        double x = rng.nextGaussian(2.0);
        st.add(x);
        sumSq += x * x;
    }
    EXPECT_NEAR(st.mean(), 0.0, 0.05);
    EXPECT_NEAR(std::sqrt(sumSq / st.count() - st.mean() * st.mean()),
                2.0, 0.1);
}

TEST(Rng, PermutationIsPermutation)
{
    Rng rng(17);
    auto p = rng.permutation(100);
    std::set<uint32_t> s(p.begin(), p.end());
    EXPECT_EQ(s.size(), 100u);
    EXPECT_EQ(*s.begin(), 0u);
    EXPECT_EQ(*s.rbegin(), 99u);
}

TEST(Rng, ShuffleDeterministic)
{
    std::vector<int> a{1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> b = a;
    Rng r1(5), r2(5);
    r1.shuffle(a);
    r2.shuffle(b);
    EXPECT_EQ(a, b);
}

TEST(BucketHistogram, Buckets)
{
    BucketHistogram h({8, 16, 32});
    h.add(1);
    h.add(8);
    h.add(9);
    h.add(33, 5);
    EXPECT_EQ(h.numBuckets(), 4u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 0u);
    EXPECT_EQ(h.bucketCount(3), 5u);
    EXPECT_EQ(h.total(), 8u);
    EXPECT_DOUBLE_EQ(h.bucketFraction(3), 5.0 / 8.0);
}

TEST(BucketHistogram, Labels)
{
    BucketHistogram h({8, 16});
    EXPECT_EQ(h.bucketLabel(0), "0-8");
    EXPECT_EQ(h.bucketLabel(1), "9-16");
    EXPECT_EQ(h.bucketLabel(2), "16+");
}

TEST(CountHistogram, TopFraction)
{
    CountHistogram h;
    h.add(1, 60);
    h.add(2, 30);
    h.add(3, 10);
    EXPECT_DOUBLE_EQ(h.topFraction(1), 0.6);
    EXPECT_DOUBLE_EQ(h.topFraction(2), 0.9);
    EXPECT_DOUBLE_EQ(h.topFraction(10), 1.0);
    EXPECT_EQ(h.numKeys(), 3u);
}

TEST(RunningStat, Moments)
{
    RunningStat st;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        st.add(v);
    EXPECT_EQ(st.count(), 4u);
    EXPECT_DOUBLE_EQ(st.mean(), 2.5);
    EXPECT_DOUBLE_EQ(st.max(), 4.0);
    EXPECT_DOUBLE_EQ(st.sum(), 10.0);
}

TEST(Stats, SpeedupPercent)
{
    EXPECT_NEAR(speedupPercent(110, 100), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(speedupPercent(100, 100), 0.0);
}

TEST(Table, RendersRows)
{
    TableReporter t("demo");
    t.setHeader({"app", "x", "y"});
    t.addRow("alpha", {1.234, 5.678});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("1.23"), std::string::npos);
}
