/**
 * @file
 * Unit tests of the statistics package.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "sim/stats.hh"

using namespace ecssd::sim;

TEST(Scalar, AccumulatesAndResets)
{
    Scalar s;
    EXPECT_EQ(s.value(), 0.0);
    s += 2.5;
    ++s;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.set(10.0);
    EXPECT_DOUBLE_EQ(s.value(), 10.0);
    s.reset();
    EXPECT_EQ(s.value(), 0.0);
}

TEST(Distribution, EmptyIsZero)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.min(), 0.0);
    EXPECT_EQ(d.max(), 0.0);
    EXPECT_EQ(d.variance(), 0.0);
}

TEST(Distribution, TracksMoments)
{
    Distribution d;
    for (const double v : {2.0, 4.0, 6.0, 8.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_DOUBLE_EQ(d.sum(), 20.0);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 8.0);
    EXPECT_DOUBLE_EQ(d.variance(), 5.0);
}

TEST(Distribution, SingleSample)
{
    Distribution d;
    d.sample(-3.0);
    EXPECT_DOUBLE_EQ(d.min(), -3.0);
    EXPECT_DOUBLE_EQ(d.max(), -3.0);
    EXPECT_DOUBLE_EQ(d.mean(), -3.0);
    EXPECT_DOUBLE_EQ(d.variance(), 0.0);
}

TEST(Distribution, ResetClears)
{
    Distribution d;
    d.sample(1.0);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.sum(), 0.0);
}

TEST(Histogram, BucketsSamplesCorrectly)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.sample(i + 0.5);
    for (std::size_t b = 0; b < 10; ++b)
        EXPECT_EQ(h.bucketCount(b), 1u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.totalSamples(), 10u);
}

TEST(Histogram, OutOfRangeGoesToUnderOverflow)
{
    Histogram h(0.0, 1.0, 4);
    h.sample(-0.1);
    h.sample(1.0); // hi is exclusive
    h.sample(5.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
}

TEST(Histogram, BucketLowIsLinear)
{
    Histogram h(10.0, 20.0, 5);
    EXPECT_DOUBLE_EQ(h.bucketLow(0), 10.0);
    EXPECT_DOUBLE_EQ(h.bucketLow(4), 18.0);
}

TEST(Histogram, BadShapePanics)
{
    EXPECT_THROW(Histogram(1.0, 1.0, 4), PanicError);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), PanicError);
}

TEST(Counter, AccumulatesAndResets)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c += 5;
    ++c;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, SaturatesInsteadOfWrapping)
{
    const std::uint64_t max = ~std::uint64_t(0);
    Counter c;
    c += max - 1;
    c += 5; // would wrap to 3
    EXPECT_EQ(c.value(), max);
    ++c; // stays pinned
    EXPECT_EQ(c.value(), max);
}

TEST(Histogram, EmptyQuantilesAreZero)
{
    Histogram h(0.0, 10.0, 10);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    EXPECT_EQ(h.p999(), 0.0);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
}

TEST(Histogram, SingleSampleQuantiles)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(3.2);
    // Every quantile of a single sample lands inside its bucket.
    EXPECT_GE(h.p50(), 3.0);
    EXPECT_LE(h.p50(), 4.0);
    EXPECT_GE(h.p999(), 3.0);
    EXPECT_LE(h.p999(), 4.0);
    EXPECT_DOUBLE_EQ(h.mean(), 3.2);
    EXPECT_DOUBLE_EQ(h.min(), 3.2);
    EXPECT_DOUBLE_EQ(h.max(), 3.2);
}

TEST(Histogram, QuantilesOfUniformRamp)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(i + 0.5);
    EXPECT_NEAR(h.p50(), 50.0, 1.0);
    EXPECT_NEAR(h.p95(), 95.0, 1.0);
    EXPECT_NEAR(h.p99(), 99.0, 1.0);
    // Quantiles are monotone in q.
    EXPECT_LE(h.p50(), h.p95());
    EXPECT_LE(h.p95(), h.p99());
    EXPECT_LE(h.p99(), h.p999());
}

TEST(Histogram, QuantileAttributesOutOfRangeToEdges)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(-5.0); // underflow
    h.sample(5.0);
    h.sample(50.0); // overflow
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);  // underflow -> lo
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0); // overflow -> hi
    EXPECT_DOUBLE_EQ(h.min(), -5.0);
    EXPECT_DOUBLE_EQ(h.max(), 50.0);
}

TEST(Histogram, BucketBoundarySamples)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(0.0); // first bucket, inclusive lo
    h.sample(9.999999);
    h.sample(10.0); // hi is exclusive -> overflow
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(9), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.underflow(), 0u);
}

TEST(Histogram, ResetClearsMoments)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(5.0);
    h.reset();
    EXPECT_EQ(h.totalSamples(), 0u);
    EXPECT_EQ(h.sum(), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0.0);
}
