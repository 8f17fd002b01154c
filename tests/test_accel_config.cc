/**
 * @file
 * AccelConfig sizing tests and candidate-source behaviour.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "accel/accel_config.hh"
#include "accel/candidate_source.hh"

using namespace ecssd;
using namespace ecssd::accel;

TEST(AccelConfig, DefaultIsTheTable2AlignmentFreeDesign)
{
    const AccelConfig config;
    EXPECT_EQ(config.fp32Macs(), 64u);
    EXPECT_NEAR(config.fp32Gflops(), 51.2, 1e-9);
    EXPECT_NEAR(config.int4Gops(), 204.8, 1e-9);
    EXPECT_EQ(config.int4WeightBufferBytes, 128u * 1024u);
}

TEST(AccelConfig, NaiveKindFitsFewerMacsInTheSameArea)
{
    AccelConfig config;
    config.fpKind = circuit::FpMacKind::Naive;
    EXPECT_LT(config.fp32Macs(), 64u);
    EXPECT_LT(config.fp32Gflops(), 32.0); // below the stream rate
}

TEST(AccelConfig, SkHynixKindSitsBetween)
{
    AccelConfig naive;
    naive.fpKind = circuit::FpMacKind::Naive;
    AccelConfig skh;
    skh.fpKind = circuit::FpMacKind::SkHynix;
    const AccelConfig af;
    EXPECT_GT(skh.fp32Macs(), naive.fp32Macs());
    EXPECT_LT(skh.fp32Macs(), af.fp32Macs());
}

TEST(AccelConfig, OverridesWinOverDerivedRates)
{
    AccelConfig config;
    config.fp32GflopsOverride = 12.5;
    config.int4GopsOverride = 99.0;
    EXPECT_DOUBLE_EQ(config.fp32Gflops(), 12.5);
    EXPECT_DOUBLE_EQ(config.int4Gops(), 99.0);
}

TEST(AccelConfig, FrequencyScalesThroughput)
{
    AccelConfig slow;
    slow.frequencyHz = 200e6;
    EXPECT_NEAR(slow.fp32Gflops(), 25.6, 1e-9);
}

TEST(AllRowsSource, EnumeratesEverything)
{
    AllRowsSource source(100);
    EXPECT_EQ(source.rows(), 100u);
    const std::vector<std::uint64_t> batch = source.nextBatch();
    ASSERT_EQ(batch.size(), 100u);
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_EQ(batch[i], i);
    // Every batch is the same full sweep.
    EXPECT_EQ(source.nextBatch(), batch);
}

TEST(ListSource, CyclesThroughBatches)
{
    ListSource source(10, {{1, 2}, {3, 4, 5}});
    EXPECT_EQ(source.rows(), 10u);
    EXPECT_EQ(source.nextBatch(),
              (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(source.nextBatch(),
              (std::vector<std::uint64_t>{3, 4, 5}));
    EXPECT_EQ(source.nextBatch(),
              (std::vector<std::uint64_t>{1, 2}));
}

TEST(ListSource, EmptyListYieldsEmptyBatches)
{
    ListSource source(10, {});
    EXPECT_TRUE(source.nextBatch().empty());
}

TEST(TraceSource, DrawsFromTheConfiguredSpec)
{
    const xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("XMLCNN-S10M"), 10000);
    TraceSource source(spec, 3);
    EXPECT_EQ(source.rows(), spec.categories);
    const std::vector<std::uint64_t> batch = source.nextBatch();
    EXPECT_NEAR(static_cast<double>(batch.size()),
                spec.candidateRatio * spec.categories,
                0.05 * spec.categories);
    for (const std::uint64_t row : batch)
        EXPECT_LT(row, spec.categories);
}

TEST(TraceSource, DifferentSeedsDifferentTails)
{
    const xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("XMLCNN-S10M"), 10000);
    TraceSource a(spec, 1), b(spec, 2);
    EXPECT_NE(a.nextBatch(), b.nextBatch());
}
