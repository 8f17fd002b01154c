/**
 * @file
 * Wear-lifecycle tests: the erase-count/retention error model, the
 * determinism guarantee for zero-coefficient configurations,
 * end-of-life read-only mode, configuration validation, and the
 * HealthReport exported through the SSD front end.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ssdsim/flash.hh"
#include "ssdsim/ftl.hh"
#include "ssdsim/ssd.hh"

using namespace ecssd;
using namespace ecssd::ssdsim;

namespace
{

/** Single-pool geometry: end-of-life behaviour is easiest to pin
 *  down when one pool owns every block. */
SsdConfig
singlePoolConfig()
{
    SsdConfig config = smallTestConfig();
    config.channels = 1;
    config.diesPerChannel = 1;
    config.planesPerDie = 1;
    return config;
}

} // namespace

// --- Config validation -------------------------------------------------

TEST(WearConfig, ValidateRejectsBadGeometry)
{
    SsdConfig config = smallTestConfig();
    config.channels = 0;
    EXPECT_THROW(config.validate(), sim::FatalError);

    config = smallTestConfig();
    config.pagesPerBlock = 0;
    EXPECT_THROW(config.validate(), sim::FatalError);
}

TEST(WearConfig, ValidateRejectsOutOfRangeRates)
{
    SsdConfig config = smallTestConfig();
    config.uncorrectableReadRate = 1.5;
    EXPECT_THROW(config.validate(), sim::FatalError);

    config = smallTestConfig();
    config.readRetryRate = -0.1;
    EXPECT_THROW(config.validate(), sim::FatalError);

    config = smallTestConfig();
    config.wearErrorCoefficient = -1.0;
    EXPECT_THROW(config.validate(), sim::FatalError);
}

TEST(WearConfig, ValidateRejectsBornReadOnlyEol)
{
    SsdConfig config = smallTestConfig();
    config.eolSpareBlocks = config.blocksPerPlane;
    EXPECT_THROW(config.validate(), sim::FatalError);
}

TEST(WearConfig, ValidateAcceptsDefaultsAndWearSetups)
{
    EXPECT_NO_THROW(SsdConfig{}.validate());
    EXPECT_NO_THROW(smallTestConfig().validate());

    SsdConfig wear = smallTestConfig();
    wear.wearErrorCoefficient = 1e-4;
    wear.retentionErrorCoefficient = 1e-3;
    wear.eolSpareBlocks = 2;
    EXPECT_NO_THROW(wear.validate());
}

// --- The error model ---------------------------------------------------

TEST(WearModel, PredictedRateGrowsWithEraseCountAndAge)
{
    SsdConfig config = smallTestConfig();
    config.uncorrectableReadRate = 1e-4;
    config.wearErrorCoefficient = 1e-2;
    config.wearRatedCycles = 100.0;
    config.retentionErrorCoefficient = 1e-3;

    const double fresh = config.predictedUncorrectableRate(0, 0);
    EXPECT_DOUBLE_EQ(fresh, 1e-4);

    const double worn = config.predictedUncorrectableRate(100, 0);
    EXPECT_NEAR(worn, 1e-4 + 1e-2, 1e-9);

    const double aged = config.predictedUncorrectableRate(
        0, sim::seconds(10.0));
    EXPECT_NEAR(aged, 1e-4 + 1e-2, 1e-9);

    // Superlinear in erase count (default exponent 2).
    const double half = config.predictedUncorrectableRate(50, 0);
    EXPECT_LT(half - fresh, (worn - fresh) / 2.0);

    // Clamped at certainty.
    EXPECT_DOUBLE_EQ(
        config.predictedUncorrectableRate(1000000, 0), 1.0);
}

TEST(WearModel, ZeroCoefficientsMatchFlatModelExactly)
{
    EXPECT_FALSE(smallTestConfig().wearModelEnabled());
    SsdConfig config = smallTestConfig();
    config.uncorrectableReadRate = 0.3;
    EXPECT_EQ(config.predictedUncorrectableRate(5000, sim::seconds(
                  1000.0)),
              config.uncorrectableReadRate);
}

TEST(WearModel, FlashTracksEraseCountsAndRetention)
{
    SsdConfig config = smallTestConfig();
    config.retentionErrorCoefficient = 1e-3; // enables tracking
    FlashArray flash(config);
    const PhysicalPage ppa{0, 0, 0, 3, 0};

    EXPECT_EQ(flash.blockEraseCount(ppa), 0u);
    flash.eraseBlock(ppa, 0);
    flash.eraseBlock(ppa, 0);
    EXPECT_EQ(flash.blockEraseCount(ppa), 2u);

    // A never-programmed block ages from deployment (tick 0).
    EXPECT_EQ(flash.retentionAge(ppa, sim::seconds(5.0)),
              sim::seconds(5.0));
    // Programming stamps the block; erasing resets the stamp.
    const sim::Tick programmed_at =
        flash.programPage(ppa, sim::seconds(5.0));
    EXPECT_LT(
        flash.retentionAge(ppa, programmed_at + sim::seconds(1.0)),
        sim::seconds(2.0));
    flash.eraseBlock(ppa, programmed_at + sim::seconds(1.0));
    EXPECT_EQ(flash.blockEraseCount(ppa), 3u);
}

TEST(WearModel, WornBlocksFlagMoreUncorrectableReads)
{
    SsdConfig config = smallTestConfig();
    config.wearErrorCoefficient = 1.0;
    config.wearRatedCycles = 50.0;
    FlashArray flash(config);

    const PhysicalPage worn{0, 0, 0, 0, 0};
    const PhysicalPage fresh{0, 0, 0, 1, 0};
    for (int e = 0; e < 60; ++e)
        flash.eraseBlock(worn, 0);

    unsigned worn_failures = 0, fresh_failures = 0;
    for (unsigned p = 0; p < 32; ++p) {
        bool uncorrectable = false;
        flash.readPage({0, 0, 0, 0, p % config.pagesPerBlock}, 0, 0,
                       0, &uncorrectable);
        worn_failures += uncorrectable ? 1 : 0;
        uncorrectable = false;
        flash.readPage({0, 0, 0, 1, p % config.pagesPerBlock}, 0, 0,
                       0, &uncorrectable);
        fresh_failures += uncorrectable ? 1 : 0;
    }
    // (60/50)^2 > 1 clamps the worn block to certain failure; the
    // fresh block has zero probability.
    EXPECT_EQ(worn_failures, 32u);
    EXPECT_EQ(fresh_failures, 0u);
    EXPECT_GE(config.predictedUncorrectableRate(
                  flash.blockEraseCount(worn),
                  flash.retentionAge(worn, 0)),
              1.0);
    EXPECT_EQ(config.predictedUncorrectableRate(
                  flash.blockEraseCount(fresh),
                  flash.retentionAge(fresh, 0)),
              0.0);
}

TEST(WearModel, ZeroCoefficientTimelineIsBitIdentical)
{
    // The flat fault model and the wear model with zero coefficients
    // must produce the exact same draw sequence and ticks, whatever
    // the inactive shape knobs are set to.
    SsdConfig flat = smallTestConfig();
    flat.uncorrectableReadRate = 0.25;
    flat.readRetryRate = 0.1;
    SsdConfig shaped = flat;
    shaped.wearExponent = 7.0;
    shaped.wearRatedCycles = 11.0;
    shaped.eolMediaErrorRate = 0.5;

    FlashArray a(flat), b(shaped);
    sim::Tick ta = 0, tb = 0;
    for (unsigned p = 0; p < 128; ++p) {
        const PhysicalPage ppa{p % 4, 0, 0, p % 16,
                               p % flat.pagesPerBlock};
        bool fa = false, fb = false;
        ta = a.readPage(ppa, ta, 0, 0, &fa);
        tb = b.readPage(ppa, tb, 0, 0, &fb);
        ASSERT_EQ(ta, tb) << "timelines diverged at read " << p;
        ASSERT_EQ(fa, fb) << "fault draws diverged at read " << p;
    }
    EXPECT_EQ(a.channelStats(0).uncorrectableReads,
              b.channelStats(0).uncorrectableReads);
}

// --- End of life -------------------------------------------------------

TEST(EndOfLife, DeviceTurnsReadOnlyInsteadOfDying)
{
    SsdConfig config = singlePoolConfig();
    config.eraseFailureRate = 0.4; // blocks retire fast
    FlashArray flash(config);
    Ftl ftl(config, flash);

    sim::Tick now = 0;
    bool rejected = false;
    int writes = 0;
    while (!rejected && writes < 200000) {
        now = ftl.write(writes % 8, now, &rejected);
        ++writes;
    }
    ASSERT_TRUE(rejected) << "device never reached end of life";
    EXPECT_TRUE(ftl.readOnly());
    EXPECT_GT(ftl.stats().badBlocks, 0u);
    EXPECT_GT(ftl.stats().rejectedWrites, 0u);

    // Read-only means reads still work...
    for (LogicalPage lpa = 0; lpa < 8; ++lpa) {
        if (ftl.translate(lpa).has_value())
            now = ftl.read(lpa, now);
    }
    // ...further writes are rejected without side effects...
    const std::uint64_t host_writes = ftl.stats().hostWrites;
    bool again = false;
    EXPECT_EQ(ftl.write(0, now, &again), now);
    EXPECT_TRUE(again);
    EXPECT_EQ(ftl.stats().hostWrites, host_writes);
    // ...and the legacy nullptr path turns the rejection fatal.
    EXPECT_THROW(ftl.write(0, now), sim::FatalError);
}

TEST(EndOfLife, SpareThresholdTripsBeforeExhaustion)
{
    // With eolSpareBlocks set, the device goes read-only while it
    // still has spares (GC stuck + low spares), not only at hard
    // exhaustion.
    SsdConfig config = singlePoolConfig();
    config.eolSpareBlocks = 2;
    FlashArray flash(config);
    Ftl ftl(config, flash);

    // Fill the entire logical space with valid data: GC has nothing
    // stale to reclaim, so the pool runs down to its spares.
    sim::Tick now = 0;
    bool rejected = false;
    for (LogicalPage lpa = 0; lpa < ftl.logicalPages() && !rejected;
         ++lpa)
        now = ftl.write(lpa, now, &rejected);
    // Keep appending fresh pages until the guard trips.
    for (int extra = 0; extra < 1000 && !rejected; ++extra)
        now = ftl.write(extra % 4, now, &rejected);

    EXPECT_TRUE(ftl.readOnly());
    const HealthReport report = ftl.healthReport(now);
    EXPECT_TRUE(report.readOnly);
    EXPECT_EQ(report.lifeRemaining, 0.0);
}

// --- Health report -----------------------------------------------------

TEST(HealthReport, HistogramCoversEveryBlock)
{
    const SsdConfig config = smallTestConfig();
    FlashArray flash(config);
    Ftl ftl(config, flash);
    const std::uint64_t total =
        static_cast<std::uint64_t>(config.channels)
        * config.diesPerChannel * config.planesPerDie
        * config.blocksPerPlane;

    sim::Tick now = 0;
    for (int round = 0; round < 2000; ++round)
        now = ftl.write(round % 24, now);
    for (LogicalPage lpa = 0; lpa < 24; ++lpa)
        now = ftl.read(lpa, now);

    const HealthReport report = ftl.healthReport(now);
    std::uint64_t histogram_blocks = 0;
    for (const auto &[count, blocks] : report.eraseHistogram)
        histogram_blocks += blocks;
    EXPECT_EQ(histogram_blocks, total);
    EXPECT_LE(report.minEraseCount, report.maxEraseCount);
    EXPECT_GE(report.meanEraseCount,
              static_cast<double>(report.minEraseCount));
    EXPECT_LE(report.meanEraseCount,
              static_cast<double>(report.maxEraseCount));
    EXPECT_EQ(report.maxEraseCount - report.minEraseCount,
              ftl.eraseCountSpread());
    EXPECT_GT(report.mediaReads, 0u); // GC relocation reads
}

TEST(HealthReport, LifeEstimateIsMonotoneNonIncreasing)
{
    SsdConfig config = smallTestConfig();
    config.wearErrorCoefficient = 1e-2;
    config.wearRatedCycles = 200.0;
    config.retentionErrorCoefficient = 1e-6;
    config.eraseFailureRate = 0.01;
    FlashArray flash(config);
    Ftl ftl(config, flash);

    sim::Tick now = 0;
    double last_life = 1.0;
    for (int epoch = 0; epoch < 20; ++epoch) {
        for (int round = 0; round < 400; ++round)
            now = ftl.write(round % 16, now);
        const HealthReport report = ftl.healthReport(now);
        EXPECT_LE(report.lifeRemaining, last_life)
            << "life estimate recovered at epoch " << epoch;
        EXPECT_GE(report.lifeRemaining, 0.0);
        last_life = report.lifeRemaining;
    }
    // Sustained churn genuinely consumed life.
    EXPECT_LT(last_life, 1.0);
}

TEST(HealthReport, MediaErrorTrendTracksObservedFailures)
{
    SsdConfig config = smallTestConfig();
    config.uncorrectableReadRate = 0.2;
    FlashArray flash(config);
    Ftl ftl(config, flash);

    sim::Tick now = 0;
    for (LogicalPage lpa = 0; lpa < 16; ++lpa)
        now = ftl.write(lpa, now);
    for (int round = 0; round < 8; ++round)
        for (LogicalPage lpa = 0; lpa < 16; ++lpa)
            now = ftl.read(lpa, now);

    const HealthReport report = ftl.healthReport(now);
    EXPECT_GT(report.mediaUncorrectable, 0u);
    EXPECT_GT(report.observedErrorRate, 0.0);
    EXPECT_LT(report.observedErrorRate, 1.0);
    EXPECT_NEAR(report.observedErrorRate, 0.2, 0.15);
}

TEST(HealthReport, ExportedThroughTheSsdFrontEnd)
{
    SsdConfig config = smallTestConfig();
    config.retentionErrorCoefficient = 1e-3;
    SsdDevice ssd(config);

    sim::Tick done = 0;
    for (LogicalPage lpa = 0; lpa < 16; ++lpa)
        done = std::max(done, ssd.hostWrite(lpa, 0));
    ASSERT_GT(done, 0u);

    // After a long retention gap the SMART report predicts the aged
    // media's error rate.
    const sim::Tick later = done + sim::seconds(60.0);
    const HealthReport report = ssd.health(later);
    EXPECT_EQ(report.capturedAt, later);
    EXPECT_FALSE(report.readOnly);
    EXPECT_GT(report.spareBlocks, 0u);
    EXPECT_GT(report.predictedErrorRate, 0.0);
}
