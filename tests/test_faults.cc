/**
 * @file
 * Fault-injection tests: read retries slow reads down without
 * breaking correctness; erase failures grow the bad-block list
 * while the FTL keeps serving; uncorrectable reads propagate from
 * the flash array through the FTL and pipeline up to the server,
 * which degrades gracefully instead of aborting.
 */

#include <gtest/gtest.h>

#include "ecssd/server.hh"
#include "ecssd/system.hh"
#include "sim/rng.hh"
#include "ssdsim/flash.hh"
#include "ssdsim/ftl.hh"

using namespace ecssd;
using namespace ecssd::ssdsim;

TEST(Faults, ReadRetriesAreCountedAndCostTime)
{
    SsdConfig clean = smallTestConfig();
    SsdConfig faulty = clean;
    faulty.readRetryRate = 0.5;

    FlashArray good(clean);
    FlashArray bad(faulty);
    sim::Tick good_done = 0, bad_done = 0;
    for (unsigned p = 0; p < 64; ++p) {
        const PhysicalPage ppa{0, 0, 0, 0, p % clean.pagesPerBlock};
        good_done = std::max(good_done, good.readPage(ppa, 0));
        bad_done = std::max(bad_done, bad.readPage(ppa, 0));
    }
    EXPECT_EQ(good.channelStats(0).readRetries, 0u);
    EXPECT_GT(bad.channelStats(0).readRetries, 10u);
    EXPECT_LT(bad.channelStats(0).readRetries, 64u);
    EXPECT_GT(bad_done, good_done);
}

TEST(Faults, RetryRateZeroIsDeterministicBaseline)
{
    const SsdConfig c = smallTestConfig();
    FlashArray a(c), b(c);
    const PhysicalPage ppa{1, 0, 0, 2, 3};
    EXPECT_EQ(a.readPage(ppa, 0), b.readPage(ppa, 0));
}

TEST(Faults, EraseFailuresRetireBlocks)
{
    SsdConfig config = smallTestConfig();
    config.eraseFailureRate = 0.02; // realistic wear-out rate
    FlashArray flash(config);
    Ftl ftl(config, flash);

    // Churn hard enough to force many GC erases.
    sim::Tick now = 0;
    for (int round = 0; round < 4000; ++round)
        now = ftl.write(round % 8, now);
    EXPECT_GT(ftl.stats().badBlocks, 0u);
    // Despite retirements, the mapping stays intact.
    for (LogicalPage lpa = 0; lpa < 8; ++lpa)
        EXPECT_TRUE(ftl.translate(lpa).has_value());
}

TEST(Faults, TotalWearOutIsAFatalUserCondition)
{
    SsdConfig config = smallTestConfig();
    config.eraseFailureRate = 0.6; // pathological: blocks die fast
    FlashArray flash(config);
    Ftl ftl(config, flash);
    sim::Tick now = 0;
    EXPECT_THROW(
        {
            for (int round = 0; round < 100000; ++round)
                now = ftl.write(round % 8, now);
        },
        sim::FatalError);
    EXPECT_GT(ftl.stats().badBlocks, 5u);
}

TEST(Faults, NoFailuresMeansNoBadBlocks)
{
    SsdConfig config = smallTestConfig();
    FlashArray flash(config);
    Ftl ftl(config, flash);
    sim::Tick now = 0;
    for (int round = 0; round < 1000; ++round)
        now = ftl.write(round % 8, now);
    EXPECT_EQ(ftl.stats().badBlocks, 0u);
}

TEST(Faults, UncorrectableReadsAreCountedAndFlagged)
{
    SsdConfig config = smallTestConfig();
    config.uncorrectableReadRate = 0.5;
    FlashArray clean(smallTestConfig());
    FlashArray worn(config);

    unsigned flagged = 0;
    sim::Tick clean_done = 0, worn_done = 0;
    for (unsigned p = 0; p < 64; ++p) {
        const PhysicalPage ppa{0, 0, 0, 0,
                               p % config.pagesPerBlock};
        clean_done =
            std::max(clean_done, clean.readPage(ppa, 0));
        bool uncorrectable = false;
        worn_done = std::max(
            worn_done,
            worn.readPage(ppa, 0, 0, 0, &uncorrectable));
        flagged += uncorrectable ? 1 : 0;
    }
    EXPECT_EQ(clean.channelStats(0).uncorrectableReads, 0u);
    EXPECT_EQ(worn.channelStats(0).uncorrectableReads, flagged);
    EXPECT_GT(flagged, 10u);
    EXPECT_LT(flagged, 64u);
    // The exhausted retry ladder costs die time.
    EXPECT_GT(worn_done, clean_done);
}

TEST(Faults, FtlSurfacesUncorrectableReads)
{
    SsdConfig config = smallTestConfig();
    config.uncorrectableReadRate = 0.3;
    FlashArray flash(config);
    Ftl ftl(config, flash);

    sim::Tick now = 0;
    for (LogicalPage lpa = 0; lpa < 32; ++lpa)
        now = ftl.write(lpa, now);

    unsigned flagged = 0;
    for (int round = 0; round < 4; ++round) {
        for (LogicalPage lpa = 0; lpa < 32; ++lpa) {
            bool uncorrectable = false;
            now = ftl.read(lpa, now, &uncorrectable);
            flagged += uncorrectable ? 1 : 0;
        }
    }
    EXPECT_GT(flagged, 0u);
    EXPECT_EQ(ftl.stats().uncorrectableReads, flagged);
    // The legacy nullptr path still counts the failure.
    const std::uint64_t before = ftl.stats().uncorrectableReads;
    for (int round = 0; round < 8; ++round)
        for (LogicalPage lpa = 0; lpa < 32; ++lpa)
            now = ftl.read(lpa, now);
    EXPECT_GT(ftl.stats().uncorrectableReads, before);
}

TEST(Faults, ZeroFaultRatesDegradeNothing)
{
    // With every fault rate at 0 no page is lost, no row degrades
    // and no batch fails.
    const xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("XMLCNN-S10M"), 16384);
    const accel::RunResult run =
        EcssdSystem(spec, EcssdOptions::full()).runInference(2);
    EXPECT_EQ(run.uncorrectablePages, 0u);
    EXPECT_EQ(run.degradedRows, 0u);
    for (const accel::BatchTiming &batch : run.batches)
        EXPECT_FALSE(batch.failed);
}

TEST(Faults, ScreenerFallbackDegradesRowsWithoutAborting)
{
    // The acceptance scenario: a realistic 1e-3 uncorrectable rate
    // keeps serving — degraded rows, zero aborted batches.
    const xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("XMLCNN-S10M"), 16384);
    EcssdOptions worn = EcssdOptions::full();
    worn.ssd.uncorrectableReadRate = 1e-3;

    const accel::RunResult run =
        EcssdSystem(spec, worn).runInference(8);
    EXPECT_GT(run.uncorrectablePages, 0u);
    EXPECT_GT(run.degradedRows, 0u);
    ASSERT_EQ(run.batches.size(), 8u);
    for (const accel::BatchTiming &batch : run.batches)
        EXPECT_FALSE(batch.failed);
    // Degradation is bounded: only a tiny fraction of the fetched
    // rows lost their FP32 page.
    std::uint64_t fetched = 0;
    for (const accel::BatchTiming &batch : run.batches)
        fetched += batch.candidateRows;
    EXPECT_LT(run.degradedRows * 20, fetched);
}

TEST(Faults, ServerReportsDegradedResponses)
{
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 1024);
    spec.hiddenDim = 128;
    spec.batchSize = 4;
    const xclass::SyntheticModel model(spec, 1);

    EcssdOptions worn = EcssdOptions::full();
    worn.ssd.uncorrectableReadRate = 0.05;
    InferenceServer server(model.weights(), spec, worn,
                           &model.basis());

    sim::Rng rng(11);
    for (int request = 0; request < 16; ++request)
        server.enqueue(model.sampleQuery(rng));
    const auto responses = server.processAll(5);
    ASSERT_EQ(responses.size(), 16u);

    unsigned degraded = 0;
    for (const auto &response : responses) {
        EXPECT_EQ(response.prediction.topCategories.size(), 5u);
        degraded += response.status
                == InferenceServer::Response::Status::Degraded
            ? 1
            : 0;
    }
    EXPECT_GT(degraded, 0u);
    EXPECT_EQ(server.serverStats().degradedResponses, degraded);
    EXPECT_GT(server.serverStats().degradedRows, 0u);
    EXPECT_EQ(server.serverStats().shedRequests, 0u);
}

TEST(Faults, RetriesDegradeInferenceGracefully)
{
    const xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("XMLCNN-S10M"), 16384);
    EcssdOptions clean = EcssdOptions::full();
    EcssdOptions worn = EcssdOptions::full();
    worn.ssd.readRetryRate = 0.2;

    const double clean_ms =
        EcssdSystem(spec, clean).runInference(1).meanBatchMs();
    const double worn_ms =
        EcssdSystem(spec, worn).runInference(1).meanBatchMs();
    EXPECT_GT(worn_ms, clean_ms);
    // 20% retries at tR/transfer ~ 12 cost well under 2x.
    EXPECT_LT(worn_ms, clean_ms * 2.0);
}
