/**
 * @file
 * Out-of-core streaming weight deploy tests: bit-for-bit placement
 * equivalence with the host-resident greedy build (with and without
 * spilled runs), enforced host-byte boundedness across row counts —
 * including the 10M-row scale the pipeline exists for — overdraft
 * enforcement, and the API-level entry point.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ecssd/api.hh"
#include "ecssd/streaming_deploy.hh"
#include "layout/strategy.hh"
#include "sim/rng.hh"
#include "xclass/screening.hh"
#include "xclass/workload.hh"

using namespace ecssd;

namespace
{

xclass::BenchmarkSpec
smallSpec(std::uint64_t categories = 4096, unsigned hidden = 64)
{
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), categories);
    spec.hiddenDim = hidden;
    return spec;
}

/** The host-resident reference build of the placement. */
std::unique_ptr<layout::LearningAdaptiveLayout>
hostResidentLayout(const xclass::SyntheticModel &model,
                   const xclass::BenchmarkSpec &spec,
                   unsigned channels, std::uint64_t seed)
{
    const xclass::Screener screener(model.weights(), spec, seed);
    return layout::LearningAdaptiveLayout::build(
        screener.rowAbsMasses(), channels);
}

void
expectIdenticalPlacement(const layout::LayoutStrategy &a,
                         const layout::LayoutStrategy &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.channels(), b.channels());
    for (std::uint64_t row = 0; row < a.rows(); ++row) {
        ASSERT_EQ(a.channelOf(row), b.channelOf(row))
            << "channel diverges at row " << row;
        ASSERT_EQ(a.dieSlotOf(row), b.dieSlotOf(row))
            << "die slot diverges at row " << row;
        ASSERT_EQ(a.hotDegreeOf(row), b.hotDegreeOf(row))
            << "hot grade diverges at row " << row;
    }
}

} // namespace

TEST(StreamingDeploy, UnlimitedBudgetMatchesHostResidentBuild)
{
    const xclass::BenchmarkSpec spec = smallSpec();
    const xclass::SyntheticModel model(spec, 7);
    const unsigned channels = 8;
    ssdsim::SsdConfig ssd = ssdsim::smallTestConfig();
    ssd.channels = channels;

    const auto reference =
        hostResidentLayout(model, spec, channels, 7);

    const MatrixRowSource source(model.weights());
    StreamingDeployConfig config;
    config.seed = 7;
    const StreamingDeployResult outcome = streamingWeightDeploy(
        source, spec.shrunkDim(), channels, ssd, config);

    ASSERT_NE(outcome.layout, nullptr);
    EXPECT_EQ(outcome.runsSpilled, 0u);
    EXPECT_GT(outcome.hostPeakBytes, 0u);
    EXPECT_GT(outcome.deployTime, 0u);
    expectIdenticalPlacement(*reference, *outcome.layout);
}

TEST(StreamingDeploy, SpilledMergeMatchesHostResidentBuild)
{
    const xclass::BenchmarkSpec spec = smallSpec();
    const xclass::SyntheticModel model(spec, 11);
    const unsigned channels = 8;
    ssdsim::SsdConfig ssd = ssdsim::smallTestConfig();
    ssd.channels = channels;

    const auto reference =
        hostResidentLayout(model, spec, channels, 11);

    const MatrixRowSource source(model.weights());
    StreamingDeployConfig config;
    config.seed = 11;

    // Calibrate a budget that forces external sorting: the
    // unlimited run shows the fixed overhead (everything except the
    // run buffer, which is rows * 16 bytes when unlimited), and a
    // budget of fixed + 40 KiB leaves room for only ~1280-record
    // runs — several spills for 4096 rows.
    const StreamingDeployResult unlimited = streamingWeightDeploy(
        source, spec.shrunkDim(), channels, ssd, config);
    const std::uint64_t fixed =
        unlimited.hostPeakBytes - spec.categories * 16ULL;
    config.hostBudgetBytes = fixed + (40ULL << 10);

    const StreamingDeployResult outcome = streamingWeightDeploy(
        source, spec.shrunkDim(), channels, ssd, config);

    ASSERT_NE(outcome.layout, nullptr);
    EXPECT_GE(outcome.runsSpilled, 2u);
    EXPECT_GT(outcome.spillPagesWritten, 0u);
    EXPECT_EQ(outcome.spillPagesRead, outcome.spillPagesWritten);
    EXPECT_LE(outcome.hostPeakBytes, config.hostBudgetBytes);
    expectIdenticalPlacement(*reference, *outcome.layout);
}

TEST(StreamingDeploy, HighWaterStaysUnderBudgetAcrossRowCounts)
{
    const ssdsim::SsdConfig ssd = ssdsim::smallTestConfig();
    const std::uint64_t budget = 600ULL << 10;
    for (const std::uint64_t rows :
         {5000ULL, 20000ULL, 80000ULL}) {
        const SyntheticRowSource source(rows, 16, 3);
        StreamingDeployConfig config;
        config.hostBudgetBytes = budget;
        config.seed = 3;
        const StreamingDeployResult outcome = streamingWeightDeploy(
            source, 8, ssd.channels, ssd, config);
        ASSERT_NE(outcome.layout, nullptr);
        EXPECT_EQ(outcome.rowsPlaced, rows);
        EXPECT_EQ(outcome.layout->rows(), rows);
        // The contract: the accounting allocator never saw more
        // than the budget in flight.
        EXPECT_LE(outcome.hostPeakBytes, budget)
            << "rows=" << rows;
    }
}

TEST(StreamingDeploy, TenMillionRowsBoundedByBudget)
{
    // The scale the pipeline exists for: a 10M-row synthetic layer
    // whose hotness vector alone (8 bytes x 10M for build()'s input,
    // plus the sort) would dwarf the budget.  Narrow rows keep the
    // functional work cheap; the boundedness claim is about bytes,
    // not FLOPs.
    const std::uint64_t rows = 10'000'000;
    const SyntheticRowSource source(rows, 8, 5);
    const ssdsim::SsdConfig ssd = ssdsim::smallTestConfig();
    StreamingDeployConfig config;
    config.hostBudgetBytes = 48ULL << 20;
    config.seed = 5;

    const StreamingDeployResult outcome = streamingWeightDeploy(
        source, 4, ssd.channels, ssd, config);

    ASSERT_NE(outcome.layout, nullptr);
    EXPECT_EQ(outcome.rowsPlaced, rows);
    EXPECT_EQ(outcome.layout->rows(), rows);
    EXPECT_GE(outcome.runsSpilled, 2u);
    EXPECT_LE(outcome.hostPeakBytes, config.hostBudgetBytes);
    EXPECT_GT(outcome.deployTime, 0u);
}

TEST(StreamingDeploy, OverdraftDiesWithNamedError)
{
    // 1 MiB of rows cannot even hold the 3-bytes-per-row placement
    // under a 16 KiB ceiling: the accounting allocator must refuse,
    // not thrash.
    const SyntheticRowSource source(1 << 20, 8, 1);
    const ssdsim::SsdConfig ssd = ssdsim::smallTestConfig();
    StreamingDeployConfig config;
    config.hostBudgetBytes = 16ULL << 10;
    EXPECT_THROW(streamingWeightDeploy(source, 4, ssd.channels,
                                       ssd, config),
                 sim::FatalError);
}

TEST(StreamingDeploy, ApiStreamingDeployServesLikeClassic)
{
    const xclass::BenchmarkSpec spec = smallSpec();
    const xclass::SyntheticModel model(spec, 1);

    EcssdOptions options;
    options.ssd = ssdsim::smallTestConfig();
    options.ssd.channels = 8;

    const auto predict = [&](EcssdApi &api) {
        sim::Rng rng(9);
        const std::vector<float> query = model.sampleQuery(rng);
        InferenceSession session = api.beginInference();
        EXPECT_EQ(session.sendInt4(query), Status::Ok);
        EXPECT_EQ(session.sendCfp32(query), Status::Ok);
        EXPECT_EQ(session.screen(), Status::Ok);
        EXPECT_EQ(session.classify(), Status::Ok);
        xclass::ApproximateClassifier::Prediction prediction;
        EXPECT_EQ(session.results(5, prediction), Status::Ok);
        return prediction;
    };

    EcssdApi unbudgeted(options);
    unbudgeted.ecssdEnable();
    unbudgeted.weightDeploy(model.weights(), spec);
    ASSERT_NE(unbudgeted.streamingDeploy(), nullptr);
    EXPECT_EQ(unbudgeted.streamingDeploy()->runsSpilled, 0u);
    const auto unbudgeted_pred = predict(unbudgeted);

    options.deployHostBudgetBytes = 64ULL << 10;
    EcssdApi budgeted(options);
    budgeted.ecssdEnable();
    const sim::Tick deploy =
        budgeted.weightDeploy(model.weights(), spec);
    EXPECT_GT(deploy, 0u);

    const StreamingDeployResult *outcome = budgeted.streamingDeploy();
    ASSERT_NE(outcome, nullptr);
    EXPECT_GE(outcome->runsSpilled, 2u);
    EXPECT_LE(outcome->hostPeakBytes,
              options.deployHostBudgetBytes);
    EXPECT_EQ(outcome->rowsPlaced, spec.categories);

    // Same weights, same seed, bit-identical placement: the two
    // deploys must serve identical predictions.
    const auto budgeted_pred = predict(budgeted);
    EXPECT_EQ(unbudgeted_pred.topCategories,
              budgeted_pred.topCategories);
    EXPECT_EQ(unbudgeted_pred.topScores, budgeted_pred.topScores);
}

TEST(StreamingDeploy, NonAdaptiveLayoutFallsBackToClassic)
{
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 512);
    spec.hiddenDim = 128;
    const xclass::SyntheticModel model(spec, 1);

    EcssdOptions options;
    options.ssd = ssdsim::smallTestConfig();
    options.ssd.channels = 8;
    options.layoutKind = layout::LayoutKind::Uniform;
    options.deployHostBudgetBytes = 1ULL << 20;

    EcssdApi api(options);
    api.ecssdEnable();
    EXPECT_EQ(api.weightDeploy(model.weights(), spec),
              estimateDeployTime(spec, options.ssd));
    // No hotness sort to stream: no streaming outcome.
    EXPECT_EQ(api.streamingDeploy(), nullptr);
}
