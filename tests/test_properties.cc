/**
 * @file
 * Cross-module property tests: parameterized sweeps asserting
 * invariants of the full pipeline across benchmarks, layouts, and
 * algorithm parameters.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "ecssd/system.hh"

using namespace ecssd;

namespace
{

xclass::BenchmarkSpec
specOf(const std::string &name, std::uint64_t cap = 32768)
{
    return xclass::scaledDown(xclass::benchmarkByName(name), cap);
}

/** One point of the benchmark x layout sweep. */
struct Configuration
{
    std::string name;
    layout::LayoutKind kind;
};

/**
 * Prints "benchmark/layout". The test name is built from this text,
 * so it must not hold anything that changes between processes, such
 * as the address of a string literal.
 */
void
PrintTo(const Configuration &config, std::ostream *os)
{
    *os << config.name << "/" << layout::toString(config.kind);
}

std::vector<Configuration>
benchmarksAndLayouts()
{
    std::vector<Configuration> configs;
    for (const char *name : {"GNMT-E32K", "LSTM-W33K",
                             "Transformer-W268K", "XMLCNN-S10M"})
        for (const layout::LayoutKind kind :
             {layout::LayoutKind::Sequential,
              layout::LayoutKind::Uniform,
              layout::LayoutKind::LearningAdaptive})
            configs.push_back({name, kind});
    return configs;
}

} // namespace

/** Sweep benchmarks x layout strategies. */
class PipelineInvariants : public ::testing::TestWithParam<Configuration>
{
};

TEST_P(PipelineInvariants, HoldAcrossConfigurations)
{
    const auto [name, kind] = GetParam();
    EcssdOptions options = EcssdOptions::full();
    options.layoutKind = kind;
    EcssdSystem system(specOf(name), options);
    const accel::RunResult result = system.runInference(1);
    ASSERT_EQ(result.batches.size(), 1u);
    const accel::BatchTiming &batch = result.batches[0];

    // Conservation: per-channel pages sum to the total.
    std::uint64_t sum = 0;
    for (const std::uint64_t pages : batch.channelPages)
        sum += pages;
    EXPECT_EQ(sum, batch.fp32PagesRead);

    // Page count covers every candidate row at least once per
    // page-share group.
    EXPECT_GT(batch.fp32PagesRead, 0u);
    EXPECT_LE(batch.fp32PagesRead,
              batch.candidateRows
                  * ((specOf(name).rowBytes() + 4095) / 4096));

    // Utilization is a proper fraction; time moves forward.
    EXPECT_GT(result.channelUtilization, 0.0);
    EXPECT_LE(result.channelUtilization, 1.0);
    EXPECT_GT(batch.finishedAt, batch.startedAt);

    // Work accounting is consistent with the spec.
    const xclass::BenchmarkSpec spec = specOf(name);
    EXPECT_EQ(batch.int4Ops,
              static_cast<std::uint64_t>(spec.batchSize)
                  * spec.categories * spec.shrunkDim() * 2);
    EXPECT_EQ(batch.fp32Flops,
              static_cast<std::uint64_t>(spec.batchSize)
                  * batch.candidateRows * spec.hiddenDim * 2);
}

INSTANTIATE_TEST_SUITE_P(BenchmarksAndLayouts, PipelineInvariants,
                         ::testing::ValuesIn(benchmarksAndLayouts()));

/** Candidate-ratio sweep: latency is monotone in fetched work. */
class RatioSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(RatioSweep, LatencyGrowsWithCandidateRatio)
{
    const double ratio = GetParam() / 100.0;
    xclass::BenchmarkSpec narrow = specOf("XMLCNN-S10M");
    narrow.candidateRatio = ratio;
    xclass::BenchmarkSpec wide = narrow;
    wide.candidateRatio = ratio * 2.0;

    EcssdSystem a(narrow, EcssdOptions::full());
    EcssdSystem b(wide, EcssdOptions::full());
    const double t_narrow = a.runInference(1).meanBatchMs();
    const double t_wide = b.runInference(1).meanBatchMs();
    EXPECT_GT(t_wide, t_narrow);
    // Fetch-bound regime: doubling candidates costs 1.3-2.4x.
    EXPECT_GT(t_wide / t_narrow, 1.3);
    EXPECT_LT(t_wide / t_narrow, 2.4);
}

INSTANTIATE_TEST_SUITE_P(Ratios, RatioSweep,
                         ::testing::Values(5, 10, 20));

/** Batch-count linearity of the steady-state pipeline. */
TEST(PipelineScaling, TimeScalesWithBatchCount)
{
    const xclass::BenchmarkSpec spec = specOf("XMLCNN-S10M", 16384);
    EcssdSystem one(spec, EcssdOptions::full());
    EcssdSystem four(spec, EcssdOptions::full());
    const double t1 =
        sim::tickToMs(one.runInference(1).totalTime);
    const double t4 =
        sim::tickToMs(four.runInference(4).totalTime);
    EXPECT_NEAR(t4 / t1, 4.0, 0.8);
}

/** Channel-count monotonicity. */
class ChannelSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ChannelSweep, MoreChannelsNeverSlower)
{
    const unsigned channels = GetParam();
    EcssdOptions fewer = EcssdOptions::full();
    fewer.ssd.channels = channels;
    EcssdOptions more = EcssdOptions::full();
    more.ssd.channels = channels * 2;
    const xclass::BenchmarkSpec spec = specOf("XMLCNN-S10M", 16384);
    const double t_few =
        EcssdSystem(spec, fewer).runInference(1).meanBatchMs();
    const double t_more =
        EcssdSystem(spec, more).runInference(1).meanBatchMs();
    EXPECT_LT(t_more, t_few * 1.02);
}

INSTANTIATE_TEST_SUITE_P(Channels, ChannelSweep,
                         ::testing::Values(2u, 4u, 8u));

/** Predictor-noise monotonicity for the learning layout. */
TEST(PredictorQuality, OracleBeatsNoisyBeatsBroken)
{
    const xclass::BenchmarkSpec spec = specOf("XMLCNN-S10M");
    auto run = [&spec](double noise) {
        EcssdOptions options = EcssdOptions::full();
        options.predictorNoise = noise;
        return EcssdSystem(spec, options)
            .runInference(2)
            .channelUtilization;
    };
    const double oracle = run(0.0);
    const double noisy = run(0.5);
    const double broken = run(4.0);
    EXPECT_GE(oracle, noisy - 0.02);
    EXPECT_GT(noisy, broken);
}

/** Deployment time scales with the weight footprint. */
class DeploySweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DeploySweep, DeployTimeIsLinearInRows)
{
    const std::uint64_t rows = GetParam();
    const sim::Tick small_deploy =
        EcssdSystem(specOf("XMLCNN-S10M", rows),
                    EcssdOptions::full())
            .deployTimeEstimate();
    const sim::Tick big_deploy =
        EcssdSystem(specOf("XMLCNN-S10M", rows * 2),
                    EcssdOptions::full())
            .deployTimeEstimate();
    EXPECT_NEAR(static_cast<double>(big_deploy)
                    / static_cast<double>(small_deploy),
                2.0, 0.25);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeploySweep,
                         ::testing::Values(16384u, 65536u,
                                           262144u));
