/**
 * @file
 * Parallel golden-run tests: the host-compute thread pool must be
 * invisible in every result.  A system run, a serving run, and a
 * scale-out fleet run must produce byte-identical metrics JSON and
 * bit-identical predictions for --threads 1 vs 2 vs 8, and the
 * pooled screener/classifier paths must match their serial twins
 * exactly.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "ecssd/scale_out.hh"
#include "ecssd/server.hh"
#include "ecssd/system.hh"
#include "numeric/kernels.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"
#include "sim/thread_pool.hh"
#include "xclass/screening.hh"
#include "xclass/workload.hh"

using namespace ecssd;

namespace
{

xclass::BenchmarkSpec
smallSpec()
{
    return xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 4096);
}

std::vector<std::vector<float>>
sampleQueries(const xclass::SyntheticModel &model, unsigned count)
{
    sim::Rng rng(99);
    std::vector<std::vector<float>> queries;
    for (unsigned q = 0; q < count; ++q)
        queries.push_back(model.sampleQuery(rng));
    return queries;
}

/** Metrics JSON of one instrumented system run at @p threads. */
std::string
systemRunMetrics(unsigned threads)
{
    EcssdOptions options = EcssdOptions::full();
    options.threads = threads;
    sim::MetricsRegistry registry;
    EcssdSystem system(smallSpec(), options);
    system.attachObservability(&registry, nullptr);
    const accel::RunResult result = system.runInference(2);
    system.publishMetrics(registry, result);
    std::ostringstream os;
    registry.writeJson(os);
    return os.str();
}

} // namespace

TEST(ParallelGolden, SystemMetricsJsonByteIdenticalAcrossThreads)
{
    const std::string reference = systemRunMetrics(1);
    EXPECT_FALSE(reference.empty());
    EXPECT_EQ(systemRunMetrics(2), reference);
    EXPECT_EQ(systemRunMetrics(8), reference);
}

TEST(ParallelGolden, ScreenerScoresMatchSerialExactly)
{
    const xclass::BenchmarkSpec spec = smallSpec();
    const xclass::SyntheticModel model(spec, 1);
    xclass::Screener serial(model.weights(), spec, 2);
    sim::ThreadPool pool(8);
    xclass::Screener pooled(model.weights(), spec, 2, nullptr, &pool);

    const auto queries = sampleQueries(model, 6);
    for (const auto &query : queries) {
        const numeric::Int4Vector feature =
            serial.prepareFeature(query);
        const numeric::Int4Vector pooled_feature =
            pooled.prepareFeature(query);
        EXPECT_EQ(pooled_feature.packed, feature.packed);
        EXPECT_EQ(pooled_feature.scale, feature.scale);
        EXPECT_EQ(pooled.scores(pooled_feature),
                  serial.scores(feature));
        EXPECT_EQ(pooled.screen(query, xclass::FilterMode::TopRatio),
                  serial.screen(query, xclass::FilterMode::TopRatio));
    }

    // Calibration scores the queries through the same pool.
    serial.calibrate(queries);
    pooled.calibrate(queries);
    EXPECT_EQ(pooled.threshold(), serial.threshold());
}

TEST(ParallelGolden, ClassifierPredictionsMatchSerialExactly)
{
    const xclass::BenchmarkSpec spec = smallSpec();
    const xclass::SyntheticModel model(spec, 1);
    const xclass::ApproximateClassifier serial(model.weights(), spec,
                                               2);
    sim::ThreadPool pool(8);
    const xclass::ApproximateClassifier pooled(
        model.weights(), spec, 2, nullptr, &pool);

    const auto datapaths = {
        xclass::CandidateClassifier::Datapath::Fp32,
        xclass::CandidateClassifier::Datapath::Cfp32AlignmentFree};
    for (const auto &query : sampleQueries(model, 4)) {
        for (const auto datapath : datapaths) {
            const auto a = serial.predict(
                query, 5, xclass::FilterMode::TopRatio, datapath);
            const auto b = pooled.predict(
                query, 5, xclass::FilterMode::TopRatio, datapath);
            EXPECT_EQ(b.topCategories, a.topCategories);
            EXPECT_EQ(b.topScores, a.topScores);
            EXPECT_EQ(b.candidateCount, a.candidateCount);
        }
        const auto a = serial.exact(query, 5);
        const auto b = pooled.exact(query, 5);
        EXPECT_EQ(b.topCategories, a.topCategories);
        EXPECT_EQ(b.topScores, a.topScores);
    }
}

TEST(ParallelGolden, ServerResponsesMatchAcrossThreads)
{
    const xclass::BenchmarkSpec spec = smallSpec();
    const auto serve = [&](unsigned threads) {
        EcssdOptions options = EcssdOptions::full();
        options.threads = threads;
        xclass::SyntheticModel model(spec, options.seed);
        InferenceServer server(model.weights(), spec, options);
        sim::Rng rng(options.seed);
        for (unsigned r = 0; r < 12; ++r)
            server.enqueue(model.sampleQuery(rng));
        return server.processAll(5);
    };

    const auto reference = serve(1);
    ASSERT_FALSE(reference.empty());
    for (const unsigned threads : {2u, 8u}) {
        const auto responses = serve(threads);
        ASSERT_EQ(responses.size(), reference.size())
            << threads << " threads";
        for (std::size_t i = 0; i < reference.size(); ++i) {
            EXPECT_EQ(responses[i].id, reference[i].id);
            EXPECT_EQ(responses[i].status, reference[i].status);
            EXPECT_EQ(responses[i].completedAt,
                      reference[i].completedAt);
            EXPECT_EQ(responses[i].prediction.topCategories,
                      reference[i].prediction.topCategories);
            EXPECT_EQ(responses[i].prediction.topScores,
                      reference[i].prediction.topScores);
        }
    }
}

TEST(ParallelGolden, ScaleOutFleetMatchesSerialFanOut)
{
    const xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("XMLCNN-S10M"), 32768);
    const auto run = [&](unsigned threads) {
        EcssdOptions options = EcssdOptions::full();
        options.threads = threads;
        ScaleOutEcssd fleet(spec, 4, options);
        const ScaleOutResult result = fleet.runInference(2);
        sim::MetricsRegistry registry;
        fleet.publishMetrics(registry, result);
        std::ostringstream os;
        registry.writeJson(os);
        return std::make_pair(result.totalEnergyUj, os.str());
    };

    const auto reference = run(1);
    for (const unsigned threads : {2u, 4u}) {
        const auto parallel = run(threads);
        EXPECT_EQ(parallel.first, reference.first)
            << threads << " threads";
        EXPECT_EQ(parallel.second, reference.second)
            << threads << " threads";
    }
}

// --- ISA-level golden replays ---------------------------------------
//
// The SIMD dispatch must be as invisible as the thread pool: a full
// system run, a serving run, and a fleet run replayed with the host
// kernels pinned to "scalar" must match every better ISA level this
// machine supports, byte for byte in the metrics JSON and bit for bit
// in every prediction.  Each replay pins its level with setActiveIsa,
// so the levels differ even when ECSSD_ISA pins the process.

namespace
{

/** Restores the host-kernel level a pinned-ISA test found. */
struct IsaRestore
{
    const numeric::IsaLevel found = numeric::activeIsa();
    ~IsaRestore() { numeric::setActiveIsa(found); }
};

} // namespace

TEST(ParallelGolden, SystemMetricsJsonByteIdenticalAcrossIsaLevels)
{
    const IsaRestore restore;
    numeric::setActiveIsa(numeric::IsaLevel::Scalar);
    const std::string reference = systemRunMetrics(2);
    EXPECT_FALSE(reference.empty());
    for (const numeric::IsaLevel isa : numeric::supportedIsaLevels()) {
        numeric::setActiveIsa(isa);
        EXPECT_EQ(systemRunMetrics(2), reference)
            << numeric::toString(isa);
    }
}

TEST(ParallelGolden, ServerResponsesMatchAcrossIsaLevels)
{
    const IsaRestore restore;
    const xclass::BenchmarkSpec spec = smallSpec();
    const auto serve = [&](numeric::IsaLevel isa) {
        numeric::setActiveIsa(isa);
        EcssdOptions options = EcssdOptions::full();
        options.threads = 2;
        xclass::SyntheticModel model(spec, options.seed);
        InferenceServer server(model.weights(), spec, options);
        sim::Rng rng(options.seed);
        for (unsigned r = 0; r < 12; ++r)
            server.enqueue(model.sampleQuery(rng));
        return server.processAll(5);
    };

    const auto reference = serve(numeric::IsaLevel::Scalar);
    ASSERT_FALSE(reference.empty());
    for (const numeric::IsaLevel isa : numeric::supportedIsaLevels()) {
        SCOPED_TRACE(numeric::toString(isa));
        const auto responses = serve(isa);
        ASSERT_EQ(responses.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
            EXPECT_EQ(responses[i].id, reference[i].id);
            EXPECT_EQ(responses[i].status, reference[i].status);
            EXPECT_EQ(responses[i].completedAt,
                      reference[i].completedAt);
            EXPECT_EQ(responses[i].prediction.topCategories,
                      reference[i].prediction.topCategories)
                << "response " << i;
            EXPECT_EQ(responses[i].prediction.topScores,
                      reference[i].prediction.topScores)
                << "response " << i;
        }
    }
}

TEST(ParallelGolden, ScaleOutFleetMatchesAcrossIsaLevels)
{
    const IsaRestore restore;
    const xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("XMLCNN-S10M"), 32768);
    const auto run = [&](numeric::IsaLevel isa) {
        numeric::setActiveIsa(isa);
        EcssdOptions options = EcssdOptions::full();
        options.threads = 2;
        ScaleOutEcssd fleet(spec, 4, options);
        const ScaleOutResult result = fleet.runInference(2);
        sim::MetricsRegistry registry;
        fleet.publishMetrics(registry, result);
        std::ostringstream os;
        registry.writeJson(os);
        return std::make_pair(result.totalEnergyUj, os.str());
    };

    const auto reference = run(numeric::IsaLevel::Scalar);
    for (const numeric::IsaLevel isa : numeric::supportedIsaLevels()) {
        const auto replay = run(isa);
        EXPECT_EQ(replay.first, reference.first)
            << numeric::toString(isa);
        EXPECT_EQ(replay.second, reference.second)
            << numeric::toString(isa);
    }
}
