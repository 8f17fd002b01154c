/**
 * @file
 * Inference server tests: request lifecycle, batching, latency
 * accounting, and prediction consistency.
 */

#include <gtest/gtest.h>

#include "ecssd/server.hh"
#include "sim/rng.hh"
#include "xclass/metrics.hh"

using namespace ecssd;

namespace
{

struct ServerFixture
{
    ServerFixture()
        : spec(makeSpec()), model(spec, 1),
          server(model.weights(), spec, EcssdOptions::full(),
                 &model.basis())
    {
    }

    static xclass::BenchmarkSpec
    makeSpec()
    {
        xclass::BenchmarkSpec spec = xclass::scaledDown(
            xclass::benchmarkByName("GNMT-E32K"), 1024);
        spec.hiddenDim = 128;
        spec.batchSize = 4;
        return spec;
    }

    xclass::BenchmarkSpec spec;
    xclass::SyntheticModel model;
    InferenceServer server;
};

/** Poisson arrivals at @p rps with every arrival Gold. */
sim::TrafficConfig
poisson(double rps)
{
    sim::TrafficConfig traffic;
    traffic.process = sim::ArrivalProcess::Poisson;
    traffic.ratePerSecond = rps;
    traffic.goldFraction = 1.0;
    return traffic;
}

} // namespace

TEST(InferenceServer, RequestIdsAreUniqueAndOrdered)
{
    ServerFixture f;
    sim::Rng rng(2);
    const auto a = f.server.enqueue(f.model.sampleQuery(rng));
    const auto b = f.server.enqueue(f.model.sampleQuery(rng));
    EXPECT_NE(a, b);
    EXPECT_LT(a, b);
    EXPECT_EQ(f.server.pending(), 2u);
}

TEST(InferenceServer, ProcessAllDrainsQueue)
{
    ServerFixture f;
    sim::Rng rng(3);
    for (int i = 0; i < 10; ++i)
        f.server.enqueue(f.model.sampleQuery(rng));
    const auto responses = f.server.processAll(5);
    EXPECT_EQ(responses.size(), 10u);
    EXPECT_EQ(f.server.pending(), 0u);
    for (const auto &response : responses) {
        EXPECT_EQ(response.prediction.topCategories.size(), 5u);
        EXPECT_GT(response.completedAt, 0u);
    }
}

TEST(InferenceServer, LatencyIsRecordedPerRequest)
{
    ServerFixture f;
    sim::Rng rng(4);
    for (int i = 0; i < 6; ++i)
        f.server.enqueue(f.model.sampleQuery(rng));
    f.server.processAll(3);
    EXPECT_EQ(f.server.latencyMs().count(), 6u);
    EXPECT_GT(f.server.latencyMs().mean(), 0.0);
}

TEST(InferenceServer, LaterBatchesFinishLater)
{
    ServerFixture f;
    sim::Rng rng(5);
    for (int i = 0; i < 8; ++i) // two batches of 4
        f.server.enqueue(f.model.sampleQuery(rng));
    const auto responses = f.server.processAll(1);
    ASSERT_EQ(responses.size(), 8u);
    EXPECT_GT(responses[7].completedAt, responses[0].completedAt);
    EXPECT_EQ(f.server.deviceTime(), responses[7].completedAt);
}

TEST(InferenceServer, PredictionsMatchDirectClassifier)
{
    ServerFixture f;
    const xclass::ApproximateClassifier reference(
        f.model.weights(), f.spec, EcssdOptions::full().seed,
        &f.model.basis());
    sim::Rng rng(6);
    const std::vector<float> query = f.model.sampleQuery(rng);
    f.server.enqueue(query);
    const auto responses = f.server.processAll(5);
    ASSERT_EQ(responses.size(), 1u);
    const auto direct = reference.predict(query, 5);
    EXPECT_EQ(responses[0].prediction.topCategories,
              direct.topCategories);
}

TEST(InferenceServer, WrongDimensionPanics)
{
    ServerFixture f;
    std::vector<float> wrong(f.spec.hiddenDim + 1, 1.0f);
    EXPECT_THROW(f.server.enqueue(wrong), sim::PanicError);
}

TEST(InferenceServer, EmptyProcessAllIsNoop)
{
    ServerFixture f;
    EXPECT_TRUE(f.server.processAll(5).empty());
    EXPECT_EQ(f.server.latencyMs().count(), 0u);
}

TEST(InferenceServer, OpenLoopServesEverything)
{
    ServerFixture f;
    sim::Rng rng(7);
    std::vector<std::vector<float>> pool;
    for (int q = 0; q < 8; ++q)
        pool.push_back(f.model.sampleQuery(rng));
    sim::TrafficEngine engine(poisson(/*rps=*/2000.0));
    const auto responses =
        f.server.runTraffic(engine, /*count=*/40, pool, /*k=*/3);
    EXPECT_EQ(responses.size(), 40u);
    EXPECT_EQ(f.server.pending(), 0u);
    EXPECT_EQ(f.server.latencyPercentiles().count(), 40u);
    EXPECT_GE(f.server.latencyPercentiles().p99(),
              f.server.latencyPercentiles().p50());
}

TEST(InferenceServer, HigherLoadRaisesTailLatency)
{
    auto tail = [](double rps) {
        ServerFixture f;
        sim::Rng rng(8);
        std::vector<std::vector<float>> pool;
        for (int q = 0; q < 8; ++q)
            pool.push_back(f.model.sampleQuery(rng));
        sim::TrafficEngine engine(poisson(rps));
        f.server.runTraffic(engine, 60, pool, 3);
        return f.server.latencyPercentiles().p99();
    };
    const double light = tail(100.0);
    const double heavy = tail(100000.0);
    EXPECT_GT(heavy, light);
}

TEST(InferenceServer, LightLoadServesSingles)
{
    // At very light load each request is served alone: latency is
    // roughly the single-batch device latency, with low variance.
    ServerFixture f;
    sim::Rng rng(9);
    std::vector<std::vector<float>> pool;
    for (int q = 0; q < 4; ++q)
        pool.push_back(f.model.sampleQuery(rng));
    sim::TrafficEngine engine(poisson(/*rps=*/1.0));
    f.server.runTraffic(engine, /*count=*/10, pool, 3);
    const double spread = f.server.latencyPercentiles().p99()
        - f.server.latencyPercentiles().quantile(0.05);
    EXPECT_LT(spread,
              f.server.latencyPercentiles().p50() * 0.5 + 0.1);
}

TEST(InferenceServer, ResponsesAreOkWithoutFaultsOrDeadlines)
{
    ServerFixture f;
    sim::Rng rng(21);
    for (int i = 0; i < 6; ++i)
        f.server.enqueue(f.model.sampleQuery(rng));
    for (const auto &response : f.server.processAll(3))
        EXPECT_EQ(response.status,
                  InferenceServer::Response::Status::Ok);
    EXPECT_EQ(f.server.serverStats().okResponses, 6u);
    EXPECT_EQ(f.server.serverStats().acceptedRequests, 6u);
}

TEST(InferenceServer, OpenLoopRejectsBadArguments)
{
    ServerFixture f;
    std::vector<std::vector<float>> empty;
    sim::TrafficEngine engine(poisson(10.0));
    EXPECT_THROW(f.server.runTraffic(engine, 1, empty, 1),
                 sim::PanicError);
    EXPECT_THROW(sim::TrafficEngine{poisson(0.0)}, sim::FatalError);
}
