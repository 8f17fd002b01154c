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

TEST(InferenceServer, DeadlineTimesOutLateRequests)
{
    // A deadline far below the device batch latency: the first batch
    // completes late (TimedOut with a prediction), and by the time
    // the second batch forms its requests are already expired, so
    // they are dropped without device work.
    ServerFixture f;
    ServerConfig config;
    config.requestDeadline = sim::microseconds(1.0);
    InferenceServer server(f.model.weights(), f.spec,
                           EcssdOptions::full(), &f.model.basis(),
                           config);
    sim::Rng rng(22);
    for (int i = 0; i < 8; ++i) // two batches of 4
        server.enqueue(f.model.sampleQuery(rng));
    const auto responses = server.processAll(3);
    ASSERT_EQ(responses.size(), 8u);
    for (const auto &response : responses)
        EXPECT_EQ(response.status,
                  InferenceServer::Response::Status::TimedOut);
    EXPECT_EQ(server.serverStats().timedOutRequests, 8u);
    EXPECT_GT(server.serverStats().droppedBeforeService, 0u);
    // Dropped requests burned no device time: only one batch ran.
    EXPECT_EQ(server.latencyMs().count(),
              8u - server.serverStats().droppedBeforeService);
}

TEST(InferenceServer, GenerousDeadlineChangesNothing)
{
    ServerFixture strict;
    ServerConfig config;
    config.requestDeadline = sim::seconds(10.0);
    InferenceServer relaxed(strict.model.weights(), strict.spec,
                            EcssdOptions::full(),
                            &strict.model.basis(), config);
    sim::Rng rng_a(23), rng_b(23);
    for (int i = 0; i < 6; ++i) {
        strict.server.enqueue(strict.model.sampleQuery(rng_a));
        relaxed.enqueue(strict.model.sampleQuery(rng_b));
    }
    const auto base = strict.server.processAll(3);
    const auto timed = relaxed.processAll(3);
    ASSERT_EQ(base.size(), timed.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        EXPECT_EQ(timed[i].status,
                  InferenceServer::Response::Status::Ok);
        EXPECT_EQ(base[i].completedAt, timed[i].completedAt);
    }
}

TEST(InferenceServer, BoundedQueueShedsOverload)
{
    ServerFixture f;
    ServerConfig config;
    config.queueCapacity = 4;
    InferenceServer server(f.model.weights(), f.spec,
                           EcssdOptions::full(), &f.model.basis(),
                           config);
    sim::Rng rng(24);
    for (int i = 0; i < 10; ++i)
        server.enqueue(f.model.sampleQuery(rng));
    EXPECT_EQ(server.pending(), 4u);
    EXPECT_EQ(server.serverStats().shedRequests, 6u);

    const auto responses = server.processAll(3);
    ASSERT_EQ(responses.size(), 10u);
    unsigned shed = 0;
    for (const auto &response : responses) {
        if (response.status
            == InferenceServer::Response::Status::Shed) {
            ++shed;
            EXPECT_TRUE(response.prediction.topCategories.empty());
        }
    }
    EXPECT_EQ(shed, 6u);
    EXPECT_EQ(server.pending(), 0u);
    // Shed requests never enter the latency statistics.
    EXPECT_EQ(server.latencyMs().count(), 4u);
}

TEST(InferenceServer, FailBatchRetriesWithBackoffAndKeepsServing)
{
    ServerFixture f;
    EcssdOptions flaky = EcssdOptions::full();
    flaky.ssd.uncorrectableReadRate = 0.05;
    flaky.degradedPolicy = accel::DegradedReadPolicy::FailBatch;
    ServerConfig config;
    config.maxBatchRetries = 3;
    InferenceServer server(f.model.weights(), f.spec, flaky,
                           &f.model.basis(), config);
    sim::Rng rng(25);
    for (int i = 0; i < 16; ++i)
        server.enqueue(f.model.sampleQuery(rng));
    const auto responses = server.processAll(3);
    ASSERT_EQ(responses.size(), 16u);
    // Every request got an answer despite aborted device batches.
    for (const auto &response : responses)
        EXPECT_EQ(response.prediction.topCategories.size(), 3u);
    EXPECT_GT(server.serverStats().batchRetries, 0u);
}

TEST(InferenceServer, RetryBackoffIsChargedToTheSimulatedClock)
{
    // Two servers differ only in the backoff constant; the fault
    // draws (and therefore the retry schedule) are identical, so
    // every tick of completion-time difference is backoff actually
    // charged to the clock — a retried batch lands *after* the
    // failure tick, not at it.
    ServerFixture f;
    EcssdOptions flaky = EcssdOptions::full();
    flaky.ssd.uncorrectableReadRate = 0.05;
    flaky.degradedPolicy = accel::DegradedReadPolicy::FailBatch;

    ServerConfig quick;
    quick.maxBatchRetries = 1; // one retry => one backoff per abort
    quick.retryBackoffUs = 100.0;
    ServerConfig slow = quick;
    slow.retryBackoffUs = 100000.0;

    InferenceServer quick_server(f.model.weights(), f.spec, flaky,
                                 &f.model.basis(), quick);
    InferenceServer slow_server(f.model.weights(), f.spec, flaky,
                                &f.model.basis(), slow);
    sim::Rng rng_a(26), rng_b(26);
    for (int i = 0; i < 16; ++i) {
        quick_server.enqueue(f.model.sampleQuery(rng_a));
        slow_server.enqueue(f.model.sampleQuery(rng_b));
    }
    const auto quick_responses = quick_server.processAll(3);
    const auto slow_responses = slow_server.processAll(3);

    const std::uint64_t retries =
        quick_server.serverStats().batchRetries;
    ASSERT_GT(retries, 0u) << "no batch ever aborted";
    ASSERT_EQ(retries, slow_server.serverStats().batchRetries)
        << "retry schedules diverged; the comparison is invalid";

    // The total device time differs by exactly the backoff delta
    // times the number of retries.
    const sim::Tick delta = sim::microseconds(100000.0 - 100.0);
    EXPECT_EQ(slow_server.deviceTime(),
              quick_server.deviceTime() + delta * retries);

    // Per request: nobody finishes earlier under the larger
    // backoff, and the retried batches finish strictly later.
    ASSERT_EQ(quick_responses.size(), slow_responses.size());
    unsigned later = 0;
    for (std::size_t i = 0; i < quick_responses.size(); ++i) {
        EXPECT_EQ(quick_responses[i].id, slow_responses[i].id);
        EXPECT_GE(slow_responses[i].completedAt,
                  quick_responses[i].completedAt);
        later += slow_responses[i].completedAt
                > quick_responses[i].completedAt
            ? 1
            : 0;
    }
    EXPECT_GT(later, 0u);
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
