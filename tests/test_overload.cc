/**
 * @file
 * Overload-control tests: queue-delay admission, class-aware
 * shedding with Gold eviction (the priority-inversion regression),
 * the hysteresis-guarded brownout ladder and its guaranteed
 * recovery, deadline-slack dynamic batching, the queue-depth
 * high-watermark gauge and retry-backoff jitter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "ecssd/server.hh"
#include "sim/rng.hh"
#include "sim/traffic.hh"
#include "xclass/metrics.hh"

using namespace ecssd;

namespace
{

struct OverloadFixture
{
    OverloadFixture(const ServerConfig &config = ServerConfig{},
                    const EcssdOptions &options = EcssdOptions::full())
        : spec(makeSpec()), model(spec, 1),
          server(model.weights(), spec, options, &model.basis(),
                 config)
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

    std::vector<float>
    query(std::uint64_t seed)
    {
        sim::Rng rng(seed);
        return model.sampleQuery(rng);
    }

    xclass::BenchmarkSpec spec;
    xclass::SyntheticModel model;
    InferenceServer server;
};

std::vector<std::vector<float>>
queryPool(const xclass::SyntheticModel &model, int count)
{
    std::vector<std::vector<float>> queries;
    sim::Rng rng(17);
    for (int q = 0; q < count; ++q)
        queries.push_back(model.sampleQuery(rng));
    return queries;
}

} // namespace

TEST(Admission, QueueDelayTargetShedsOnceServiceTimeIsKnown)
{
    ServerConfig config;
    config.admissionTargetDelay = sim::microseconds(1.0);
    OverloadFixture f(config);

    // Before any batch is served the service-time EWMA is unknown,
    // so delay-based admission stays open.
    for (int i = 0; i < 4; ++i)
        f.server.enqueue(f.query(100 + i));
    EXPECT_EQ(f.server.serverStats().admissionSheds, 0u);
    f.server.processAll(3);

    // Now the EWMA is measured and far above the 1us target: a deep
    // backlog of BestEffort arrivals sheds at the door.
    const sim::Tick now = f.server.deviceTime();
    for (int i = 0; i < 32; ++i)
        f.server.enqueueAt(f.query(200 + i), now,
                           sim::RequestClass::BestEffort);
    const ServerStats &stats = f.server.serverStats();
    EXPECT_GT(stats.admissionSheds, 0u);
    EXPECT_EQ(stats.shedBestEffort, stats.shedRequests);
    // Gold rides the deeper bound: with BestEffort queued it is
    // admitted by eviction rather than shed.
    const std::uint64_t gold_sheds_before = stats.shedGold;
    f.server.enqueueAt(f.query(999), now, sim::RequestClass::Gold);
    EXPECT_EQ(f.server.serverStats().shedGold, gold_sheds_before);
    f.server.processAll(3);
}

TEST(Admission, GoldEvictsYoungestBestEffortAtAFullQueue)
{
    ServerConfig config;
    config.queueCapacity = 6;
    OverloadFixture f(config);

    std::vector<InferenceServer::RequestId> best_effort;
    for (int i = 0; i < 6; ++i)
        best_effort.push_back(f.server.enqueueAt(
            f.query(300 + i), 0, sim::RequestClass::BestEffort));
    ASSERT_EQ(f.server.pending(), 6u);

    // Two Gold arrivals at the full queue: each reclaims the
    // youngest queued BestEffort slot.
    const auto gold_a =
        f.server.enqueueAt(f.query(400), 0, sim::RequestClass::Gold);
    const auto gold_b =
        f.server.enqueueAt(f.query(401), 0, sim::RequestClass::Gold);
    EXPECT_EQ(f.server.pending(), 6u);
    EXPECT_EQ(f.server.serverStats().evictedBestEffort, 2u);
    EXPECT_EQ(f.server.serverStats().shedGold, 0u);

    const auto responses = f.server.processAll(3);
    std::set<InferenceServer::RequestId> shed;
    std::set<InferenceServer::RequestId> served;
    for (const auto &response : responses) {
        if (response.status == InferenceServer::Response::Status::Shed)
            shed.insert(response.id);
        else
            served.insert(response.id);
    }
    // The two youngest BestEffort ids paid for the Gold admissions;
    // both Gold requests were served.  Gold shed while BestEffort
    // from the same window is served would be a priority inversion.
    EXPECT_EQ(shed,
              (std::set<InferenceServer::RequestId>{
                  best_effort[4], best_effort[5]}));
    EXPECT_TRUE(served.count(gold_a));
    EXPECT_TRUE(served.count(gold_b));
}

TEST(Admission, PriorityInversionRegression)
{
    // Mixed-class flood into a bounded queue: no Gold request may be
    // shed while a BestEffort request admitted in the same window is
    // served.
    ServerConfig config;
    config.queueCapacity = 8;
    OverloadFixture f(config);

    std::set<InferenceServer::RequestId> gold_ids;
    std::set<InferenceServer::RequestId> best_ids;
    for (int i = 0; i < 24; ++i) {
        const bool gold = i % 3 == 0;
        const auto id = f.server.enqueueAt(
            f.query(500 + i), 0,
            gold ? sim::RequestClass::Gold
                 : sim::RequestClass::BestEffort);
        (gold ? gold_ids : best_ids).insert(id);
    }
    const auto responses = f.server.processAll(3);
    std::set<InferenceServer::RequestId> shed_gold;
    std::set<InferenceServer::RequestId> served_best;
    for (const auto &response : responses) {
        const bool is_shed =
            response.status == InferenceServer::Response::Status::Shed;
        if (is_shed && gold_ids.count(response.id))
            shed_gold.insert(response.id);
        if (!is_shed && best_ids.count(response.id))
            served_best.insert(response.id);
    }
    EXPECT_TRUE(shed_gold.empty() || served_best.empty())
        << shed_gold.size() << " Gold shed while "
        << served_best.size() << " BestEffort served";
    EXPECT_TRUE(shed_gold.empty());
}

TEST(Brownout, LadderDegradesUnderSustainedOverloadAndRecovers)
{
    ServerConfig config;
    config.brownout.enterDelay = sim::microseconds(200.0);
    config.brownout.exitDelay = sim::microseconds(100.0);
    config.brownout.recoveryGuard = sim::microseconds(50.0);
    OverloadFixture f(config);
    const auto queries = queryPool(f.model, 32);

    sim::TrafficConfig traffic;
    traffic.process = sim::ArrivalProcess::BurstySpike;
    traffic.ratePerSecond = 50000.0;
    traffic.burstRateMultiplier = 10.0;
    traffic.goldFraction = 0.2;
    traffic.seed = 3;
    sim::TrafficEngine engine(traffic);

    const auto responses = f.server.runTraffic(engine, 3000, queries, 5);
    const ServerStats &stats = f.server.serverStats();

    // The flood drove the ladder down (transitions happened, cheap
    // rungs served requests, the Shed rung rejected BestEffort)...
    EXPECT_GT(stats.brownoutTransitions, 0u);
    EXPECT_GT(stats.servedScreenerOnly, 0u);
    EXPECT_GT(stats.brownoutSheds, 0u);
    EXPECT_GT(f.server.brownoutDwell(BrownoutLevel::ScreenerOnly),
              0u);
    // ... and every shed was BestEffort: the default goldFloor means
    // the ladder never sheds Gold.
    EXPECT_EQ(stats.shedGold, 0u);
    for (const auto &response : responses) {
        if (response.cls == sim::RequestClass::Gold) {
            EXPECT_NE(response.status,
                      InferenceServer::Response::Status::Shed);
        }
    }
    // Terminal steady state: queue empty, ladder recovered to Full.
    EXPECT_EQ(f.server.pending(), 0u);
    EXPECT_EQ(f.server.brownoutLevel(), BrownoutLevel::Full);
    // Exactly one terminal response per arrival.
    EXPECT_EQ(responses.size(), 3000u);
    std::set<InferenceServer::RequestId> ids;
    for (const auto &response : responses)
        ids.insert(response.id);
    EXPECT_EQ(ids.size(), responses.size());
}

TEST(Brownout, DisabledLadderNeverLeavesFull)
{
    OverloadFixture f;
    const auto queries = queryPool(f.model, 16);
    sim::TrafficConfig traffic;
    traffic.ratePerSecond = 50000.0;
    traffic.seed = 5;
    sim::TrafficEngine engine(traffic);
    f.server.runTraffic(engine, 500, queries, 5);
    EXPECT_EQ(f.server.brownoutLevel(), BrownoutLevel::Full);
    EXPECT_EQ(f.server.serverStats().brownoutTransitions, 0u);
    EXPECT_EQ(f.server.serverStats().servedScreenerOnly, 0u);
}

TEST(Brownout, ReducedCandidatesCapsTheCandidateBudget)
{
    ServerConfig config;
    // enterDelay of one tick: the very first served batch (sojourn >
    // 1 tick) walks the ladder down a rung, so the second batch is
    // served at ReducedCandidates.
    config.brownout.enterDelay = 1;
    config.brownout.recoveryGuard = sim::seconds(1000.0);
    config.brownout.reducedCandidateFraction = 0.25;
    OverloadFixture f(config);

    for (int i = 0; i < 8; ++i)
        f.server.enqueueAt(f.query(600 + i), 0,
                           sim::RequestClass::BestEffort);
    const auto responses = f.server.processAll(5);
    std::size_t full_candidates = 0;
    std::size_t reduced_candidates = 0;
    for (const auto &response : responses) {
        if (response.servedAt == BrownoutLevel::Full)
            full_candidates = std::max(
                full_candidates, response.prediction.candidateCount);
        if (response.servedAt == BrownoutLevel::ReducedCandidates)
            reduced_candidates = std::max(
                reduced_candidates,
                response.prediction.candidateCount);
    }
    ASSERT_GT(full_candidates, 0u);
    ASSERT_GT(reduced_candidates, 0u);
    // The capped budget is the configured fraction of the full one.
    EXPECT_LE(reduced_candidates,
              static_cast<std::size_t>(
                  static_cast<double>(full_candidates) * 0.25 + 1));
}

TEST(Batching, DeadlineSlackClosesPartialBatchesInTime)
{
    // Sparse arrivals with a generous batch-wait window but a tight
    // deadline: the slack rule must close batches early enough that
    // waiting never times a request out.
    ServerConfig config;
    config.batchMaxWait = sim::seconds(10.0);
    config.requestDeadline = sim::microseconds(2000.0);
    OverloadFixture f(config);
    const auto queries = queryPool(f.model, 16);

    sim::TrafficConfig traffic;
    traffic.ratePerSecond = 300.0; // far below one batch per window
    traffic.seed = 9;
    sim::TrafficEngine engine(traffic);
    const auto responses = f.server.runTraffic(engine, 400, queries, 5);
    EXPECT_EQ(responses.size(), 400u);
    std::uint64_t timed_out = 0;
    for (const auto &response : responses)
        timed_out += response.status
                == InferenceServer::Response::Status::TimedOut
            ? 1
            : 0;
    // Without the slack rule every partial batch would wait 10s and
    // every request would miss the 2ms deadline.
    EXPECT_LT(timed_out, 40u);
}

TEST(Gauges, QueueDepthHighWatermarkTracksThePeak)
{
    OverloadFixture f;
    for (int i = 0; i < 9; ++i)
        f.server.enqueue(f.query(700 + i));
    EXPECT_EQ(f.server.serverStats().queueDepthHwm, 9u);
    f.server.processAll(3);
    // Draining does not lower the high watermark...
    EXPECT_EQ(f.server.serverStats().queueDepthHwm, 9u);
    // ... and a smaller second wave does not move it.
    for (int i = 0; i < 3; ++i)
        f.server.enqueue(f.query(800 + i));
    EXPECT_EQ(f.server.serverStats().queueDepthHwm, 9u);
    f.server.processAll(3);

    sim::MetricsRegistry registry;
    f.server.publishMetrics(registry);
    EXPECT_EQ(registry.gauge("server.queue_depth_hwm").value(), 9.0);
}

TEST(RetryJitter, ZeroFractionIsBitIdenticalAndSeedInsensitive)
{
    EcssdOptions flaky = EcssdOptions::full();
    flaky.ssd.uncorrectableReadRate = 0.05;
    flaky.degradedPolicy = accel::DegradedReadPolicy::FailBatch;

    ServerConfig a;
    a.maxBatchRetries = 2;
    ServerConfig b = a;
    b.retryJitterSeed = 999; // must be irrelevant at fraction 0

    OverloadFixture fa(a, flaky);
    OverloadFixture fb(b, flaky);
    for (int i = 0; i < 16; ++i) {
        fa.server.enqueue(fa.query(900 + i));
        fb.server.enqueue(fb.query(900 + i));
    }
    const auto ra = fa.server.processAll(3);
    const auto rb = fb.server.processAll(3);
    ASSERT_GT(fa.server.serverStats().batchRetries, 0u);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i)
        EXPECT_EQ(ra[i].completedAt, rb[i].completedAt);
}

TEST(RetryJitter, JitterPerturbsTheBackoffSchedule)
{
    EcssdOptions flaky = EcssdOptions::full();
    flaky.ssd.uncorrectableReadRate = 0.05;
    flaky.degradedPolicy = accel::DegradedReadPolicy::FailBatch;

    ServerConfig plain;
    plain.maxBatchRetries = 2;
    ServerConfig jittered = plain;
    jittered.retryJitterFraction = 0.5;

    OverloadFixture fp(plain, flaky);
    OverloadFixture fj(jittered, flaky);
    for (int i = 0; i < 16; ++i) {
        fp.server.enqueue(fp.query(900 + i));
        fj.server.enqueue(fj.query(900 + i));
    }
    const auto rp = fp.server.processAll(3);
    const auto rj = fj.server.processAll(3);
    ASSERT_GT(fp.server.serverStats().batchRetries, 0u);
    ASSERT_EQ(rp.size(), rj.size());
    bool diverged = false;
    for (std::size_t i = 0; i < rp.size(); ++i)
        diverged |= rp[i].completedAt != rj[i].completedAt;
    EXPECT_TRUE(diverged);
    // Jitter re-times retries; it never changes outcomes.
    for (std::size_t i = 0; i < rp.size(); ++i)
        EXPECT_EQ(rp[i].prediction.topCategories,
                  rj[i].prediction.topCategories);
}
