/**
 * @file
 * Overload-control tests: queue-delay admission, class-aware
 * shedding with Gold eviction (the priority-inversion regression),
 * the hysteresis-guarded brownout ladder and its guaranteed
 * recovery, the batch-wait window and the queue-depth
 * high-watermark gauge.
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

/** Serve the warm-up batch: four requests arriving at 0, one
 *  device batch, after which the server's service EWMA is the
 *  batch's per-request service time. */
void
serveWarmUpBatch(OverloadFixture &f)
{
    for (int i = 0; i < 4; ++i)
        f.server.enqueueAt(f.query(90 + i), 0);
    f.server.processAll(3);
}

/** Per-request service time of the warm-up batch, measured on a
 *  server of its own. */
sim::Tick
warmUpServiceTime()
{
    OverloadFixture probe;
    serveWarmUpBatch(probe);
    return probe.server.deviceTime() / 4;
}

std::vector<std::vector<float>>
queryPool(const xclass::SyntheticModel &model, int count)
{
    std::vector<std::vector<float>> queries;
    sim::Rng rng(17);
    for (int q = 0; q < count; ++q)
        queries.push_back(model.sampleQuery(rng));
    return queries;
}

/** One served device batch of a runTraffic() pass on a fresh
 *  server, whose request ids are the arrival indices plus one. */
struct ServedBatch
{
    InferenceServer::RequestId first = 0;
    InferenceServer::RequestId last = 0;
    sim::Tick oldest = sim::maxTick;
    sim::Tick newest = 0;
    sim::Tick finished = 0;

    std::size_t size() const { return last - first + 1; }
};

/** Split @p responses (completion order, nothing shed) into their
 *  device batches: the runs sharing one completion tick. */
std::vector<ServedBatch>
servedBatches(const std::vector<InferenceServer::Response> &responses,
              const std::vector<sim::Arrival> &arrivals)
{
    std::vector<ServedBatch> batches;
    for (const auto &response : responses) {
        EXPECT_NE(response.status,
                  InferenceServer::Response::Status::Shed);
        if (batches.empty()
            || batches.back().finished != response.completedAt) {
            batches.push_back(ServedBatch{});
            batches.back().first = response.id;
            batches.back().finished = response.completedAt;
        }
        ServedBatch &batch = batches.back();
        // FIFO batching: a batch is a run of consecutive ids.
        if (batch.last != 0) {
            EXPECT_EQ(response.id, batch.last + 1);
        }
        batch.last = response.id;
        const sim::Tick at = arrivals[response.id - 1].at;
        batch.oldest = std::min(batch.oldest, at);
        batch.newest = std::max(batch.newest, at);
    }
    return batches;
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
    // A target of 3.75 warm-up service times admits BestEffort up to
    // a queue of 4 and Gold (twice the target) up to 8; past that a
    // Gold arrival evicts the youngest queued BestEffort.
    const sim::Tick per_request = warmUpServiceTime();
    ServerConfig config;
    config.admissionTargetDelay = per_request * 15 / 4;
    OverloadFixture f(config);
    serveWarmUpBatch(f);

    std::vector<InferenceServer::RequestId> best_effort;
    for (int i = 0; i < 4; ++i)
        best_effort.push_back(f.server.enqueueAt(
            f.query(300 + i), 0, sim::RequestClass::BestEffort));
    std::set<InferenceServer::RequestId> gold;
    for (int i = 0; i < 4; ++i)
        gold.insert(f.server.enqueueAt(f.query(310 + i), 0,
                                       sim::RequestClass::Gold));
    ASSERT_EQ(f.server.pending(), 8u);
    ASSERT_EQ(f.server.serverStats().evictedBestEffort, 0u);

    // Two Gold arrivals past the Gold bound: each reclaims the
    // youngest queued BestEffort slot.
    const auto gold_a =
        f.server.enqueueAt(f.query(400), 0, sim::RequestClass::Gold);
    const auto gold_b =
        f.server.enqueueAt(f.query(401), 0, sim::RequestClass::Gold);
    gold.insert({gold_a, gold_b});
    EXPECT_EQ(f.server.pending(), 8u);
    EXPECT_EQ(f.server.serverStats().evictedBestEffort, 2u);
    EXPECT_EQ(f.server.serverStats().shedGold, 0u);

    const auto responses = f.server.processAll(3);
    std::set<InferenceServer::RequestId> shed;
    std::set<InferenceServer::RequestId> served;
    for (const auto &response : responses) {
        if (response.status
            == InferenceServer::Response::Status::Shed) {
            shed.insert(response.id);
            EXPECT_TRUE(response.prediction.topCategories.empty());
        } else {
            served.insert(response.id);
        }
    }
    // Shed requests never enter the latency statistics: only the
    // warm-up batch and the served requests do.
    EXPECT_EQ(f.server.latencyMs().count(), 4u + served.size());
    // The two youngest BestEffort ids paid for the Gold admissions;
    // every Gold request was served.  Gold shed while BestEffort
    // from the same window is served would be a priority inversion.
    EXPECT_EQ(shed,
              (std::set<InferenceServer::RequestId>{
                  best_effort[2], best_effort[3]}));
    for (const InferenceServer::RequestId id : gold)
        EXPECT_TRUE(served.count(id)) << "Gold request " << id;
}

TEST(Admission, PriorityInversionRegression)
{
    // Mixed-class flood against a delay target of 4.25 warm-up
    // service times: BestEffort is admitted up to a queue of 4, Gold
    // up to 8, and Gold past that evicts queued BestEffort.  No Gold
    // request may be shed while a BestEffort request admitted in the
    // same window is served.
    const sim::Tick per_request = warmUpServiceTime();
    ServerConfig config;
    config.admissionTargetDelay = per_request * 17 / 4;
    OverloadFixture f(config);
    serveWarmUpBatch(f);

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
    EXPECT_GT(f.server.serverStats().evictedBestEffort, 0u);
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
    EXPECT_FALSE(served_best.empty());
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
    // ... and every shed was BestEffort: the ladder never sheds
    // Gold.
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

TEST(Batching, PartialBatchWaitsOutTheWindowAndNoLonger)
{
    // Sparse arrivals with a 1 ms batch-wait window.  A partial batch
    // takes every arrival up to its oldest member's arrival plus the
    // window (or up to when the device frees, if later) and no
    // arrival after that, and it starts exactly then.
    const sim::Tick wait = sim::microseconds(1000.0);
    ServerConfig config;
    config.batchMaxWait = wait;
    OverloadFixture waiting(config);
    OverloadFixture eager;
    const auto queries = queryPool(waiting.model, 16);

    sim::TrafficConfig traffic;
    traffic.ratePerSecond = 300.0; // about one arrival per 3 ms
    traffic.seed = 9;
    const std::uint64_t count = 400;
    const std::vector<sim::Arrival> arrivals =
        sim::TrafficEngine(traffic).generate(count);
    sim::TrafficEngine waiting_engine(traffic);
    sim::TrafficEngine eager_engine(traffic);
    const std::vector<ServedBatch> waited = servedBatches(
        waiting.server.runTraffic(waiting_engine, count, queries, 5),
        arrivals);
    const std::vector<ServedBatch> eagerly = servedBatches(
        eager.server.runTraffic(eager_engine, count, queries, 5),
        arrivals);

    // Eager service time of every request served alone.
    std::vector<sim::Tick> alone_service(count + 1, 0);
    for (std::size_t b = 0; b < eagerly.size(); ++b) {
        const ServedBatch &batch = eagerly[b];
        const sim::Tick free_at = b == 0 ? 0 : eagerly[b - 1].finished;
        if (batch.first == batch.last)
            alone_service[batch.first] =
                batch.finished - std::max(free_at, batch.newest);
    }

    const std::size_t batch_size = waiting.spec.batchSize;
    std::size_t gathered = 0;
    std::size_t timed = 0;
    for (std::size_t b = 0; b < waited.size(); ++b) {
        const ServedBatch &batch = waited[b];
        const sim::Tick free_at = b == 0 ? 0 : waited[b - 1].finished;
        const sim::Tick close =
            std::max(free_at, batch.oldest + wait);
        // No member arrived after the window closed...
        EXPECT_LE(batch.newest, close) << "batch " << b;
        if (batch.size() >= batch_size)
            continue;
        // ... and a partial batch waited for every arrival up to the
        // close: the next arrival came later.
        if (batch.last < count) {
            EXPECT_GT(arrivals[batch.last].at, close)
                << "batch " << b << " closed early";
        }
        gathered += batch.size() > 1 ? 1 : 0;
        // A request served alone in both runs has the same service
        // time, so the waiting run started it exactly at the close.
        if (batch.first == batch.last
            && alone_service[batch.first] != 0) {
            EXPECT_EQ(batch.finished - close,
                      alone_service[batch.first])
                << "batch " << b << " did not start at its close";
            ++timed;
        }
    }
    // The window did gather arrivals, and most batches were checked
    // against the eager start.
    EXPECT_GT(gathered, 0u);
    EXPECT_GT(timed, waited.size() / 2);
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
