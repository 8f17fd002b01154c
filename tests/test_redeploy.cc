/**
 * @file
 * Zero-downtime weight hot-swap tests: the redeploy driver's
 * budgeted staging, and the server's batch-boundary flip with its
 * rollback triggers.
 */

#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "ecssd/server.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"

using namespace ecssd;

// ---------------------------------------------------------------------
// InferenceServer: the batch-boundary flip
// ---------------------------------------------------------------------

namespace
{

struct ServerFixture
{
    ServerFixture() : spec(makeSpec()), model(spec, 1) {}

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
};

/** Every id in @p ids answered exactly once, and none shed. */
void
expectEachAnsweredOnce(
    const std::vector<InferenceServer::Response> &responses,
    const std::vector<InferenceServer::RequestId> &ids)
{
    std::vector<InferenceServer::RequestId> seen;
    for (const auto &response : responses) {
        seen.push_back(response.id);
        EXPECT_NE(response.status,
                  InferenceServer::Response::Status::Shed);
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, ids);
}

} // namespace

TEST(ServerRedeploy, SwapCommitsUnderLoadWithNoLostRequests)
{
    ServerFixture f;
    InferenceServer server(f.model.weights(), f.spec,
                           EcssdOptions::full(), &f.model.basis());
    EXPECT_EQ(server.deployEpoch(), 1u);
    EXPECT_EQ(server.weightVersion(), 1u);

    sim::Rng rng(23);
    std::vector<InferenceServer::RequestId> ids;
    for (int i = 0; i < 12; ++i)
        ids.push_back(server.enqueue(f.model.sampleQuery(rng)));

    ASSERT_EQ(server.beginRedeploy(f.model.weights(), f.spec,
                                  RedeployConfig{}, &f.model.basis()),
              Status::Ok);
    EXPECT_TRUE(server.redeployActive());
    // One swap at a time; a changed input width is unservable.
    EXPECT_EQ(server.beginRedeploy(f.model.weights(), f.spec,
                                  RedeployConfig{}, &f.model.basis()),
              Status::RedeployActive);

    const auto responses = server.processAll(5);
    ASSERT_EQ(responses.size(), ids.size());
    // Every enqueued request came back exactly once, served.
    std::vector<InferenceServer::RequestId> seen;
    for (const auto &response : responses) {
        seen.push_back(response.id);
        EXPECT_EQ(response.status,
                  InferenceServer::Response::Status::Ok);
        EXPECT_EQ(response.prediction.topCategories.size(), 5u);
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, ids);
    EXPECT_EQ(server.serverStats().shedRequests, 0u);

    // The swap flipped at a batch boundary and committed.
    EXPECT_FALSE(server.redeployActive());
    EXPECT_EQ(server.redeployStatus().phase,
              RedeployPhase::Committed);
    EXPECT_DOUBLE_EQ(server.redeployStatus().validationRecall, 1.0);
    EXPECT_EQ(server.deployEpoch(), 2u);
    EXPECT_EQ(server.weightVersion(), 2u);

    // The flipped server keeps serving.
    server.enqueue(f.model.sampleQuery(rng));
    const auto post = server.processAll(5);
    ASSERT_EQ(post.size(), 1u);
    EXPECT_EQ(post[0].status, InferenceServer::Response::Status::Ok);
}

TEST(ServerRedeploy, IdenticalWeightsSwapIsBitIdentical)
{
    // Metamorphic: a swap to the same weights and seed rebuilds the
    // same datapaths, so every answer after the commit is
    // bit-identical to the answer before the swap.
    ServerFixture f;
    InferenceServer server(f.model.weights(), f.spec,
                           EcssdOptions::full(), &f.model.basis());
    sim::Rng rng(47);
    std::vector<std::vector<float>> queries;
    for (int i = 0; i < 8; ++i)
        queries.push_back(f.model.sampleQuery(rng));
    const auto serveAll = [&] {
        for (const auto &query : queries)
            server.enqueue(query);
        return server.processAll(5);
    };
    const auto before = serveAll();

    ASSERT_EQ(server.beginRedeploy(f.model.weights(), f.spec,
                                  RedeployConfig{}, &f.model.basis()),
              Status::Ok);
    while (server.redeployActive())
        ASSERT_EQ(server.redeployAdvance(), Status::Ok);
    ASSERT_EQ(server.redeployStatus().phase,
              RedeployPhase::Committed);
    EXPECT_DOUBLE_EQ(server.redeployStatus().validationRecall, 1.0);
    EXPECT_EQ(server.redeployAdvance(), Status::NoRedeploy);

    const auto after = serveAll();
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(after[i].prediction.topCategories,
                  before[i].prediction.topCategories)
            << "prediction diverged across the swap, response " << i;
        EXPECT_EQ(after[i].prediction.topScores,
                  before[i].prediction.topScores)
            << "prediction diverged across the swap, response " << i;
    }
}

TEST(ServerRedeploy, DimensionChangeIsRejected)
{
    ServerFixture f;
    InferenceServer server(f.model.weights(), f.spec,
                           EcssdOptions::full(), &f.model.basis());
    xclass::BenchmarkSpec widened = f.spec;
    widened.hiddenDim *= 2;
    // Queued requests could no longer be served on a wider input.
    EXPECT_EQ(server.beginRedeploy(f.model.weights(), widened),
              Status::DimensionMismatch);
    EXPECT_FALSE(server.redeployActive());
}

TEST(ServerRedeploy, ValidationFailureKeepsOldVersionServing)
{
    ServerFixture f;
    InferenceServer server(f.model.weights(), f.spec,
                           EcssdOptions::full(), &f.model.basis());
    sim::Rng rng(29);
    for (int i = 0; i < 8; ++i)
        server.enqueue(f.model.sampleQuery(rng));

    xclass::SyntheticModel next(f.spec, 2);
    ASSERT_EQ(server.beginRedeploy(next.weights(), f.spec),
              Status::Ok);
    const auto responses = server.processAll(5);
    EXPECT_EQ(responses.size(), 8u);
    for (const auto &response : responses)
        EXPECT_EQ(response.status,
                  InferenceServer::Response::Status::Ok);

    EXPECT_EQ(server.redeployStatus().phase,
              RedeployPhase::RolledBack);
    EXPECT_EQ(server.redeployStatus().reason,
              RollbackReason::ValidationRecall);
    EXPECT_EQ(server.deployEpoch(), 1u);
    EXPECT_EQ(server.weightVersion(), 1u);
}

TEST(ServerRedeploy, DramPressureRollsBackBeforeStaging)
{
    // The device DRAM holds the serving screener with a sliver to
    // spare: the staged copy cannot fit next to it, so the swap
    // rolls back at begin and the old version serves on.
    ServerFixture f;
    EcssdOptions tight = EcssdOptions::full();
    tight.ssd.dramBytes = f.spec.int4WeightBytes() + 16;
    InferenceServer server(f.model.weights(), f.spec, tight,
                           &f.model.basis());
    sim::Rng rng(41);
    std::vector<InferenceServer::RequestId> ids;
    for (int i = 0; i < 8; ++i)
        ids.push_back(server.enqueue(f.model.sampleQuery(rng)));

    ASSERT_EQ(server.beginRedeploy(f.model.weights(), f.spec,
                                  RedeployConfig{}, &f.model.basis()),
              Status::Ok);
    const RedeployStatus begun = server.redeployStatus();
    EXPECT_EQ(begun.phase, RedeployPhase::RolledBack);
    EXPECT_EQ(begun.reason, RollbackReason::DramPressure);
    EXPECT_EQ(begun.stagedBytes, 0u);
    EXPECT_FALSE(server.redeployActive());

    const auto responses = server.processAll(5);
    ASSERT_EQ(responses.size(), ids.size());
    expectEachAnsweredOnce(responses, ids);
    EXPECT_EQ(server.redeployStatus().phase,
              RedeployPhase::RolledBack);
    EXPECT_EQ(server.deployEpoch(), 1u);
    EXPECT_EQ(server.weightVersion(), 1u);
}

TEST(ServerRedeploy, StagedMediaFaultRollsBack)
{
    // Every flash read is uncorrectable: requests still answer from
    // the screener (ScreenerFallback), but the staging probes'
    // verify-reads fail, so the swap must never flip onto this media.
    ServerFixture f;
    EcssdOptions failing = EcssdOptions::full();
    failing.ssd.uncorrectableReadRate = 1.0;
    InferenceServer server(f.model.weights(), f.spec, failing,
                           &f.model.basis());
    sim::Rng rng(43);
    std::vector<InferenceServer::RequestId> ids;
    for (int i = 0; i < 8; ++i)
        ids.push_back(server.enqueue(f.model.sampleQuery(rng)));

    ASSERT_EQ(server.beginRedeploy(f.model.weights(), f.spec,
                                  RedeployConfig{}, &f.model.basis()),
              Status::Ok);
    const auto responses = server.processAll(5);
    ASSERT_EQ(responses.size(), ids.size());
    expectEachAnsweredOnce(responses, ids);

    const RedeployStatus status = server.redeployStatus();
    EXPECT_EQ(status.phase, RedeployPhase::RolledBack);
    EXPECT_EQ(status.reason, RollbackReason::StagedMediaFault);
    EXPECT_EQ(server.deployEpoch(), 1u);
    EXPECT_EQ(server.weightVersion(), 1u);
}

TEST(RedeployDriver, ReadOnlyDeviceRollsBackStaging)
{
    // The end-of-life latch mid-staging: a read-only device can never
    // accept the staged programs, so the next staging step rolls back
    // and hands the staged screener's DRAM back to the live device.
    ServerFixture f;
    const EcssdOptions options = EcssdOptions::full();
    DeployedVersion live = buildVersion(f.model.weights(), f.spec,
                                        options, &f.model.basis());
    const ssdsim::DramModel &dram = live.system->ssd().dram();
    const std::uint64_t available = dram.availableBytes();

    RedeployConfig config;
    config.stepBytes = 64 * 1024; // several staging steps
    RedeployDriver driver;
    sim::Tick clock = 0;
    driver.begin(live, f.model.weights(), f.spec, &f.model.basis(),
                 config, options, nullptr, 2, clock);
    ASSERT_EQ(driver.phase(), RedeployPhase::Staging);
    EXPECT_LT(dram.availableBytes(), available);

    driver.step(live, clock);
    ASSERT_EQ(driver.phase(), RedeployPhase::Staging);
    // One swap at a time: a second begin() is an owner bug.
    EXPECT_THROW(driver.begin(live, f.model.weights(), f.spec,
                              &f.model.basis(), config, options,
                              nullptr, 3, clock),
                 sim::PanicError);
    live.system->ssd().ftl().forceReadOnly();
    driver.step(live, clock);

    const RedeployStatus status = driver.status();
    EXPECT_EQ(status.phase, RedeployPhase::RolledBack);
    EXPECT_EQ(status.reason, RollbackReason::DeviceReadOnly);
    EXPECT_LT(status.stagedBytes, status.totalBytes);
    EXPECT_EQ(dram.availableBytes(), available);
    EXPECT_TRUE(live.deployed());
    EXPECT_EQ(driver.rollbacks(), 1u);
    EXPECT_EQ(driver.commits(), 0u);
    // A terminal driver has nothing to step.
    EXPECT_THROW(driver.step(live, clock), sim::PanicError);
}

TEST(RedeployDriver, BudgetStretchesStagingTime)
{
    // Staging a footprint whose stop-the-world deploy takes T runs in
    // stepBytes chunks, each costing its byte share of T stretched by
    // 1 / ioBudgetFraction: T / fraction in all.
    ServerFixture f;
    const EcssdOptions options = EcssdOptions::full();
    DeployedVersion live = buildVersion(f.model.weights(), f.spec,
                                        options, &f.model.basis());
    RedeployConfig config;
    config.ioBudgetFraction = 0.25;
    config.stepBytes = 64 * 1024;
    RedeployDriver driver;
    sim::Tick clock = 0;
    driver.begin(live, f.model.weights(), f.spec, &f.model.basis(),
                 config, options, nullptr, 2, clock);
    unsigned steps = 0;
    while (driver.phase() == RedeployPhase::Staging) {
        driver.step(live, clock);
        ++steps;
        ASSERT_LT(steps, 1000u);
    }
    ASSERT_EQ(driver.phase(), RedeployPhase::Warming);

    const std::uint64_t total =
        f.spec.int4WeightBytes() + f.spec.fp32WeightBytes();
    const RedeployStatus status = driver.status();
    EXPECT_EQ(status.totalBytes, total);
    EXPECT_EQ(status.stagedBytes, total);
    EXPECT_EQ(steps, (total + config.stepBytes - 1) / config.stepBytes);
    // Staging is all the background time spent so far; each chunk's
    // cost truncates to whole ticks.
    EXPECT_EQ(clock, status.stagingTime);
    const double full =
        static_cast<double>(estimateDeployTime(f.spec, options.ssd));
    EXPECT_NEAR(static_cast<double>(status.stagingTime), full / 0.25,
                static_cast<double>(steps));
}

TEST(ServerRedeploy, RetryBackoffServesThroughTheFlip)
{
    // A flaky device serves batches with screener-degraded rows; the
    // swap must neither lose those requests nor flip mid-batch (the
    // flip is a batch-boundary event).
    ServerFixture f;
    EcssdOptions flaky = EcssdOptions::full();
    flaky.ssd.uncorrectableReadRate = 0.05;
    InferenceServer server(f.model.weights(), f.spec, flaky,
                           &f.model.basis());

    sim::Rng rng(31);
    std::vector<InferenceServer::RequestId> ids;
    for (int i = 0; i < 16; ++i)
        ids.push_back(server.enqueue(f.model.sampleQuery(rng)));
    // The default recall floor holds: the screener comparison is
    // exact (identical weights).
    RedeployConfig swap;
    ASSERT_EQ(server.beginRedeploy(f.model.weights(), f.spec, swap,
                                  &f.model.basis()),
              Status::Ok);

    const auto responses = server.processAll(5);
    ASSERT_EQ(responses.size(), ids.size());
    std::vector<InferenceServer::RequestId> seen;
    for (const auto &response : responses) {
        seen.push_back(response.id);
        // Served (possibly degraded), never lost to the swap.
        EXPECT_NE(response.status,
                  InferenceServer::Response::Status::Shed);
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, ids);

    const RedeployStatus status = server.redeployStatus();
    EXPECT_TRUE(status.phase == RedeployPhase::Committed
                || status.phase == RedeployPhase::RolledBack)
        << "swap left non-terminal: " << toString(status.phase);
}

TEST(ServerRedeploy, PublishesServingIdentityAndSwapCounters)
{
    ServerFixture f;
    InferenceServer server(f.model.weights(), f.spec,
                           EcssdOptions::full(), &f.model.basis());
    sim::Rng rng(37);
    for (int i = 0; i < 4; ++i)
        server.enqueue(f.model.sampleQuery(rng));
    server.processAll(5);

    // The serving identity is always exported...
    sim::MetricsRegistry before;
    server.publishMetrics(before);
    EXPECT_TRUE(before.has("server.deploy_epoch"));
    EXPECT_TRUE(before.has("server.weight_version"));
    // ...but the swap namespace only once a swap ran.
    std::ostringstream clean;
    before.writeJson(clean);
    EXPECT_EQ(clean.str().find("server.redeploy_"),
              std::string::npos);

    ASSERT_EQ(server.beginRedeploy(f.model.weights(), f.spec,
                                  RedeployConfig{}, &f.model.basis()),
              Status::Ok);
    while (server.redeployActive())
        server.redeployAdvance();
    ASSERT_EQ(server.redeployStatus().phase,
              RedeployPhase::Committed);

    sim::MetricsRegistry after;
    server.publishMetrics(after);
    EXPECT_EQ(after.gauge("server.deploy_epoch").value(), 2.0);
    EXPECT_EQ(after.gauge("server.redeploy_commits").value(), 1.0);
    EXPECT_EQ(after.gauge("server.redeploy_rollbacks").value(), 0.0);
}
