/**
 * @file
 * Zero-downtime weight hot-swap tests: the redeploy state machine,
 * the budgeted staging ledger, the full EcssdApi session lifecycle
 * across an epoch flip (drain windows, staleness, abort, rollback
 * triggers), the metamorphic identical-weights swap, the server's
 * batch-boundary flip, and the fleet's rolling redeploy.
 */

#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "ecssd/api.hh"
#include "ecssd/scale_out.hh"
#include "ecssd/server.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"

using namespace ecssd;

namespace
{

struct ApiFixture
{
    /** A deployed accelerator-mode API on a small device. */
    ApiFixture()
        : spec(makeSpec()), model(spec, 1), api(makeOptions())
    {
        api.ecssdEnable();
        api.weightDeploy(model.weights(), spec);
    }

    static xclass::BenchmarkSpec
    makeSpec()
    {
        xclass::BenchmarkSpec spec = xclass::scaledDown(
            xclass::benchmarkByName("GNMT-E32K"), 512);
        spec.hiddenDim = 128;
        return spec;
    }

    static EcssdOptions
    makeOptions()
    {
        EcssdOptions options;
        options.ssd = ssdsim::smallTestConfig();
        options.ssd.channels = 8;
        return options;
    }

    /** Run one full query through @p session; every step must be Ok.
     *  @return The prediction. */
    xclass::ApproximateClassifier::Prediction
    serve(InferenceSession &session, const std::vector<float> &query,
          std::size_t k = 5)
    {
        EXPECT_EQ(session.sendInt4(query), Status::Ok);
        EXPECT_EQ(session.sendCfp32(query), Status::Ok);
        EXPECT_EQ(session.screen(), Status::Ok);
        EXPECT_EQ(session.classify(), Status::Ok);
        xclass::ApproximateClassifier::Prediction prediction;
        EXPECT_EQ(session.results(k, prediction), Status::Ok);
        return prediction;
    }

    /** Record @p count queries into the API's recent-query ring (the
     *  warm-up / validation replay material). */
    std::vector<std::vector<float>>
    recordQueries(int count, std::uint64_t seed = 7)
    {
        sim::Rng rng(seed);
        std::vector<std::vector<float>> queries;
        for (int q = 0; q < count; ++q) {
            queries.push_back(model.sampleQuery(rng));
            auto session = api.beginInference();
            serve(session, queries.back());
        }
        return queries;
    }

    /** Advance the active redeploy until it reaches @p phase (dies if
     *  it terminates first). */
    void
    advanceUntil(RedeployPhase phase)
    {
        for (int step = 0; step < 100000; ++step) {
            const RedeployStatus status = api.redeployStatus();
            if (status.phase == phase)
                return;
            ASSERT_FALSE(status.phase == RedeployPhase::Committed
                         || status.phase == RedeployPhase::RolledBack)
                << "redeploy terminated in " << toString(status.phase)
                << " before reaching " << toString(phase);
            api.redeployAdvance();
        }
        FAIL() << "redeploy never reached " << toString(phase);
    }

    xclass::BenchmarkSpec spec;
    xclass::SyntheticModel model;
    EcssdApi api;
};

bool
samePrediction(const xclass::ApproximateClassifier::Prediction &a,
               const xclass::ApproximateClassifier::Prediction &b)
{
    return a.topCategories == b.topCategories
        && a.topScores == b.topScores;
}

} // namespace

// ---------------------------------------------------------------------
// RedeployMachine / StagingLedger
// ---------------------------------------------------------------------

TEST(RedeployMachine, LegalPathCommits)
{
    RedeployMachine machine;
    EXPECT_EQ(machine.phase(), RedeployPhase::Idle);
    EXPECT_FALSE(machine.active());

    machine.begin(0);
    EXPECT_TRUE(machine.active());
    EXPECT_TRUE(machine.preFlip());
    machine.advanceTo(RedeployPhase::Warming, 10);
    machine.advanceTo(RedeployPhase::Validating, 20);
    machine.advanceTo(RedeployPhase::Flipping, 30);
    EXPECT_FALSE(machine.preFlip());
    machine.advanceTo(RedeployPhase::Draining, 30);
    machine.advanceTo(RedeployPhase::Committed, 40);
    EXPECT_TRUE(machine.terminal());
    EXPECT_FALSE(machine.active());
    EXPECT_EQ(machine.commits(), 1u);
    EXPECT_EQ(machine.rollbacks(), 0u);
    EXPECT_EQ(machine.reason(), RollbackReason::None);

    // Terminal machines can begin a fresh redeploy.
    machine.begin(50);
    EXPECT_EQ(machine.phase(), RedeployPhase::Staging);
}

TEST(RedeployMachine, IllegalTransitionsDie)
{
    RedeployMachine machine;
    // No redeploy active: neither advance nor rollback is legal.
    EXPECT_THROW(machine.advanceTo(RedeployPhase::Warming, 0),
                 sim::PanicError);
    EXPECT_THROW(machine.rollback(RollbackReason::Aborted, 0),
                 sim::PanicError);

    machine.begin(0);
    // Skipping a phase is a wedged owner, not a state.
    EXPECT_THROW(machine.advanceTo(RedeployPhase::Validating, 1),
                 sim::PanicError);
    EXPECT_THROW(machine.begin(1), sim::PanicError);
}

TEST(RedeployMachine, RollbackFromAnyActivePhase)
{
    RedeployMachine machine;
    machine.begin(0);
    machine.advanceTo(RedeployPhase::Warming, 1);
    machine.rollback(RollbackReason::ValidationRecall, 2);
    EXPECT_EQ(machine.phase(), RedeployPhase::RolledBack);
    EXPECT_EQ(machine.reason(), RollbackReason::ValidationRecall);
    EXPECT_EQ(machine.rollbacks(), 1u);
    EXPECT_EQ(machine.commits(), 0u);
}

TEST(StagingLedger, BudgetStretchesBackgroundTime)
{
    StagingLedger ledger;
    // 100 bytes whose stop-the-world deploy takes 1000 ticks, staged
    // at a 25% bandwidth share in 30-byte steps.
    ledger.reset(100, 1000, 0.25, 30);
    EXPECT_FALSE(ledger.done());
    sim::Tick elapsed = 0;
    unsigned steps = 0;
    while (!ledger.done()) {
        elapsed += ledger.step();
        ++steps;
        ASSERT_LT(steps, 100u);
    }
    EXPECT_EQ(steps, 4u); // 30 + 30 + 30 + 10
    EXPECT_EQ(ledger.stagedBytes(), 100u);
    // The budget stretches the 1000-tick copy by 1/0.25.
    EXPECT_EQ(elapsed, ledger.elapsed());
    EXPECT_NEAR(static_cast<double>(elapsed), 4000.0, 2.0);
    // A done ledger stages nothing further.
    EXPECT_EQ(ledger.step(), 0u);
}

// ---------------------------------------------------------------------
// EcssdApi: guards and the commit path
// ---------------------------------------------------------------------

TEST(ApiRedeploy, GuardsReportThroughStatus)
{
    ApiFixture f;
    EcssdApi api(ApiFixture::makeOptions());
    // Accelerator mode is a precondition.
    EXPECT_EQ(api.redeployBegin(f.model.weights(), f.spec),
              Status::WrongMode);
    api.ecssdEnable();
    // So is a first stop-the-world deployment.
    EXPECT_EQ(api.redeployBegin(f.model.weights(), f.spec),
              Status::NotDeployed);
    api.weightDeploy(f.model.weights(), f.spec);

    // Mismatched weights/spec.
    xclass::BenchmarkSpec wrong = f.spec;
    wrong.categories *= 2;
    EXPECT_EQ(api.redeployBegin(f.model.weights(), wrong),
              Status::DimensionMismatch);

    // Redeploy calls with nothing in flight.
    EXPECT_EQ(api.redeployAdvance(), Status::NoRedeploy);
    EXPECT_EQ(api.redeployAbort(), Status::NoRedeploy);
    EXPECT_EQ(api.redeployStatus().phase, RedeployPhase::Idle);

    // One redeploy at a time: a second begin is rejected, the first
    // stays active.
    EXPECT_EQ(api.redeployBegin(f.model.weights(), f.spec),
              Status::Ok);
    EXPECT_EQ(api.redeployBegin(f.model.weights(), f.spec),
              Status::RedeployActive);
    EXPECT_EQ(api.redeployStatus().phase, RedeployPhase::Staging);
}

TEST(ApiRedeploy, IdenticalWeightsSwapCommits)
{
    ApiFixture f;
    EcssdApi &api = f.api;
    f.recordQueries(4);
    EXPECT_EQ(api.deployEpoch(), 1u);
    EXPECT_EQ(api.weightVersion(), 1u);

    ASSERT_EQ(api.redeployBegin(f.model.weights(), f.spec),
              Status::Ok);
    const sim::Tick staging = api.redeployRun();
    EXPECT_GT(staging, 0u);

    const RedeployStatus status = api.redeployStatus();
    EXPECT_EQ(status.phase, RedeployPhase::Committed);
    EXPECT_EQ(status.reason, RollbackReason::None);
    EXPECT_EQ(status.stagedBytes, status.totalBytes);
    EXPECT_GT(status.totalBytes, 0u);
    // Identical weights screen identically: exact full recall.
    EXPECT_DOUBLE_EQ(status.validationRecall, 1.0);
    EXPECT_EQ(status.oldEpoch, 1u);
    EXPECT_EQ(status.newEpoch, 2u);
    EXPECT_EQ(api.deployEpoch(), 2u);
    EXPECT_EQ(api.weightVersion(), 2u);

    // The new epoch serves.
    sim::Rng rng(9);
    auto session = api.beginInference();
    EXPECT_EQ(session.epoch(), 2u);
    f.serve(session, f.model.sampleQuery(rng));
}

TEST(ApiRedeploy, OldSessionServesThroughDrainThenCloses)
{
    ApiFixture f;
    EcssdApi &api = f.api;
    const auto queries = f.recordQueries(2);

    // Hold a session open across the flip; a generous deadline keeps
    // the drain window open while we serve on it.
    RedeployConfig config;
    config.drainDeadline = sim::milliseconds(10000.0);
    auto old_session = api.beginInference();
    EXPECT_EQ(old_session.epoch(), 1u);

    ASSERT_EQ(api.redeployBegin(f.model.weights(), f.spec, config),
              Status::Ok);
    f.advanceUntil(RedeployPhase::Draining);
    EXPECT_EQ(api.deployEpoch(), 2u);
    EXPECT_EQ(api.redeployStatus().inFlightOldSessions, 1u);

    // The old-epoch session keeps serving on the draining version.
    f.serve(old_session, queries[0]);
    EXPECT_EQ(api.redeployStatus().phase, RedeployPhase::Draining);

    // Closing the last old-epoch session commits the drain at once.
    { InferenceSession closer = std::move(old_session); }
    EXPECT_EQ(api.redeployStatus().phase, RedeployPhase::Committed);
    EXPECT_EQ(api.redeployStatus().inFlightOldSessions, 0u);
}

TEST(ApiRedeploy, StaleSessionOnlyAfterDrainDeadline)
{
    ApiFixture f;
    EcssdApi &api = f.api;
    const auto queries = f.recordQueries(2);

    RedeployConfig config;
    config.drainDeadline = sim::milliseconds(500.0);
    config.drainPollInterval = sim::milliseconds(100.0);
    auto old_session = api.beginInference();

    ASSERT_EQ(api.redeployBegin(f.model.weights(), f.spec, config),
              Status::Ok);
    f.advanceUntil(RedeployPhase::Draining);

    // Inside the drain window the old session is NOT stale.
    EXPECT_EQ(old_session.sendInt4(queries[0]), Status::Ok);

    // Burn through the deadline with drain polls; the default policy
    // commits and force-retires the straggler.
    while (api.redeployStatus().phase == RedeployPhase::Draining)
        api.redeployAdvance();
    EXPECT_EQ(api.redeployStatus().phase, RedeployPhase::Committed);
    EXPECT_GE(api.redeployStatus().drainElapsed,
              config.drainDeadline);

    EXPECT_EQ(old_session.sendInt4(queries[0]),
              Status::StaleSession);
    EXPECT_EQ(old_session.classify(), Status::StaleSession);

    // New-epoch sessions are untouched.
    auto fresh = api.beginInference();
    f.serve(fresh, queries[1]);
}

TEST(ApiRedeploy, DrainTimeoutRollsBackUnderStrictPolicy)
{
    ApiFixture f;
    EcssdApi &api = f.api;
    const auto queries = f.recordQueries(2);

    RedeployConfig config;
    config.drainDeadline = sim::milliseconds(1.0);
    config.drainPollInterval = sim::milliseconds(1.0);
    config.drainTimeoutRollsBack = true;
    auto old_session = api.beginInference();

    ASSERT_EQ(api.redeployBegin(f.model.weights(), f.spec, config),
              Status::Ok);
    f.advanceUntil(RedeployPhase::Draining);
    // A session admitted during the drain binds to the new epoch.
    auto new_session = api.beginInference();
    EXPECT_EQ(new_session.epoch(), 2u);

    while (api.redeployStatus().phase == RedeployPhase::Draining)
        api.redeployAdvance();

    const RedeployStatus status = api.redeployStatus();
    EXPECT_EQ(status.phase, RedeployPhase::RolledBack);
    EXPECT_EQ(status.reason, RollbackReason::DrainTimeout);

    // The old epoch serves again; the rolled-back epoch is burned.
    EXPECT_EQ(api.deployEpoch(), 1u);
    EXPECT_EQ(api.weightVersion(), 1u);
    f.serve(old_session, queries[0]);
    EXPECT_EQ(new_session.sendInt4(queries[1]),
              Status::StaleSession);
    // And the next admitted session never reuses the burned epoch.
    auto after = api.beginInference();
    EXPECT_EQ(after.epoch(), 1u);
}

TEST(ApiRedeploy, AbortMidWarmingRollsBackAndReleasesCapacity)
{
    ApiFixture f;
    EcssdApi &api = f.api;
    f.recordQueries(4);

    ASSERT_EQ(api.redeployBegin(f.model.weights(), f.spec),
              Status::Ok);
    f.advanceUntil(RedeployPhase::Warming);
    EXPECT_EQ(api.redeployAbort(), Status::Ok);

    const RedeployStatus status = api.redeployStatus();
    EXPECT_EQ(status.phase, RedeployPhase::RolledBack);
    EXPECT_EQ(status.reason, RollbackReason::Aborted);
    EXPECT_EQ(api.deployEpoch(), 1u);

    // The live version was never disturbed...
    sim::Rng rng(11);
    auto session = api.beginInference();
    f.serve(session, f.model.sampleQuery(rng));
    // ...and the staged reservation was released: a fresh redeploy
    // can claim the same capacity again.
    EXPECT_EQ(api.redeployBegin(f.model.weights(), f.spec),
              Status::Ok);
    EXPECT_EQ(api.redeployStatus().phase, RedeployPhase::Staging);
}

TEST(ApiRedeploy, AbortAfterFlipIsRejected)
{
    ApiFixture f;
    EcssdApi &api = f.api;
    f.recordQueries(2);

    RedeployConfig config;
    config.drainDeadline = sim::milliseconds(10000.0);
    auto old_session = api.beginInference();
    ASSERT_EQ(api.redeployBegin(f.model.weights(), f.spec, config),
              Status::Ok);
    f.advanceUntil(RedeployPhase::Draining);

    // Post-flip the swap is already serving: abort is too late.
    EXPECT_EQ(api.redeployAbort(), Status::RedeployActive);
    EXPECT_EQ(api.redeployStatus().phase, RedeployPhase::Draining);
}

// ---------------------------------------------------------------------
// EcssdApi: rollback triggers
// ---------------------------------------------------------------------

TEST(ApiRedeploy, ValidationRecallBelowFloorRollsBack)
{
    ApiFixture f;
    EcssdApi &api = f.api;
    f.recordQueries(4);

    // Freshly-drawn synthetic weights share no screening structure
    // with the deployed version: shadow recall collapses and the
    // default 0.9 floor must roll the swap back.
    xclass::SyntheticModel next(f.spec, 2);
    ASSERT_EQ(api.redeployBegin(next.weights(), f.spec), Status::Ok);
    api.redeployRun();

    const RedeployStatus status = api.redeployStatus();
    EXPECT_EQ(status.phase, RedeployPhase::RolledBack);
    EXPECT_EQ(status.reason, RollbackReason::ValidationRecall);
    EXPECT_LT(status.validationRecall, 0.9);
    EXPECT_EQ(api.deployEpoch(), 1u);
    EXPECT_EQ(api.weightVersion(), 1u);

    // Zero failed requests: the old version serves on.
    sim::Rng rng(13);
    auto session = api.beginInference();
    f.serve(session, f.model.sampleQuery(rng));
}

TEST(ApiRedeploy, ReadOnlyDeviceRollsBackStaging)
{
    ApiFixture f;
    EcssdApi &api = f.api;
    f.recordQueries(2);

    // The end-of-life latch: a read-only device can never accept the
    // staged programs.
    api.system().ssd().ftl().forceReadOnly();
    ASSERT_EQ(api.redeployBegin(f.model.weights(), f.spec),
              Status::Ok);
    api.redeployRun();

    const RedeployStatus status = api.redeployStatus();
    EXPECT_EQ(status.phase, RedeployPhase::RolledBack);
    EXPECT_EQ(status.reason, RollbackReason::DeviceReadOnly);
    EXPECT_EQ(api.deployEpoch(), 1u);

    // Reads still serve on the read-only device.
    sim::Rng rng(17);
    auto session = api.beginInference();
    f.serve(session, f.model.sampleQuery(rng));
}

TEST(ApiRedeploy, DramPressureRollsBackBeforeStaging)
{
    ApiFixture f;
    EcssdApi &api = f.api;

    // Eat the device's leftover DRAM down to a sliver the staged
    // INT4 screener cannot fit.
    ssdsim::DramModel &dram = api.system().ssd().dram();
    dram.reserve(dram.availableBytes() - 16);

    ASSERT_EQ(api.redeployBegin(f.model.weights(), f.spec),
              Status::Ok);
    const RedeployStatus status = api.redeployStatus();
    EXPECT_EQ(status.phase, RedeployPhase::RolledBack);
    EXPECT_EQ(status.reason, RollbackReason::DramPressure);
    EXPECT_EQ(api.deployEpoch(), 1u);

    sim::Rng rng(19);
    auto session = api.beginInference();
    f.serve(session, f.model.sampleQuery(rng));
}

// ---------------------------------------------------------------------
// Metamorphic: a swap to identical weights is invisible
// ---------------------------------------------------------------------

TEST(ApiRedeploy, IdenticalWeightsSwapIsBitIdentical)
{
    ApiFixture f;
    EcssdApi &api = f.api;
    const auto queries = f.recordQueries(3);

    // Reference predictions before the swap.
    std::vector<xclass::ApproximateClassifier::Prediction> before;
    for (const auto &query : queries) {
        auto session = api.beginInference();
        before.push_back(f.serve(session, query));
    }

    RedeployConfig config;
    config.drainDeadline = sim::milliseconds(10000.0);
    auto old_session = api.beginInference();
    ASSERT_EQ(api.redeployBegin(f.model.weights(), f.spec, config),
              Status::Ok);
    f.advanceUntil(RedeployPhase::Draining);

    // During the drain, the old-epoch session answers bit-identically
    // (it still runs the old version's datapaths).
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto during = f.serve(old_session, queries[q]);
        EXPECT_TRUE(samePrediction(before[q], during))
            << "old-epoch prediction diverged during drain, query "
            << q;
    }

    { InferenceSession closer = std::move(old_session); }
    ASSERT_EQ(api.redeployStatus().phase, RedeployPhase::Committed);
    EXPECT_DOUBLE_EQ(api.redeployStatus().validationRecall, 1.0);

    // After the commit, the new version's datapaths are rebuilt from
    // the same weights and seed: still bit-identical.
    for (std::size_t q = 0; q < queries.size(); ++q) {
        auto session = api.beginInference();
        const auto after = f.serve(session, queries[q]);
        EXPECT_TRUE(samePrediction(before[q], after))
            << "prediction diverged across the swap, query " << q;
    }
}

// ---------------------------------------------------------------------
// Observability and health
// ---------------------------------------------------------------------

TEST(ApiRedeploy, NoRedeployRunPublishesNoRedeployKeys)
{
    ApiFixture f;
    EcssdApi &api = f.api;
    sim::MetricsRegistry registry;
    api.attachObservability(&registry, nullptr);
    f.recordQueries(2);

    // A run that never began a redeploy must stay clean of the
    // redeploy namespace (byte-identity with pre-hot-swap builds).
    api.publishRedeployMetrics(registry);
    std::ostringstream json;
    registry.writeJson(json);
    EXPECT_EQ(json.str().find("redeploy."), std::string::npos);

    // After a committed swap the namespace appears.
    ASSERT_EQ(api.redeployBegin(f.model.weights(), f.spec),
              Status::Ok);
    api.redeployRun();
    ASSERT_EQ(api.redeployStatus().phase, RedeployPhase::Committed);
    api.publishRedeployMetrics(registry);
    std::ostringstream after;
    registry.writeJson(after);
    EXPECT_NE(after.str().find("redeploy.phase"), std::string::npos);
    EXPECT_NE(after.str().find("redeploy.commits"),
              std::string::npos);
}

TEST(ApiRedeploy, HealthReportCarriesServingIdentity)
{
    ApiFixture f;
    EcssdApi &api = f.api;
    f.recordQueries(2);

    ssdsim::HealthReport before = api.system().health(0);
    EXPECT_EQ(before.deployEpoch, 1u);
    EXPECT_EQ(before.weightVersion, 1u);

    ASSERT_EQ(api.redeployBegin(f.model.weights(), f.spec),
              Status::Ok);
    api.redeployRun();
    ASSERT_EQ(api.redeployStatus().phase, RedeployPhase::Committed);

    ssdsim::HealthReport after = api.system().health(0);
    EXPECT_EQ(after.deployEpoch, 2u);
    EXPECT_EQ(after.weightVersion, 2u);
}

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
    failing.degradedPolicy =
        accel::DegradedReadPolicy::ScreenerFallback;
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

TEST(ServerRedeploy, RetryBackoffServesThroughTheFlip)
{
    // A flaky device under the FailBatch policy retries batches with
    // backoff; the swap must neither lose those requests nor flip
    // mid-retry (the flip is a batch-boundary event).
    ServerFixture f;
    EcssdOptions flaky = EcssdOptions::full();
    flaky.ssd.uncorrectableReadRate = 0.05;
    flaky.degradedPolicy = accel::DegradedReadPolicy::FailBatch;
    ServerConfig config;
    config.maxBatchRetries = 3;
    InferenceServer server(f.model.weights(), f.spec, flaky,
                           &f.model.basis(), config);

    sim::Rng rng(31);
    std::vector<InferenceServer::RequestId> ids;
    for (int i = 0; i < 16; ++i)
        ids.push_back(server.enqueue(f.model.sampleQuery(rng)));
    // Relax the recall floor: the flaky screener comparison is still
    // exact (identical weights), but keep the test about retries.
    RedeployConfig swap;
    ASSERT_EQ(server.beginRedeploy(f.model.weights(), f.spec, swap,
                                  &f.model.basis()),
              Status::Ok);

    const auto responses = server.processAll(5);
    ASSERT_EQ(responses.size(), ids.size());
    std::vector<InferenceServer::RequestId> seen;
    for (const auto &response : responses) {
        seen.push_back(response.id);
        // Served (possibly degraded after exhausted retries), never
        // lost to the swap.
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

// ---------------------------------------------------------------------
// Scale-out fleet: rolling redeploy
// ---------------------------------------------------------------------

namespace
{

xclass::BenchmarkSpec
fleetSpec()
{
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 2048);
    spec.hiddenDim = 128;
    return spec;
}

} // namespace

TEST(FleetRedeploy, RollingSwapFlipsEveryShard)
{
    ScaleOutEcssd fleet(fleetSpec(), 4);
    EXPECT_EQ(fleet.deployEpoch(), 1u);
    EXPECT_EQ(fleet.weightVersion(), 1u);

    const FleetRedeployResult result = fleet.rollingRedeploy();
    EXPECT_FALSE(result.rolledBack);
    EXPECT_EQ(result.shardsSwapped, 4u);
    EXPECT_EQ(result.shardsSkipped, 0u);
    EXPECT_GT(result.stagingTime, 0u);
    EXPECT_EQ(result.weightVersion, 2u);
    EXPECT_EQ(fleet.deployEpoch(), 2u);
    EXPECT_EQ(fleet.weightVersion(), 2u);
    // Every shard reports the new serving identity through SMART.
    for (unsigned d = 0; d < fleet.devices(); ++d) {
        const ssdsim::HealthReport report = fleet.shardHealthReport(d);
        EXPECT_EQ(report.deployEpoch, 2u);
        EXPECT_EQ(report.weightVersion, 2u);
    }
    // The rolled fleet still serves.
    const ScaleOutResult run = fleet.runInference(1);
    EXPECT_EQ(run.survivingDevices, 4u);
}

TEST(FleetRedeploy, DeadShardIsSkippedNotFatal)
{
    ScaleOutEcssd fleet(fleetSpec(), 4);
    fleet.failShard(2);

    const FleetRedeployResult result = fleet.rollingRedeploy();
    EXPECT_FALSE(result.rolledBack);
    EXPECT_EQ(result.shardsSwapped, 3u);
    EXPECT_EQ(result.shardsSkipped, 1u);
    EXPECT_EQ(fleet.deployEpoch(), 2u);
}

TEST(FleetRedeploy, ReadOnlyShardRevertsTheWholeRoll)
{
    ScaleOutEcssd fleet(fleetSpec(), 4);
    // Shard 2 latches read-only: the roll swaps shards 0 and 1, then
    // must revert them — the fleet never serves a mixed deployment.
    fleet.shardSystem(2).ssd().ftl().forceReadOnly();

    const FleetRedeployResult result = fleet.rollingRedeploy();
    EXPECT_TRUE(result.rolledBack);
    EXPECT_EQ(result.reason, RollbackReason::ShardLoss);
    EXPECT_EQ(result.shardsSwapped, 0u);
    EXPECT_EQ(fleet.deployEpoch(), 1u);
    EXPECT_EQ(fleet.weightVersion(), 1u);
    for (unsigned d = 0; d < fleet.devices(); ++d) {
        const ssdsim::HealthReport report = fleet.shardHealthReport(d);
        EXPECT_EQ(report.deployEpoch, 1u) << "shard " << d;
        EXPECT_EQ(report.weightVersion, 1u) << "shard " << d;
    }
    // A fleet with no live shard at all also reports a rollback.
    ScaleOutEcssd dead(fleetSpec(), 2);
    dead.failShard(0);
    dead.failShard(1);
    const FleetRedeployResult none = dead.rollingRedeploy();
    EXPECT_TRUE(none.rolledBack);
    EXPECT_EQ(none.reason, RollbackReason::ShardLoss);
    EXPECT_EQ(dead.deployEpoch(), 1u);
}
