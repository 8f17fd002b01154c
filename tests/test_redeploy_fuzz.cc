/**
 * @file
 * Chaos-swap fault campaign: randomized interleavings of redeploy
 * steps, session traffic, aborts, and injected device faults (high
 * uncorrectable-read rates, the read-only end-of-life latch, DRAM
 * pressure, hostile validation targets, tiny drain deadlines under
 * both expiry policies) against the staged hot-swap machinery, on
 * the API's sessions and on the server's request queue.
 *
 * Invariants asserted on every interleaving:
 *  - every begun redeploy terminates in exactly one of Committed /
 *    RolledBack (never wedges, never ends anywhere else);
 *  - every API call returns a defined Status — a session call is Ok
 *    or StaleSession, never an abort;
 *  - zero failed requests attributable to the swap: after the
 *    terminal phase a fresh session always serves end to end, and
 *    the server variant answers every enqueued request exactly once
 *    (no lost, no double-served ids);
 *  - the serving identity is consistent with the outcome (epoch
 *    advanced on commit, restored on rollback; a fleet never serves
 *    a mixed deployment).
 *
 * Iteration counts scale with ECSSD_FUZZ_ITERS (the nightly long-fuzz
 * CI job sets it to soak far beyond the per-commit budget).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <vector>

#include "ecssd/api.hh"
#include "ecssd/scale_out.hh"
#include "ecssd/server.hh"
#include "sim/rng.hh"

#include "fuzz_iters.hh"

using namespace ecssd;

namespace
{

xclass::BenchmarkSpec
chaosSpec()
{
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 512);
    spec.hiddenDim = 128;
    return spec;
}

/** Run one full query through @p session.  Every step must return
 *  the same verdict: all Ok (served) or all StaleSession (retired);
 *  any mix is a lost request. */
void
serveOrStale(InferenceSession &session,
             const std::vector<float> &query)
{
    const Status first = session.sendInt4(query);
    ASSERT_TRUE(first == Status::Ok || first == Status::StaleSession)
        << "sendInt4: " << toString(first);
    if (first == Status::StaleSession) {
        EXPECT_EQ(session.classify(), Status::StaleSession);
        return;
    }
    EXPECT_EQ(session.sendCfp32(query), Status::Ok);
    EXPECT_EQ(session.screen(), Status::Ok);
    EXPECT_EQ(session.classify(), Status::Ok);
    xclass::ApproximateClassifier::Prediction prediction;
    EXPECT_EQ(session.results(5, prediction), Status::Ok);
    EXPECT_FALSE(prediction.topCategories.empty());
}

} // namespace

TEST(ChaosSwap, EveryInterleavingTerminatesAndKeepsServing)
{
    const xclass::BenchmarkSpec spec = chaosSpec();
    const xclass::SyntheticModel model(spec, 1);
    const xclass::SyntheticModel hostile(spec, 2);

    const int iters = fuzzIters(10);
    for (int iter = 0; iter < iters; ++iter) {
        sim::Rng rng(1000 + static_cast<std::uint64_t>(iter));

        EcssdOptions options;
        options.ssd = ssdsim::smallTestConfig();
        options.ssd.channels = 8;
        // High media-fault pressure on some runs: the staging probes'
        // verify-reads then trip StagedMediaFault.
        const bool flaky = rng.uniform() < 0.35;
        if (flaky)
            options.ssd.uncorrectableReadRate =
                0.1 + 0.4 * rng.uniform();

        EcssdApi api(options);
        api.ecssdEnable();
        api.weightDeploy(model.weights(), spec);

        // Seed the recent-query ring so warm-up/validation have
        // material to replay.
        std::vector<std::vector<float>> queries;
        for (int q = 0; q < 4; ++q)
            queries.push_back(model.sampleQuery(rng));
        for (const auto &query : queries) {
            auto session = api.beginInference();
            serveOrStale(session, query);
        }

        // Pick this interleaving's fault scenario.
        const bool hostileWeights = rng.uniform() < 0.3;
        const bool dramPressure = rng.uniform() < 0.15;
        const bool readOnlyMidSwap = rng.uniform() < 0.25;
        const bool abortMidSwap = rng.uniform() < 0.25;
        RedeployConfig config;
        if (rng.uniform() < 0.3) {
            config.drainDeadline =
                sim::microseconds(50.0 + 500.0 * rng.uniform());
            config.drainTimeoutRollsBack = rng.uniform() < 0.5;
        }
        if (dramPressure) {
            ssdsim::DramModel &dram = api.system().ssd().dram();
            dram.reserve(dram.availableBytes() - 16);
        }

        const numeric::FloatMatrix &next =
            hostileWeights ? hostile.weights() : model.weights();
        ASSERT_EQ(api.redeployBegin(next, spec, config), Status::Ok);
        // One redeploy at a time (unless the first already rolled
        // back at begin, e.g. under DRAM pressure).
        if (api.redeployStatus().phase == RedeployPhase::Staging) {
            EXPECT_EQ(api.redeployBegin(next, spec, config),
                      Status::RedeployActive);
        }

        // Random interleaving of redeploy steps, session traffic,
        // faults, and aborts.
        std::vector<InferenceSession> sessions;
        bool forcedReadOnly = false;
        int step = 0;
        for (; step < 20000 && api.redeployStatus().phase != RedeployPhase::Committed
               && api.redeployStatus().phase != RedeployPhase::RolledBack;
             ++step) {
            const double dice = rng.uniform();
            if (dice < 0.45) {
                const Status advanced = api.redeployAdvance();
                ASSERT_TRUE(advanced == Status::Ok
                            || advanced == Status::NoRedeploy)
                    << toString(advanced);
            } else if (dice < 0.60) {
                if (sessions.size() < 4)
                    sessions.push_back(api.beginInference());
            } else if (dice < 0.75) {
                if (!sessions.empty()) {
                    const std::size_t pick = static_cast<std::size_t>(
                        rng.uniformInt(sessions.size()));
                    serveOrStale(sessions[pick],
                                 queries[static_cast<std::size_t>(
                                     rng.uniformInt(queries.size()))]);
                }
            } else if (dice < 0.85) {
                if (!sessions.empty())
                    sessions.erase(sessions.begin()
                                   + static_cast<std::ptrdiff_t>(
                                       rng.uniformInt(
                                           sessions.size())));
            } else if (dice < 0.92 && abortMidSwap) {
                const Status aborted = api.redeployAbort();
                ASSERT_TRUE(aborted == Status::Ok
                            || aborted == Status::RedeployActive
                            || aborted == Status::NoRedeploy)
                    << toString(aborted);
            } else if (readOnlyMidSwap && !forcedReadOnly) {
                api.system().ssd().ftl().forceReadOnly();
                forcedReadOnly = true;
            }
        }
        ASSERT_LT(step, 20000) << "redeploy wedged, iter " << iter;

        // Terminal, exactly one of the two outcomes, and the serving
        // identity matches it.
        const RedeployStatus status = api.redeployStatus();
        ASSERT_TRUE(status.phase == RedeployPhase::Committed
                    || status.phase == RedeployPhase::RolledBack)
            << toString(status.phase);
        if (status.phase == RedeployPhase::Committed) {
            EXPECT_EQ(api.deployEpoch(), status.newEpoch);
            EXPECT_EQ(status.reason, RollbackReason::None);
        } else {
            EXPECT_EQ(api.deployEpoch(), status.oldEpoch);
            EXPECT_NE(status.reason, RollbackReason::None);
        }

        // Zero failed requests attributable to the swap: whatever
        // happened, a fresh session serves end to end...
        auto fresh = api.beginInference();
        EXPECT_EQ(fresh.epoch(), api.deployEpoch());
        EXPECT_EQ(fresh.sendInt4(queries[0]), Status::Ok);
        EXPECT_EQ(fresh.sendCfp32(queries[0]), Status::Ok);
        EXPECT_EQ(fresh.screen(), Status::Ok);
        EXPECT_EQ(fresh.classify(), Status::Ok);
        xclass::ApproximateClassifier::Prediction prediction;
        EXPECT_EQ(fresh.results(5, prediction), Status::Ok);
        // ...and the survivors still answer with a defined verdict.
        for (auto &session : sessions)
            serveOrStale(session, queries[0]);
    }
}

TEST(ChaosSwap, ServerSwapNeverLosesOrDoublesRequests)
{
    xclass::BenchmarkSpec spec = chaosSpec();
    spec.categories = 1024;
    spec.batchSize = 4;
    const xclass::SyntheticModel model(spec, 1);
    const xclass::SyntheticModel hostile(spec, 2);

    const int iters = fuzzIters(6);
    for (int iter = 0; iter < iters; ++iter) {
        sim::Rng rng(2000 + static_cast<std::uint64_t>(iter));

        EcssdOptions options = EcssdOptions::full();
        if (rng.uniform() < 0.5) {
            options.ssd.uncorrectableReadRate = 0.05;
            options.degradedPolicy = rng.uniform() < 0.5
                ? accel::DegradedReadPolicy::FailBatch
                : accel::DegradedReadPolicy::ScreenerFallback;
        }
        // DRAM pressure on every third run: the device DRAM holds
        // the serving screener with a sliver to spare, so the staged
        // copy cannot fit.
        const bool dramPressure = iter % 3 == 2;
        if (dramPressure)
            options.ssd.dramBytes = spec.int4WeightBytes() + 16;
        InferenceServer server(model.weights(), spec, options,
                               &model.basis());

        // Enqueue some traffic, begin the swap at a random point,
        // then enqueue the rest.
        std::vector<InferenceServer::RequestId> ids;
        const int total = 8 + static_cast<int>(rng.uniformInt(9));
        const int before = static_cast<int>(
            rng.uniformInt(static_cast<std::uint64_t>(total)));
        for (int i = 0; i < before; ++i)
            ids.push_back(server.enqueue(model.sampleQuery(rng)));

        const bool hostileWeights = rng.uniform() < 0.4;
        ASSERT_EQ(server.beginRedeploy(hostileWeights
                                           ? hostile.weights()
                                           : model.weights(),
                                       spec),
                  Status::Ok);
        if (rng.uniform() < 0.3)
            server.redeployAdvance(); // idle daemon ticks
        for (int i = before; i < total; ++i)
            ids.push_back(server.enqueue(model.sampleQuery(rng)));

        const auto responses = server.processAll(5);

        // Exactly-once delivery across the flip: every enqueued id
        // answered, none twice, none shed by the swap.
        ASSERT_EQ(responses.size(), ids.size());
        std::vector<InferenceServer::RequestId> seen;
        for (const auto &response : responses) {
            seen.push_back(response.id);
            EXPECT_NE(response.status,
                      InferenceServer::Response::Status::Shed);
        }
        std::sort(seen.begin(), seen.end());
        EXPECT_EQ(seen, ids) << "lost or double-served ids, iter "
                             << iter;
        EXPECT_EQ(server.serverStats().shedRequests, 0u);

        // processAll finishes any in-flight swap: terminal, and the
        // identity matches the outcome.
        const RedeployStatus status = server.redeployStatus();
        ASSERT_TRUE(status.phase == RedeployPhase::Committed
                    || status.phase == RedeployPhase::RolledBack)
            << toString(status.phase);
        if (status.phase == RedeployPhase::Committed)
            EXPECT_EQ(server.deployEpoch(), 2u);
        else
            EXPECT_EQ(server.deployEpoch(), 1u);
        if (dramPressure) {
            EXPECT_EQ(status.reason, RollbackReason::DramPressure);
        }

        // The surviving version keeps serving.
        server.enqueue(model.sampleQuery(rng));
        const auto post = server.processAll(5);
        ASSERT_EQ(post.size(), 1u);
        EXPECT_NE(post[0].status,
                  InferenceServer::Response::Status::Shed);
    }
}

TEST(ChaosSwap, FleetRollNeverServesMixedDeployment)
{
    xclass::BenchmarkSpec spec = chaosSpec();
    spec.categories = 1024;

    const int iters = fuzzIters(5);
    for (int iter = 0; iter < iters; ++iter) {
        sim::Rng rng(3000 + static_cast<std::uint64_t>(iter));
        ScaleOutEcssd fleet(spec, 3);

        // Random shard faults before the roll.
        for (unsigned d = 0; d < fleet.devices(); ++d) {
            const double dice = rng.uniform();
            if (dice < 0.2)
                fleet.failShard(d);
            else if (dice < 0.35)
                fleet.shardSystem(d).ssd().ftl().forceReadOnly();
        }

        const std::uint64_t epochBefore = fleet.deployEpoch();
        const FleetRedeployResult result = fleet.rollingRedeploy();

        if (result.rolledBack) {
            // A reverted roll restores the old identity everywhere.
            EXPECT_EQ(result.shardsSwapped, 0u);
            EXPECT_NE(result.reason, RollbackReason::None);
            EXPECT_EQ(fleet.deployEpoch(), epochBefore);
        } else {
            EXPECT_GT(result.shardsSwapped, 0u);
            EXPECT_EQ(result.shardsSwapped + result.shardsSkipped,
                      fleet.devices());
            EXPECT_EQ(fleet.deployEpoch(), epochBefore + 1);
        }

        // Never mixed: every LIVE shard reports the fleet identity.
        for (unsigned d = 0; d < fleet.devices(); ++d) {
            if (!fleet.shardAlive(d))
                continue;
            const ssdsim::HealthReport report =
                fleet.shardHealthReport(d);
            EXPECT_EQ(report.deployEpoch, fleet.deployEpoch())
                << "shard " << d << " iter " << iter;
            EXPECT_EQ(report.weightVersion, fleet.weightVersion())
                << "shard " << d << " iter " << iter;
        }

        // The surviving fleet still serves (when anything is alive).
        if (fleet.aliveDevices() > 0) {
            const ScaleOutResult run = fleet.runInference(1);
            EXPECT_EQ(run.survivingDevices, fleet.aliveDevices());
        }
    }
}
