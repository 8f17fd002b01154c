/**
 * @file
 * Chaos-load campaign: randomized spike trains (process, rate,
 * burstiness, class mix) crossed with injected media faults
 * (uncorrectable reads that degrade rows to the screener score) and
 * a mid-spike weight redeploy, against the brownout ladder and the
 * batch-wait window.
 *
 * Invariants asserted on every configuration:
 *  - conservation: exactly one terminal response per arrival, ids
 *    unique, no request lost or double-terminated;
 *  - the Gold floor: with shedding only from the brownout ladder,
 *    Gold traffic is never shed and every served Gold answer
 *    carries a top-k (recall never below the screener floor);
 *  - steady state: after the stream drains the queue is empty, the
 *    brownout ladder is back at Full, and any in-flight hot swap
 *    reached a terminal phase;
 *  - bounded drain: the ladder's recovery climbs at most one rung
 *    per guard dwell, so the drain tail is a few guard periods, not
 *    unbounded.
 *
 * Iteration counts scale with ECSSD_FUZZ_ITERS (the nightly
 * long-fuzz CI job sets it to soak far beyond the per-commit
 * budget).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "ecssd/server.hh"
#include "sim/rng.hh"
#include "sim/traffic.hh"
#include "xclass/metrics.hh"

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
    spec.batchSize = 4;
    return spec;
}

} // namespace

TEST(ChaosLoad, SpikesFaultsAndRedeployPreserveEveryInvariant)
{
    const xclass::BenchmarkSpec spec = chaosSpec();
    const xclass::SyntheticModel model(spec, 1);
    const xclass::SyntheticModel next_version(spec, 2);
    std::vector<std::vector<float>> queries;
    {
        sim::Rng qrng(23);
        for (int q = 0; q < 24; ++q)
            queries.push_back(model.sampleQuery(qrng));
    }

    const int iters = fuzzIters(8);
    for (int iter = 0; iter < iters; ++iter) {
        sim::Rng rng(4000 + static_cast<std::uint64_t>(iter));

        // --- Randomized spike train --------------------------------
        sim::TrafficConfig traffic;
        const double shape = rng.uniform();
        traffic.process = shape < 0.6
            ? sim::ArrivalProcess::BurstySpike
            : (shape < 0.8 ? sim::ArrivalProcess::Diurnal
                           : sim::ArrivalProcess::Poisson);
        traffic.ratePerSecond = 5000.0 + 45000.0 * rng.uniform();
        traffic.burstRateMultiplier = 2.0 + 14.0 * rng.uniform();
        traffic.meanBurstSeconds = 0.005 + 0.03 * rng.uniform();
        traffic.meanCalmSeconds = 0.05 + 0.2 * rng.uniform();
        traffic.goldFraction = 0.1 + 0.4 * rng.uniform();
        traffic.users = 64 + rng.uniformInt(512);
        traffic.seed = 100 + static_cast<std::uint64_t>(iter);

        // --- Randomized fault pressure -----------------------------
        EcssdOptions options = EcssdOptions::full();
        const bool flaky = rng.uniform() < 0.4;
        if (flaky)
            options.ssd.uncorrectableReadRate =
                0.02 + 0.1 * rng.uniform();

        // --- Randomized overload-control stack ---------------------
        ServerConfig config;
        config.brownout.enterDelay =
            sim::microseconds(100.0 + 400.0 * rng.uniform());
        config.brownout.exitDelay = config.brownout.enterDelay / 2;
        config.brownout.recoveryGuard =
            sim::microseconds(20.0 + 100.0 * rng.uniform());
        config.brownout.reducedCandidateFraction =
            0.25 + 0.5 * rng.uniform();
        // Shedding comes only from the ladder in this campaign, so
        // the Gold floor is a hard invariant (no admission target
        // that could legally shed Gold).
        if (rng.uniform() < 0.5)
            config.batchMaxWait =
                sim::microseconds(50.0 + 200.0 * rng.uniform());

        InferenceServer server(model.weights(), spec, options,
                               &model.basis(), config);

        // --- Mid-spike redeploy ------------------------------------
        // Warm the recent-query ring first so validation has replay
        // material, then stage the swap; runTraffic's batch
        // boundaries step it through the spike.
        const bool redeploy = rng.uniform() < 0.5;
        if (redeploy) {
            for (int i = 0; i < 8; ++i)
                server.enqueue(queries[i % queries.size()]);
            server.processAll(5);
            ASSERT_EQ(server.beginRedeploy(next_version.weights(),
                                           spec),
                      Status::Ok);
        }
        const std::uint64_t already_issued =
            server.serverStats().acceptedRequests
            + server.serverStats().shedRequests;

        const std::uint64_t count = 800 + rng.uniformInt(1200);
        sim::TrafficEngine engine(traffic);
        const auto responses =
            server.runTraffic(engine, count, queries, 5);

        // --- Conservation: one terminal per arrival, ids unique ----
        ASSERT_EQ(responses.size(), count)
            << "iter " << iter << ": lost or duplicated terminals";
        std::set<InferenceServer::RequestId> ids;
        for (const auto &response : responses)
            ids.insert(response.id);
        ASSERT_EQ(ids.size(), count)
            << "iter " << iter << ": duplicate request ids";
        const ServerStats &stats = server.serverStats();
        EXPECT_EQ(stats.acceptedRequests + stats.shedRequests,
                  already_issued + count);

        // --- Gold floor --------------------------------------------
        for (const auto &response : responses) {
            if (response.cls != sim::RequestClass::Gold)
                continue;
            EXPECT_NE(response.status,
                      InferenceServer::Response::Status::Shed)
                << "iter " << iter << ": Gold shed by the ladder";
            // Every served Gold answer carries a top-k at screener
            // recall or better.
            EXPECT_FALSE(response.prediction.topCategories.empty())
                << "iter " << iter << ": empty Gold answer";
            EXPECT_LE(static_cast<int>(response.servedAt),
                      static_cast<int>(BrownoutLevel::ScreenerOnly));
        }

        // --- Steady state ------------------------------------------
        EXPECT_EQ(server.pending(), 0u);
        EXPECT_EQ(server.brownoutLevel(), BrownoutLevel::Full);
        if (redeploy) {
            EXPECT_FALSE(server.redeployActive())
                << "iter " << iter << ": swap wedged mid-flight";
            const RedeployStatus status = server.redeployStatus();
            EXPECT_TRUE(status.phase == RedeployPhase::Committed
                        || status.phase == RedeployPhase::RolledBack);
        }

        // --- Bounded drain -----------------------------------------
        // Recovery climbs one rung per guard dwell: from the bottom
        // of the ladder the drain tail is at most three guard
        // periods (plus one batch already accounted in deviceTime).
        sim::Tick last_completion = 0;
        for (const auto &response : responses)
            last_completion =
                std::max(last_completion, response.completedAt);
        EXPECT_LE(server.deviceTime(),
                  last_completion
                      + 3
                          * std::max<sim::Tick>(
                              config.brownout.recoveryGuard, 1));
    }
}

TEST(ChaosLoad, SustainedOverloadNeverSticksInShed)
{
    // The metastable failure mode: a ladder whose Shed rung lowers
    // the service rate can stay shedding forever after the spike
    // passes.  Here Shed only rejects new BestEffort arrivals while
    // admitted work is served at the cheapest rung, so a spike
    // followed by calm traffic must always recover to Full.
    const xclass::BenchmarkSpec spec = chaosSpec();
    const xclass::SyntheticModel model(spec, 1);
    std::vector<std::vector<float>> queries;
    {
        sim::Rng qrng(29);
        for (int q = 0; q < 16; ++q)
            queries.push_back(model.sampleQuery(qrng));
    }

    const int iters = fuzzIters(4);
    for (int iter = 0; iter < iters; ++iter) {
        // enterDelay must clear the no-queue batch sojourn (service
        // time alone) by a margin, or the controller reads healthy
        // light load as overload; only real queueing may trip it.
        ServerConfig config;
        config.brownout.enterDelay = sim::microseconds(4000.0);
        config.brownout.exitDelay = sim::microseconds(2000.0);
        config.brownout.recoveryGuard = sim::microseconds(500.0);
        InferenceServer server(model.weights(), spec,
                               EcssdOptions::full(), &model.basis(),
                               config);

        // Phase 1: a hard spike that drives the ladder to Shed.
        sim::TrafficConfig spike;
        spike.ratePerSecond = 80000.0;
        spike.seed = 900 + static_cast<std::uint64_t>(iter);
        sim::TrafficEngine spike_engine(spike);
        server.runTraffic(spike_engine, 1500, queries, 5);
        EXPECT_GT(server.serverStats().brownoutTransitions, 0u);
        EXPECT_EQ(server.brownoutLevel(), BrownoutLevel::Full);

        // Phase 2: calm traffic after the spike serves at Full with
        // no new sheds — no metastable sustained-shed state.
        sim::TrafficConfig calm;
        calm.ratePerSecond = 200.0;
        calm.seed = 1900 + static_cast<std::uint64_t>(iter);
        // Resume simulated time where the spike left the device: a
        // stream of arrivals dated before the server's clock would
        // look like an ancient backlog, not calm traffic.
        calm.startAt = server.deviceTime();
        sim::TrafficEngine calm_engine(calm);
        const std::uint64_t sheds_before =
            server.serverStats().shedRequests;
        const auto calm_responses =
            server.runTraffic(calm_engine, 200, queries, 5);
        EXPECT_EQ(server.serverStats().shedRequests, sheds_before);
        for (const auto &response : calm_responses)
            EXPECT_EQ(response.servedAt, BrownoutLevel::Full);
        EXPECT_EQ(server.brownoutLevel(), BrownoutLevel::Full);
    }
}
