/**
 * @file
 * Chaos-swap fault campaign: randomized server hot swaps begun at a
 * random point of a request stream, with injected media faults
 * (uncorrectable reads that degrade rows to the screener score), DRAM
 * pressure that leaves no room for the staged screener, hostile
 * weights that fail validation, and idle-daemon advance steps.
 *
 * Invariants asserted on every interleaving:
 *  - every begun redeploy terminates in exactly one of Committed /
 *    RolledBack (never wedges, never ends anywhere else);
 *  - zero failed requests attributable to the swap: the server
 *    answers every enqueued request exactly once (no lost, no
 *    double-served ids) and sheds none;
 *  - the serving identity is consistent with the outcome (epoch
 *    advanced on commit, unchanged on rollback), and the surviving
 *    version keeps serving.
 *
 * Iteration counts scale with ECSSD_FUZZ_ITERS (the nightly long-fuzz
 * CI job sets it to soak far beyond the per-commit budget).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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

} // namespace

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
