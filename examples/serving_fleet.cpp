/**
 * @file
 * Production-style serving: a request queue in front of one ECSSD
 * (latency percentiles via the InferenceServer), the Section 7.1
 * scale-out path when the model outgrows one device's DRAM, and the
 * fault-tolerance story — serving through uncorrectable reads via
 * the INT4 screener fallback, and merging over survivors when a
 * fleet device dies mid-run.
 */

#include <cstdio>

#include "ecssd/scale_out.hh"
#include "ecssd/server.hh"
#include "sim/rng.hh"

using namespace ecssd;

int
main()
{
    // --- Single-device serving with a request queue ---------------
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("XMLCNN-S10M"), 4096);
    spec.hiddenDim = 256;
    spec.batchSize = 8;
    const xclass::SyntheticModel model(spec, 41);

    InferenceServer server(model.weights(), spec,
                           EcssdOptions::full(), &model.basis());
    sim::Rng rng(42);
    for (int request = 0; request < 64; ++request)
        server.enqueue(model.sampleQuery(rng));

    const auto responses = server.processAll(/*k=*/5);
    std::printf("served %zu requests in %.3f ms of device time\n",
                responses.size(),
                sim::tickToMs(server.deviceTime()));
    std::printf("latency mean %.3f ms, min %.3f, max %.3f "
                "(batching holds early arrivals)\n",
                server.latencyMs().mean(), server.latencyMs().min(),
                server.latencyMs().max());

    // --- Scale-out when the layer outgrows one device --------------
    xclass::BenchmarkSpec huge =
        xclass::benchmarkByName("XMLCNN-S100M");
    huge.categories = 500000000; // the paper's 500M example
    const unsigned devices =
        ScaleOutEcssd::devicesNeeded(huge, 16ULL << 30);
    std::printf("\na 500M-category layer needs %u ECSSDs\n",
                devices);

    // Simulate the fleet on a scaled shard (ratios preserved).
    xclass::BenchmarkSpec scaled = xclass::scaledDown(huge, 327680);
    ScaleOutEcssd fleet(scaled, devices);
    const ScaleOutResult result = fleet.runInference(2);
    std::printf("fleet of %u: %.3f ms/batch, %.1f mJ/batch total\n",
                fleet.devices(), result.meanBatchMs,
                result.totalEnergyUj / 2.0 / 1000.0);

    ScaleOutEcssd single(scaled, 1);
    const ScaleOutResult alone = single.runInference(2);
    std::printf("one device:  %.3f ms/batch  (fleet is %.2fx "
                "faster)\n",
                alone.meanBatchMs,
                alone.meanBatchMs / result.meanBatchMs);

    // --- Serving through media faults ------------------------------
    // Worn flash: 1 in 1000 page reads is uncorrectable. The server
    // keeps serving — rows on a lost FP32 page fall back to their
    // INT4 screener score instead of aborting the batch.
    EcssdOptions worn = EcssdOptions::full();
    worn.ssd.uncorrectableReadRate = 1e-3;
    InferenceServer degraded(model.weights(), spec, worn,
                             &model.basis());
    sim::Rng faulty_rng(43);
    for (int request = 0; request < 64; ++request)
        degraded.enqueue(model.sampleQuery(faulty_rng));
    const auto faulty = degraded.processAll(/*k=*/5);
    unsigned degraded_count = 0;
    for (const auto &response : faulty)
        if (response.status
            == InferenceServer::Response::Status::Degraded)
            ++degraded_count;
    std::printf("\nworn flash (1e-3 uncorrectable): served %zu/%zu "
                "requests, %u degraded, %llu rows on screener "
                "score, 0 batches aborted\n",
                faulty.size(), faulty.size(), degraded_count,
                static_cast<unsigned long long>(
                    degraded.serverStats().degradedRows));

    // --- Mid-run device loss in the fleet --------------------------
    // One of four devices dies after its first batch; the host merge
    // proceeds over the three survivors and quantifies the recall
    // lost with the dead shard's category range.
    ScaleOutEcssd lossy(scaled, 4);
    lossy.failShardAfterBatches(2, 1);
    const ScaleOutResult failover = lossy.runInference(3);
    std::printf("device 2 died mid-run: %u/%u shards survive, "
                "%.3f ms/batch, est. recall loss %.1f%%\n",
                failover.survivingDevices, lossy.devices(),
                failover.meanBatchMs,
                failover.recallLossEstimate * 100.0);

    // --- Proactive drain on SMART telemetry ------------------------
    // Same death schedule, but this fleet ages visibly (retention
    // errors accrue with service time), watches each shard's SMART
    // report, and holds a spare.  The degrading shard is
    // re-replicated before the failure can land, so nothing is lost.
    EcssdOptions aging = EcssdOptions::full();
    aging.ssd.retentionErrorCoefficient = 1e-3; // per second
    ScaleOutEcssd watched(scaled, 4, aging);
    watched.runInference(1); // accrue service time / wear
    watched.failShardAfterBatches(0, 1);
    DrainPolicy policy;
    policy.errorRateThreshold = 1e-9;
    watched.setDrainPolicy(policy);
    watched.provisionSpares(1);
    const ScaleOutResult drained = watched.runInference(3);
    std::printf("with SMART drain + 1 spare: %u shard(s) drained, "
                "%u/%u survive, est. recall loss %.1f%%\n",
                drained.drainedShards, drained.survivingDevices,
                watched.devices(),
                drained.recallLossEstimate * 100.0);
    return 0;
}
