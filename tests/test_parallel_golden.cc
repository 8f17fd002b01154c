/**
 * @file
 * Parallel golden-run tests: the host-compute thread pool and the
 * host SIMD level must be invisible in every result.  A serving run,
 * a scale-out fleet run and a Table 1 API replay must produce
 * bit-identical results for any thread count, the API replay (with
 * the metrics dump of the system it drove) and the serving run for
 * every ISA level as well, and the pooled screener/classifier paths
 * must match their serial twins exactly.
 */

#include <gtest/gtest.h>

#include <bit>
#include <sstream>
#include <string>
#include <vector>

#include "ecssd/api.hh"
#include "ecssd/scale_out.hh"
#include "ecssd/server.hh"
#include "ecssd/system.hh"
#include "numeric/kernels.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"
#include "sim/thread_pool.hh"
#include "xclass/screening.hh"
#include "xclass/workload.hh"

using namespace ecssd;

namespace
{

xclass::BenchmarkSpec
smallSpec()
{
    return xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 4096);
}

std::vector<std::vector<float>>
sampleQueries(const xclass::SyntheticModel &model, unsigned count)
{
    sim::Rng rng(99);
    std::vector<std::vector<float>> queries;
    for (unsigned q = 0; q < count; ++q)
        queries.push_back(model.sampleQuery(rng));
    return queries;
}

/** Field-by-field bit-identity of two trace-tier run results. */
void
expectIdenticalRuns(const accel::RunResult &a, const accel::RunResult &b)
{
    EXPECT_EQ(a.totalTime, b.totalTime);
    EXPECT_EQ(a.channelUtilization, b.channelUtilization);
    EXPECT_EQ(a.effectiveGflops, b.effectiveGflops);
    ASSERT_EQ(a.batches.size(), b.batches.size());
    for (std::size_t i = 0; i < a.batches.size(); ++i) {
        EXPECT_EQ(a.batches[i].finishedAt, b.batches[i].finishedAt);
        EXPECT_EQ(a.batches[i].candidateRows,
                  b.batches[i].candidateRows);
        EXPECT_EQ(a.batches[i].fp32PagesRead,
                  b.batches[i].fp32PagesRead);
    }
}

} // namespace

TEST(ParallelGolden, ScreenerScoresMatchSerialExactly)
{
    const xclass::BenchmarkSpec spec = smallSpec();
    const xclass::SyntheticModel model(spec, 1);
    xclass::Screener serial(model.weights(), spec, 2);
    sim::ThreadPool pool(8);
    xclass::Screener pooled(model.weights(), spec, 2, nullptr, &pool);

    const auto queries = sampleQueries(model, 6);
    for (const auto &query : queries) {
        const numeric::Int4Vector feature =
            serial.prepareFeature(query);
        const numeric::Int4Vector pooled_feature =
            pooled.prepareFeature(query);
        EXPECT_EQ(pooled_feature.packed, feature.packed);
        EXPECT_EQ(pooled_feature.scale, feature.scale);
        EXPECT_EQ(pooled.scores(pooled_feature),
                  serial.scores(feature));
        EXPECT_EQ(pooled.screen(query, xclass::FilterMode::TopRatio),
                  serial.screen(query, xclass::FilterMode::TopRatio));
    }

    // Calibration scores the queries through the same pool.
    serial.calibrate(queries);
    pooled.calibrate(queries);
    EXPECT_EQ(pooled.threshold(), serial.threshold());
}

TEST(ParallelGolden, ClassifierPredictionsMatchSerialExactly)
{
    const xclass::BenchmarkSpec spec = smallSpec();
    const xclass::SyntheticModel model(spec, 1);
    const xclass::ApproximateClassifier serial(model.weights(), spec,
                                               2);
    sim::ThreadPool pool(8);
    const xclass::ApproximateClassifier pooled(
        model.weights(), spec, 2, nullptr, &pool);

    const auto datapaths = {
        xclass::CandidateClassifier::Datapath::Fp32,
        xclass::CandidateClassifier::Datapath::Cfp32AlignmentFree};
    for (const auto &query : sampleQueries(model, 4)) {
        for (const auto datapath : datapaths) {
            const auto a = serial.predict(
                query, 5, xclass::FilterMode::TopRatio, datapath);
            const auto b = pooled.predict(
                query, 5, xclass::FilterMode::TopRatio, datapath);
            EXPECT_EQ(b.topCategories, a.topCategories);
            EXPECT_EQ(b.topScores, a.topScores);
            EXPECT_EQ(b.candidateCount, a.candidateCount);
        }
        const auto a = serial.exact(query, 5);
        const auto b = pooled.exact(query, 5);
        EXPECT_EQ(b.topCategories, a.topCategories);
        EXPECT_EQ(b.topScores, a.topScores);
    }
}

TEST(ParallelGolden, ServerResponsesMatchAcrossThreads)
{
    const xclass::BenchmarkSpec spec = smallSpec();
    const auto serve = [&](unsigned threads) {
        EcssdOptions options = EcssdOptions::full();
        options.threads = threads;
        xclass::SyntheticModel model(spec, options.seed);
        InferenceServer server(model.weights(), spec, options);
        sim::Rng rng(options.seed);
        for (unsigned r = 0; r < 12; ++r)
            server.enqueue(model.sampleQuery(rng));
        return server.processAll(5);
    };

    const auto reference = serve(1);
    ASSERT_FALSE(reference.empty());
    for (const unsigned threads : {2u, 8u}) {
        const auto responses = serve(threads);
        ASSERT_EQ(responses.size(), reference.size())
            << threads << " threads";
        for (std::size_t i = 0; i < reference.size(); ++i) {
            EXPECT_EQ(responses[i].id, reference[i].id);
            EXPECT_EQ(responses[i].status, reference[i].status);
            EXPECT_EQ(responses[i].completedAt,
                      reference[i].completedAt);
            EXPECT_EQ(responses[i].prediction.topCategories,
                      reference[i].prediction.topCategories);
            EXPECT_EQ(responses[i].prediction.topScores,
                      reference[i].prediction.topScores);
        }
    }
}

TEST(ParallelGolden, ScaleOutFleetMatchesSerialFanOut)
{
    const xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("XMLCNN-S10M"), 32768);
    struct FleetRun
    {
        ScaleOutResult result;
        std::vector<ShardHealth> health;
    };
    const auto run = [&](unsigned threads) {
        EcssdOptions options = EcssdOptions::full();
        options.threads = threads;
        ScaleOutEcssd fleet(spec, 4, options);
        FleetRun out;
        out.result = fleet.runInference(2);
        for (unsigned d = 0; d < fleet.devices(); ++d)
            out.health.push_back(fleet.health(d));
        return out;
    };

    const FleetRun reference = run(1);
    for (const unsigned threads : {2u, 4u}) {
        SCOPED_TRACE(testing::Message() << threads << " threads");
        const FleetRun parallel = run(threads);
        const ScaleOutResult &a = parallel.result;
        const ScaleOutResult &b = reference.result;
        EXPECT_EQ(a.totalTime, b.totalTime);
        EXPECT_EQ(a.meanBatchMs, b.meanBatchMs);
        EXPECT_EQ(a.totalEnergyUj, b.totalEnergyUj);
        EXPECT_EQ(a.survivingDevices, b.survivingDevices);
        EXPECT_EQ(a.failedDevices, b.failedDevices);
        EXPECT_EQ(a.drainedShards, b.drainedShards);
        EXPECT_EQ(a.sparesRemaining, b.sparesRemaining);
        EXPECT_EQ(a.reReplicationTime, b.reReplicationTime);
        EXPECT_EQ(a.recallLossEstimate, b.recallLossEstimate);
        ASSERT_EQ(a.shards.size(), b.shards.size());
        for (std::size_t d = 0; d < b.shards.size(); ++d)
            expectIdenticalRuns(a.shards[d], b.shards[d]);
        ASSERT_EQ(parallel.health.size(), reference.health.size());
        for (std::size_t d = 0; d < reference.health.size(); ++d) {
            EXPECT_EQ(parallel.health[d].alive,
                      reference.health[d].alive);
            EXPECT_EQ(parallel.health[d].batchesServed,
                      reference.health[d].batchesServed);
            EXPECT_EQ(parallel.health[d].serviceTime,
                      reference.health[d].serviceTime);
            EXPECT_EQ(parallel.health[d].replacements,
                      reference.health[d].replacements);
        }
    }
}

// --- ISA-level golden replays ---------------------------------------
//
// The SIMD dispatch must be as invisible as the thread pool: a
// serving run and a Table 1 API replay with the host kernels pinned
// to "scalar" must match every better ISA level this machine
// supports, bit for bit in every prediction.  Each replay pins its
// level with setActiveIsa, so the levels differ even when ECSSD_ISA
// pins the process.

namespace
{

/** Restores the host-kernel level a pinned-ISA test found. */
struct IsaRestore
{
    const numeric::IsaLevel found = numeric::activeIsa();
    ~IsaRestore() { numeric::setActiveIsa(found); }
};

/** Everything one Table 1 API replay computes. */
struct ApiReplay
{
    sim::Tick deployTime = 0;
    std::uint64_t thresholdBits = 0;
    std::vector<std::vector<std::uint64_t>> candidates;
    std::vector<std::vector<std::uint64_t>> topCategories;
    std::vector<std::vector<double>> topScores;
    std::vector<sim::Tick> latencies;
    /** The deployed system's metrics JSON after the sessions: the
     *  live pipeline.* counters they drove plus its publishMetrics()
     *  snapshot (an empty run result: sessions run no trace tier). */
    std::string metricsJson;
};

/**
 * Deploy @p model, calibrate and run four sessions through EcssdApi
 * at @p threads host threads with the host kernels pinned to @p isa.
 * The path runs the INT4 range kernel (calibration and screens),
 * projectGemv (every feature's projection) and cfp32SlabDot (every
 * re-rank).
 */
ApiReplay
replayApi(const xclass::SyntheticModel &model, unsigned threads,
          numeric::IsaLevel isa)
{
    numeric::setActiveIsa(isa);
    const xclass::BenchmarkSpec &spec = model.spec();
    EcssdOptions options = EcssdOptions::full();
    options.threads = threads;
    EcssdApi api(options);
    sim::MetricsRegistry registry;
    api.attachObservability(&registry, nullptr);
    api.ecssdEnable();
    ApiReplay replay;
    replay.deployTime =
        api.weightDeploy(model.weights(), spec, &model.basis());
    api.calibrateThreshold(sampleQueries(model, 8));
    replay.thresholdBits = std::bit_cast<std::uint64_t>(api.threshold());

    sim::Rng rng(7);
    for (int q = 0; q < 4; ++q) {
        const std::vector<float> query = model.sampleQuery(rng);
        InferenceSession session = api.beginInference();
        xclass::ApproximateClassifier::Prediction prediction;
        EXPECT_EQ(session.sendInt4(query), Status::Ok);
        EXPECT_EQ(session.sendCfp32(query), Status::Ok);
        EXPECT_EQ(session.screen(), Status::Ok);
        EXPECT_EQ(session.classify(), Status::Ok);
        EXPECT_EQ(session.results(5, prediction), Status::Ok);
        replay.candidates.push_back(session.candidates());
        replay.topCategories.push_back(prediction.topCategories);
        replay.topScores.push_back(prediction.topScores);
        replay.latencies.push_back(session.latency());
    }
    api.system().publishMetrics(registry, accel::RunResult{});
    std::ostringstream json;
    registry.writeJson(json);
    replay.metricsJson = json.str();
    return replay;
}

/** The Table 1 replay's model: D = 256 keeps it cheap and still runs
 *  every kernel's widest loop (32-byte INT4 rows, a 64-wide
 *  projection and 256-element slab rows). */
xclass::BenchmarkSpec
replaySpec()
{
    xclass::BenchmarkSpec spec = smallSpec();
    spec.hiddenDim = 256;
    return spec;
}

} // namespace

TEST(ParallelGolden, ApiReplayMatchesScalarAcrossThreadsAndIsaLevels)
{
    const IsaRestore restore;
    const xclass::SyntheticModel model(replaySpec(), 1);
    const ApiReplay reference =
        replayApi(model, 1, numeric::IsaLevel::Scalar);
    ASSERT_EQ(reference.candidates.size(), 4u);
    for (const numeric::IsaLevel isa : numeric::supportedIsaLevels()) {
        for (const unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(testing::Message()
                         << numeric::toString(isa) << ", " << threads
                         << " threads");
            const ApiReplay replay = replayApi(model, threads, isa);
            EXPECT_EQ(replay.deployTime, reference.deployTime);
            EXPECT_EQ(replay.thresholdBits, reference.thresholdBits);
            EXPECT_EQ(replay.candidates, reference.candidates);
            EXPECT_EQ(replay.topCategories, reference.topCategories);
            EXPECT_EQ(replay.topScores, reference.topScores);
            EXPECT_EQ(replay.latencies, reference.latencies);
        }
    }
}

TEST(ParallelGolden, SystemMetricsJsonByteIdenticalAcrossIsaLevels)
{
    // The sessions' candidate sets decide which rows the device reads,
    // so a kernel that screens differently moves pipeline.* and the
    // flash/SSD snapshot even where the top-k survives it.
    const IsaRestore restore;
    const xclass::SyntheticModel model(replaySpec(), 1);
    const std::string reference =
        replayApi(model, 2, numeric::IsaLevel::Scalar).metricsJson;
    ASSERT_NE(reference.find("\"pipeline.fp32_bytes_read\""),
              std::string::npos);
    for (const numeric::IsaLevel isa : numeric::supportedIsaLevels()) {
        EXPECT_EQ(replayApi(model, 2, isa).metricsJson, reference)
            << numeric::toString(isa);
    }
}

TEST(ParallelGolden, ServerResponsesMatchAcrossIsaLevels)
{
    const IsaRestore restore;
    const xclass::BenchmarkSpec spec = smallSpec();
    const auto serve = [&](numeric::IsaLevel isa) {
        numeric::setActiveIsa(isa);
        EcssdOptions options = EcssdOptions::full();
        options.threads = 2;
        xclass::SyntheticModel model(spec, options.seed);
        InferenceServer server(model.weights(), spec, options);
        sim::Rng rng(options.seed);
        for (unsigned r = 0; r < 12; ++r)
            server.enqueue(model.sampleQuery(rng));
        return server.processAll(5);
    };

    const auto reference = serve(numeric::IsaLevel::Scalar);
    ASSERT_FALSE(reference.empty());
    for (const numeric::IsaLevel isa : numeric::supportedIsaLevels()) {
        SCOPED_TRACE(numeric::toString(isa));
        const auto responses = serve(isa);
        ASSERT_EQ(responses.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
            EXPECT_EQ(responses[i].id, reference[i].id);
            EXPECT_EQ(responses[i].status, reference[i].status);
            EXPECT_EQ(responses[i].completedAt,
                      reference[i].completedAt);
            EXPECT_EQ(responses[i].prediction.topCategories,
                      reference[i].prediction.topCategories)
                << "response " << i;
            EXPECT_EQ(responses[i].prediction.topScores,
                      reference[i].prediction.topScores)
                << "response " << i;
        }
    }
}
