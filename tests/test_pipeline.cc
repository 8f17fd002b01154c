/**
 * @file
 * Inference pipeline timing tests: stage overlap, layout effects,
 * heterogeneous vs homogeneous placement, screening on/off, and the
 * halved fetch traffic of CFP16 weight rows.
 */

#include <gtest/gtest.h>

#include "accel/pipeline.hh"
#include "ecssd/system.hh"
#include "xclass/workload.hh"

using namespace ecssd;
using namespace ecssd::accel;

namespace
{

xclass::BenchmarkSpec
testSpec(std::uint64_t categories = 32768)
{
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("XMLCNN-S10M"), categories);
    return spec;
}

struct Harness
{
    explicit Harness(const xclass::BenchmarkSpec &s,
                     layout::LayoutKind kind =
                         layout::LayoutKind::Uniform,
                     Int4Placement placement = Int4Placement::Dram)
        : spec(s), ssd(config),
          trace(spec, 1)
    {
        const xclass::CandidateTrace &t = trace.trace();
        strategy = layout::makeLayout(
            kind, spec.categories, config.channels,
            [&t](std::uint64_t row) { return t.hotness(row); });
        pipeline = std::make_unique<InferencePipeline>(
            spec, accel_config, ssd, *strategy, placement);
    }

    xclass::BenchmarkSpec spec;
    ssdsim::SsdConfig config;
    ssdsim::SsdDevice ssd;
    TraceSource trace;
    AccelConfig accel_config;
    std::unique_ptr<layout::LayoutStrategy> strategy;
    std::unique_ptr<InferencePipeline> pipeline;
};

} // namespace

TEST(Pipeline, TileSizeFollowsInt4Buffer)
{
    Harness h(testSpec());
    // K = 256 -> 128 bytes/row -> 128 KiB buffer holds 1024 rows.
    EXPECT_EQ(h.pipeline->tileRows(), 1024u);
    EXPECT_EQ(h.pipeline->tileCount(), 32u);
}

TEST(Pipeline, BatchProducesPositiveLatency)
{
    Harness h(testSpec());
    const RunResult result = h.pipeline->run(h.trace, 1);
    ASSERT_EQ(result.batches.size(), 1u);
    EXPECT_GT(result.totalTime, 0u);
    EXPECT_GT(result.batches[0].candidateRows, 0u);
    EXPECT_GT(result.batches[0].fp32PagesRead, 0u);
    EXPECT_GT(result.channelUtilization, 0.0);
    EXPECT_LE(result.channelUtilization, 1.0);
}

TEST(Pipeline, CandidatePagesMatchCandidateRows)
{
    // D = 1024 -> one row per page exactly.
    Harness h(testSpec());
    const std::vector<std::uint64_t> candidates =
        h.trace.nextBatch();
    const BatchTiming timing =
        h.pipeline->runBatch(candidates, 0);
    EXPECT_EQ(timing.fp32PagesRead, candidates.size());
    EXPECT_EQ(timing.candidateRows, candidates.size());
    // Per-channel counts add up.
    std::uint64_t sum = 0;
    for (const std::uint64_t pages : timing.channelPages)
        sum += pages;
    EXPECT_EQ(sum, timing.fp32PagesRead);
}

TEST(Pipeline, RowsNarrowerThanPageShare)
{
    xclass::BenchmarkSpec spec = testSpec(16384);
    spec.hiddenDim = 512; // 2 KB rows -> 2 rows per page
    Harness h(spec);
    std::vector<std::uint64_t> adjacent;
    for (std::uint64_t r = 0; r < 64; ++r)
        adjacent.push_back(r); // 64 rows over 32 pages
    const BatchTiming timing = h.pipeline->runBatch(adjacent, 0);
    EXPECT_EQ(timing.fp32PagesRead, 32u);
}

TEST(Pipeline, WideRowsNeedMultiplePages)
{
    xclass::BenchmarkSpec spec = testSpec(16384);
    spec.hiddenDim = 1500; // 6 KB rows -> 2 pages each
    Harness h(spec);
    const std::vector<std::uint64_t> candidates{0, 100, 200};
    const BatchTiming timing =
        h.pipeline->runBatch(candidates, 0);
    EXPECT_EQ(timing.fp32PagesRead, 6u);
}

TEST(Pipeline, OverlapBeatsSerialExecution)
{
    Harness overlapped(testSpec());
    Harness serial(testSpec());
    serial.accel_config.overlapStages = false;
    serial.pipeline = std::make_unique<InferencePipeline>(
        serial.spec, serial.accel_config, serial.ssd,
        *serial.strategy, Int4Placement::Dram);

    const RunResult fast = overlapped.pipeline->run(
        overlapped.trace, 1);
    const RunResult slow = serial.pipeline->run(serial.trace, 1);
    EXPECT_LT(fast.totalTime, slow.totalTime);
}

TEST(Pipeline, HeterogeneousBeatsHomogeneousLayout)
{
    // Section 6.5: INT4 in DRAM avoids transfer interference.
    Harness hetero(testSpec(), layout::LayoutKind::Uniform,
                   Int4Placement::Dram);
    Harness homo(testSpec(), layout::LayoutKind::Uniform,
                 Int4Placement::Flash);
    const RunResult fast = hetero.pipeline->run(hetero.trace, 1);
    const RunResult slow = homo.pipeline->run(homo.trace, 1);
    EXPECT_LT(fast.totalTime, slow.totalTime);
    EXPECT_EQ(fast.batches[0].int4PagesRead, 0u);
    EXPECT_GT(slow.batches[0].int4PagesRead, 0u);
}

TEST(Pipeline, LayoutOrderingSequentialUniformLearning)
{
    // Fig 12's ordering: sequential slowest, learning fastest.
    Harness seq(testSpec(), layout::LayoutKind::Sequential);
    Harness uni(testSpec(), layout::LayoutKind::Uniform);
    Harness learn(testSpec(), layout::LayoutKind::LearningAdaptive);

    const sim::Tick t_seq = seq.pipeline->run(seq.trace, 1).totalTime;
    const sim::Tick t_uni = uni.pipeline->run(uni.trace, 1).totalTime;
    const sim::Tick t_learn =
        learn.pipeline->run(learn.trace, 1).totalTime;
    EXPECT_GT(t_seq, t_uni);
    EXPECT_GT(t_uni, t_learn);
    // Sequential wastes most of the 8 channels.
    EXPECT_GT(static_cast<double>(t_seq) / t_learn, 3.0);
}

TEST(Pipeline, ScreeningSlashesWorkAndTime)
{
    Harness screened(testSpec());
    Harness dense(testSpec());
    dense.pipeline->setScreeningEnabled(false);
    AllRowsSource all(dense.spec.categories);

    const RunResult fast = screened.pipeline->run(screened.trace, 1);
    const RunResult slow = dense.pipeline->run(all, 1);
    EXPECT_LT(fast.totalTime, slow.totalTime);
    EXPECT_EQ(slow.batches[0].candidateRows,
              dense.spec.categories);
    EXPECT_NEAR(static_cast<double>(
                    fast.batches[0].candidateRows)
                    / static_cast<double>(dense.spec.categories),
                0.10, 0.02);
}

TEST(Pipeline, NaiveMacIsSlowerThanAlignmentFree)
{
    // The compute-bound vs memory-bound shift of Fig 1: a naive FP
    // MAC at iso-area cannot hide compute under the transfers.  A
    // 16-query batch puts the intensity right at the alignment-free
    // ridge, so the naive datapath (29.6 GFLOPS) is clearly compute
    // bound while the alignment-free one is not.
    xclass::BenchmarkSpec heavy = testSpec();
    heavy.batchSize = 16;
    Harness fast_mac(heavy);
    Harness slow_mac(heavy);
    slow_mac.accel_config.fpKind = circuit::FpMacKind::Naive;
    slow_mac.pipeline = std::make_unique<InferencePipeline>(
        slow_mac.spec, slow_mac.accel_config, slow_mac.ssd,
        *slow_mac.strategy, Int4Placement::Dram);

    const RunResult af = fast_mac.pipeline->run(fast_mac.trace, 1);
    const RunResult naive =
        slow_mac.pipeline->run(slow_mac.trace, 1);
    EXPECT_LT(af.totalTime, naive.totalTime);
}

TEST(Pipeline, MultiBatchAggregation)
{
    Harness h(testSpec(8192));
    const RunResult result = h.pipeline->run(h.trace, 3);
    EXPECT_EQ(result.batches.size(), 3u);
    EXPECT_GT(result.meanBatchMs(), 0.0);
    // Batches are serial: total >= sum of latencies.
    sim::Tick sum = 0;
    for (const BatchTiming &batch : result.batches)
        sum += batch.latency();
    EXPECT_GE(result.totalTime + 10, sum);
}

TEST(Pipeline, EffectiveGflopsBelowPeak)
{
    Harness h(testSpec());
    const RunResult result = h.pipeline->run(h.trace, 1);
    EXPECT_GT(result.effectiveGflops, 0.0);
    EXPECT_LE(result.effectiveGflops,
              h.accel_config.fp32Gflops() * 1.01);
}

TEST(Pipeline, MismatchedSourcePanics)
{
    Harness h(testSpec());
    AllRowsSource wrong(h.spec.categories + 1);
    EXPECT_THROW(h.pipeline->run(wrong, 1), sim::PanicError);
}

TEST(Cfp16, PipelineFetchesHalfThePages)
{
    // CFP16 is a timing-only precision: rows take 2 bytes per value,
    // so the same candidates need fewer flash pages.
    const xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("XMLCNN-S10M"), 16384);
    EcssdOptions full32 = EcssdOptions::full();
    EcssdOptions half16 = EcssdOptions::full();
    half16.weightPrecision = accel::WeightPrecision::Cfp16;

    EcssdSystem a(spec, full32);
    EcssdSystem b(spec, half16);
    const RunResult r32 = a.runInference(1);
    const RunResult r16 = b.runInference(1);
    // D = 1024: CFP32 rows fill a page; CFP16 rows share pages two
    // to one, and candidates are sparse, so page count roughly
    // halves only for adjacent candidates -- but bytes per fetched
    // row halve exactly when rows pack.
    EXPECT_LT(r16.batches[0].fp32PagesRead,
              r32.batches[0].fp32PagesRead);
    EXPECT_LT(r16.totalTime, r32.totalTime);
}
