/**
 * @file
 * Golden-run tests of the cross-layer observability subsystem: two
 * identical instrumented runs must produce byte-identical metrics and
 * span dumps, and attaching instrumentation must not perturb the
 * simulation at all (bit-identical timing with and without it).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "ecssd/server.hh"
#include "ecssd/system.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"
#include "sim/trace.hh"

using namespace ecssd;

namespace
{

xclass::BenchmarkSpec
smallSpec()
{
    xclass::BenchmarkSpec spec =
        xclass::scaledDown(xclass::benchmarkByName("GNMT-E32K"), 4096);
    return spec;
}

struct InstrumentedRun
{
    std::string metricsJson;
    std::string spanJson;
    accel::RunResult result;
};

InstrumentedRun
runInstrumented(unsigned batches)
{
    sim::MetricsRegistry registry;
    sim::SpanTracer tracer;
    EcssdSystem system(smallSpec(), EcssdOptions::full());
    system.attachObservability(&registry, &tracer);
    InstrumentedRun run;
    run.result = system.runInference(batches);
    system.publishMetrics(registry, run.result);
    std::ostringstream metrics, spans;
    registry.writeJson(metrics);
    tracer.writeJson(spans);
    run.metricsJson = metrics.str();
    run.spanJson = spans.str();
    return run;
}

/** Field-by-field bit-identity of two run results. */
void
expectIdenticalResults(const accel::RunResult &a,
                       const accel::RunResult &b)
{
    EXPECT_EQ(a.totalTime, b.totalTime);
    EXPECT_EQ(a.channelUtilization, b.channelUtilization);
    EXPECT_EQ(a.effectiveGflops, b.effectiveGflops);
    EXPECT_EQ(a.uncorrectablePages, b.uncorrectablePages);
    EXPECT_EQ(a.degradedRows, b.degradedRows);
    ASSERT_EQ(a.batches.size(), b.batches.size());
    for (std::size_t i = 0; i < a.batches.size(); ++i) {
        const accel::BatchTiming &x = a.batches[i];
        const accel::BatchTiming &y = b.batches[i];
        EXPECT_EQ(x.startedAt, y.startedAt);
        EXPECT_EQ(x.finishedAt, y.finishedAt);
        EXPECT_EQ(x.candidateRows, y.candidateRows);
        EXPECT_EQ(x.fp32PagesRead, y.fp32PagesRead);
        EXPECT_EQ(x.fp32BytesRead, y.fp32BytesRead);
        EXPECT_EQ(x.int4PagesRead, y.int4PagesRead);
        EXPECT_EQ(x.fp32Flops, y.fp32Flops);
        EXPECT_EQ(x.int4Ops, y.int4Ops);
        EXPECT_EQ(x.fp32FetchTime, y.fp32FetchTime);
        EXPECT_EQ(x.fp32ComputeTime, y.fp32ComputeTime);
        EXPECT_EQ(x.int4StageTime, y.int4StageTime);
        EXPECT_EQ(x.channelPages, y.channelPages);
        EXPECT_EQ(x.failed, y.failed);
    }
}

bool
hasSpanNamed(const sim::SpanTracer &tracer, const std::string &prefix)
{
    const auto &records = tracer.records();
    return std::any_of(records.begin(), records.end(),
                       [&prefix](const sim::SpanRecord &r) {
                           return r.name.rfind(prefix, 0) == 0;
                       });
}

} // namespace

TEST(Observability, GoldenRunIsByteIdentical)
{
    const InstrumentedRun a = runInstrumented(2);
    const InstrumentedRun b = runInstrumented(2);
    EXPECT_EQ(a.metricsJson, b.metricsJson);
    EXPECT_EQ(a.spanJson, b.spanJson);
    expectIdenticalResults(a.result, b.result);
}

TEST(Observability, InstrumentationIsZeroCost)
{
    // A bare run and an instrumented run of the same configuration
    // must be bit-identical: recording is read-only with respect to
    // the timing models.
    EcssdSystem bare(smallSpec(), EcssdOptions::full());
    const accel::RunResult plain = bare.runInference(2);
    const InstrumentedRun instrumented = runInstrumented(2);
    expectIdenticalResults(plain, instrumented.result);
}

TEST(Observability, SpansCoverEveryLayer)
{
    sim::MetricsRegistry registry;
    sim::SpanTracer tracer;
    EcssdSystem system(smallSpec(), EcssdOptions::full());
    system.attachObservability(&registry, &tracer);
    const accel::RunResult result = system.runInference(1);
    system.publishMetrics(registry, result);

    // Pipeline phases...
    EXPECT_TRUE(hasSpanNamed(tracer, "pipeline.batch"));
    EXPECT_TRUE(hasSpanNamed(tracer, "pipeline.host_upload"));
    EXPECT_TRUE(hasSpanNamed(tracer, "pipeline.fp32"));
    EXPECT_TRUE(hasSpanNamed(tracer, "pipeline.host_download"));
    // ... with flash busy intervals nested underneath.
    EXPECT_TRUE(hasSpanNamed(tracer, "flash.read.ch"));
    EXPECT_EQ(tracer.openSpans(), 0u);

    // The batch span is the root; flash reads hang off a phase.
    for (const sim::SpanRecord &record : tracer.records()) {
        if (record.name == "pipeline.batch") {
            EXPECT_EQ(record.depth, 0u);
        }
        if (record.name.rfind("flash.read.ch", 0) == 0) {
            EXPECT_GE(record.depth, 1u);
            EXPECT_NE(record.parent, 0u);
        }
    }

    // Registry: live pipeline counters plus published snapshots of
    // every layer below.
    EXPECT_EQ(registry.counter("pipeline.batches").value(), 1u);
    EXPECT_TRUE(registry.has("pipeline.batch_latency_ms"));
    EXPECT_TRUE(registry.has("flash.util"));
    EXPECT_TRUE(registry.has("flash.channel00.pages_read"));
    EXPECT_TRUE(registry.has("ftl.host_reads"));
    EXPECT_TRUE(registry.has("ssd.host_read_commands"));
    EXPECT_TRUE(registry.has("run.total_time_ms"));

    // Published counters agree with the run result.
    std::uint64_t fp32_pages = 0;
    for (const accel::BatchTiming &batch : result.batches)
        fp32_pages += batch.fp32PagesRead;
    EXPECT_EQ(registry.counter("pipeline.fp32_pages_read").value(),
              fp32_pages);
}

TEST(Observability, DetachStopsRecording)
{
    sim::MetricsRegistry registry;
    sim::SpanTracer tracer;
    EcssdSystem system(smallSpec(), EcssdOptions::full());
    system.attachObservability(&registry, &tracer);
    system.runInference(1);
    const std::size_t spans_after_first = tracer.records().size();
    EXPECT_GT(spans_after_first, 0u);

    system.attachObservability(nullptr, nullptr);
    system.runInference(1);
    EXPECT_EQ(tracer.records().size(), spans_after_first);
    EXPECT_EQ(registry.counter("pipeline.batches").value(), 1u);
}

TEST(Observability, ServerMetricsAreDeterministic)
{
    auto serve = [] {
        const xclass::BenchmarkSpec spec = xclass::scaledDown(
            xclass::benchmarkByName("GNMT-E32K"), 1024);
        const EcssdOptions options = EcssdOptions::full();
        sim::MetricsRegistry registry;
        sim::SpanTracer tracer;
        xclass::SyntheticModel model(spec, options.seed);
        InferenceServer server(model.weights(), spec, options);
        server.attachObservability(&registry, &tracer);
        sim::Rng rng(options.seed);
        for (unsigned r = 0; r < 12; ++r)
            server.enqueue(model.sampleQuery(rng));
        server.processAll(4);
        server.publishMetrics(registry);
        std::ostringstream os;
        registry.writeJson(os);
        return os.str();
    };
    const std::string a = serve();
    const std::string b = serve();
    EXPECT_EQ(a, b);

    // The dump carries the serving-level instruments.
    EXPECT_NE(a.find("server.latency_ms"), std::string::npos);
    EXPECT_NE(a.find("server.responses_ok"), std::string::npos);
    EXPECT_NE(a.find("server.accepted_requests"),
              std::string::npos);
}
