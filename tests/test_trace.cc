/**
 * @file
 * Tests of the category-gated trace infrastructure and the
 * Percentiles sampler added for serving studies.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.hh"
#include "sim/trace.hh"

using namespace ecssd::sim;

namespace
{

struct TraceReset
{
    static void
    disableAll()
    {
        for (const TraceCategory c :
             {TraceCategory::Ftl, TraceCategory::Pipeline})
            setTraceEnabled(c, false);
    }
    TraceReset() { disableAll(); }
    ~TraceReset() { disableAll(); }
};

} // namespace

TEST(Trace, CategoriesStartDisabled)
{
    TraceReset reset;
    EXPECT_FALSE(traceEnabled(TraceCategory::Ftl));
    EXPECT_FALSE(traceEnabled(TraceCategory::Pipeline));
}

TEST(Trace, EnableDisableSingleCategory)
{
    TraceReset reset;
    setTraceEnabled(TraceCategory::Ftl, true);
    EXPECT_TRUE(traceEnabled(TraceCategory::Ftl));
    EXPECT_FALSE(traceEnabled(TraceCategory::Pipeline));
    setTraceEnabled(TraceCategory::Ftl, false);
    EXPECT_FALSE(traceEnabled(TraceCategory::Ftl));
}

TEST(Trace, ParseCommaSeparatedList)
{
    TraceReset reset;
    enableTraceCategories("pipeline");
    EXPECT_TRUE(traceEnabled(TraceCategory::Pipeline));
    EXPECT_FALSE(traceEnabled(TraceCategory::Ftl));
    enableTraceCategories("ftl,pipeline");
    EXPECT_TRUE(traceEnabled(TraceCategory::Ftl));
    EXPECT_TRUE(traceEnabled(TraceCategory::Pipeline));
}

TEST(Trace, AllEnablesEverything)
{
    TraceReset reset;
    enableTraceCategories("all");
    EXPECT_TRUE(traceEnabled(TraceCategory::Ftl));
    EXPECT_TRUE(traceEnabled(TraceCategory::Pipeline));
}

TEST(Trace, UnknownCategoryIsFatal)
{
    TraceReset reset;
    // Every name is checked before any is enabled.
    EXPECT_THROW(enableTraceCategories("bogus,ftl"), FatalError);
    EXPECT_FALSE(traceEnabled(TraceCategory::Ftl));
    EXPECT_THROW(enableTraceCategories("ftl,nvme"), FatalError);
    EXPECT_FALSE(traceEnabled(TraceCategory::Ftl));
}

TEST(Trace, CategoryNames)
{
    EXPECT_STREQ(traceCategoryName(TraceCategory::Ftl), "ftl");
    EXPECT_STREQ(traceCategoryName(TraceCategory::Pipeline),
                 "pipeline");
}

TEST(Trace, MacroIsCheapWhenDisabled)
{
    TraceReset reset;
    int evaluations = 0;
    auto expensive = [&evaluations] {
        ++evaluations;
        return 42;
    };
    ECSSD_TRACE_LOG(TraceCategory::Ftl, 0, "value ", expensive());
    EXPECT_EQ(evaluations, 0);
}

TEST(Percentiles, EmptyIsZero)
{
    Percentiles p;
    EXPECT_EQ(p.count(), 0u);
    EXPECT_EQ(p.p50(), 0.0);
    EXPECT_EQ(p.p99(), 0.0);
}

TEST(Percentiles, SingleSample)
{
    Percentiles p;
    p.sample(7.0);
    EXPECT_EQ(p.quantile(0.0), 7.0);
    EXPECT_EQ(p.p50(), 7.0);
    EXPECT_EQ(p.quantile(1.0), 7.0);
}

TEST(Percentiles, QuantilesOfUniformRamp)
{
    Percentiles p;
    for (int i = 100; i >= 1; --i) // reversed insertion order
        p.sample(i);
    EXPECT_NEAR(p.p50(), 50.0, 1.0);
    EXPECT_NEAR(p.p95(), 95.0, 1.0);
    EXPECT_NEAR(p.p99(), 99.0, 1.0);
    EXPECT_EQ(p.quantile(0.0), 1.0);
    EXPECT_EQ(p.quantile(1.0), 100.0);
}

TEST(Percentiles, InterleavedSampleAndQuery)
{
    Percentiles p;
    p.sample(10.0);
    EXPECT_EQ(p.p50(), 10.0);
    p.sample(20.0);
    p.sample(30.0);
    EXPECT_EQ(p.p50(), 20.0);
}

TEST(Percentiles, ResetClears)
{
    Percentiles p;
    p.sample(1.0);
    p.reset();
    EXPECT_EQ(p.count(), 0u);
}

TEST(Percentiles, OutOfRangeQuantilePanics)
{
    Percentiles p;
    p.sample(1.0);
    EXPECT_THROW(p.quantile(-0.1), PanicError);
    EXPECT_THROW(p.quantile(1.1), PanicError);
}

TEST(SpanTracer, RecordsNestingByCallOrder)
{
    SpanTracer tracer;
    const SpanId outer = tracer.begin("batch", 100);
    const SpanId inner = tracer.begin("int4", 150);
    EXPECT_EQ(tracer.openSpans(), 2u);
    tracer.end(inner, 250);
    tracer.end(outer, 400);
    EXPECT_EQ(tracer.openSpans(), 0u);

    // Completion order: inner closes first.
    ASSERT_EQ(tracer.records().size(), 2u);
    const SpanRecord &first = tracer.records()[0];
    const SpanRecord &second = tracer.records()[1];
    EXPECT_EQ(first.name, "int4");
    EXPECT_EQ(first.id, inner);
    EXPECT_EQ(first.parent, outer);
    EXPECT_EQ(first.depth, 1u);
    EXPECT_EQ(first.start, 150u);
    EXPECT_EQ(first.end, 250u);
    EXPECT_EQ(first.duration(), 100u);
    EXPECT_EQ(second.name, "batch");
    EXPECT_EQ(second.parent, 0u);
    EXPECT_EQ(second.depth, 0u);
}

TEST(SpanTracer, SiblingsMayOverlapInSimulatedTime)
{
    // Stage overlap: tile t+1's INT4 span begins (in call order)
    // after tile t's FP32 span ended, but at an *earlier* simulated
    // tick.  The tracer must accept this.
    SpanTracer tracer;
    const SpanId fp32 = tracer.begin("fp32", 500);
    tracer.end(fp32, 900);
    const SpanId int4 = tracer.begin("int4", 600);
    tracer.end(int4, 800);
    EXPECT_EQ(tracer.records().size(), 2u);
}

TEST(SpanTracer, MismatchedEndPanics)
{
    SpanTracer tracer;
    const SpanId outer = tracer.begin("outer", 0);
    tracer.begin("inner", 10);
    // Ending the outer span while the inner is still open violates
    // stack discipline.
    EXPECT_THROW(tracer.end(outer, 100), PanicError);
}

TEST(SpanTracer, EndWithNoOpenSpanPanics)
{
    SpanTracer tracer;
    EXPECT_THROW(tracer.end(1, 10), PanicError);
}

TEST(SpanTracer, BackwardsSpanPanics)
{
    SpanTracer tracer;
    const SpanId id = tracer.begin("s", 100);
    EXPECT_THROW(tracer.end(id, 50), PanicError);
}

TEST(SpanTracer, CapDropsButCounts)
{
    SpanTracer tracer(2);
    for (int i = 0; i < 5; ++i) {
        const SpanId id = tracer.begin("s", i);
        tracer.end(id, i + 1);
    }
    EXPECT_EQ(tracer.records().size(), 2u);
    EXPECT_EQ(tracer.droppedSpans(), 3u);
}

TEST(SpanTracer, ResetClearsEverything)
{
    SpanTracer tracer;
    const SpanId id = tracer.begin("s", 0);
    tracer.end(id, 1);
    tracer.begin("open", 2);
    tracer.reset();
    EXPECT_EQ(tracer.records().size(), 0u);
    EXPECT_EQ(tracer.openSpans(), 0u);
    EXPECT_EQ(tracer.droppedSpans(), 0u);
}

TEST(SpanTracer, WriteJsonIsDeterministic)
{
    auto run = [] {
        SpanTracer tracer;
        const SpanId outer = tracer.begin("batch", 0);
        const SpanId inner = tracer.begin("int4", 10);
        tracer.end(inner, 20);
        tracer.end(outer, 30);
        std::ostringstream os;
        tracer.writeJson(os);
        return os.str();
    };
    const std::string a = run();
    const std::string b = run();
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"int4\""), std::string::npos);
    EXPECT_NE(a.find("\"batch\""), std::string::npos);
}

TEST(ScopedSpan, NullTracerIsNoOp)
{
    ScopedSpan span(nullptr, "noop", 0);
    span.close(10); // must not crash
}

TEST(ScopedSpan, CloseIsIdempotent)
{
    SpanTracer tracer;
    ScopedSpan span(&tracer, "s", 0);
    span.close(5);
    span.close(9); // second close is a no-op
    ASSERT_EQ(tracer.records().size(), 1u);
    EXPECT_EQ(tracer.records()[0].end, 5u);
}

TEST(ScopedSpan, LeftOpenStaysVisible)
{
    SpanTracer tracer;
    {
        ScopedSpan span(&tracer, "s", 0);
        // Destructor is lenient: no panic, span stays open.
    }
    EXPECT_EQ(tracer.openSpans(), 1u);
    EXPECT_EQ(tracer.records().size(), 0u);
}
