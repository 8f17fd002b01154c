/**
 * @file
 * Tests of the metrics registry and the JSON writer underneath it.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"

using namespace ecssd::sim;

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

TEST(MetricsRegistry, CounterLookupCreatesOnce)
{
    MetricsRegistry registry;
    registry.counterAdd("flash.pages_read", 3);
    registry.counterAdd("flash.pages_read");
    EXPECT_EQ(registry.counter("flash.pages_read").value(), 4u);
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_TRUE(registry.has("flash.pages_read"));
    EXPECT_FALSE(registry.has("flash.pages_written"));
}

TEST(MetricsRegistry, GaugeKeepsLastValue)
{
    MetricsRegistry registry;
    registry.gaugeSet("server.queue_depth", 4.0);
    registry.gaugeSet("server.queue_depth", 2.0);
    EXPECT_DOUBLE_EQ(registry.gauge("server.queue_depth").value(),
                     2.0);
}

TEST(MetricsRegistry, HistogramShapeFixedOnFirstUse)
{
    MetricsRegistry registry;
    registry.histogramSample("lat_ms", 0.0, 10.0, 10, 5.0);
    // Same shape: fine.
    Histogram &h = registry.histogram("lat_ms", 0.0, 10.0, 10);
    EXPECT_EQ(h.totalSamples(), 1u);
    // Different shape: simulator bug.
    EXPECT_THROW(registry.histogram("lat_ms", 0.0, 20.0, 10),
                 PanicError);
}

TEST(MetricsRegistry, DisabledRecordingIsNoOp)
{
    MetricsRegistry registry;
    registry.counterAdd("c", 1);
    registry.setEnabled(false);
    registry.counterAdd("c", 10);
    registry.gaugeSet("g", 5.0);
    registry.histogramSample("h", 0.0, 1.0, 4, 0.5);
    EXPECT_EQ(registry.counter("c").value(), 1u);
    // Disabled recording does not even register new instruments.
    EXPECT_FALSE(registry.has("g"));
    EXPECT_FALSE(registry.has("h"));
    registry.setEnabled(true);
    registry.counterAdd("c", 10);
    EXPECT_EQ(registry.counter("c").value(), 11u);
}

TEST(MetricsRegistry, ResetZeroesButKeepsRegistrations)
{
    MetricsRegistry registry;
    registry.counterAdd("c", 7);
    registry.gaugeSet("g", 3.0);
    registry.histogramSample("h", 0.0, 1.0, 4, 0.5);
    registry.reset();
    EXPECT_EQ(registry.size(), 3u);
    EXPECT_EQ(registry.counter("c").value(), 0u);
    EXPECT_DOUBLE_EQ(registry.gauge("g").value(), 0.0);
    EXPECT_EQ(registry.histogram("h", 0.0, 1.0, 4).totalSamples(),
              0u);
}

TEST(MetricsRegistry, WriteJsonIsSortedAndOrderIndependent)
{
    auto fill = [](MetricsRegistry &r, bool reversed) {
        if (reversed) {
            r.gaugeSet("z.util", 0.5);
            r.counterAdd("a.count", 2);
        } else {
            r.counterAdd("a.count", 2);
            r.gaugeSet("z.util", 0.5);
        }
        r.histogramSample("m.lat", 0.0, 10.0, 10, 2.5);
    };
    MetricsRegistry forward, backward;
    fill(forward, false);
    fill(backward, true);
    std::ostringstream a, b;
    forward.writeJson(a);
    backward.writeJson(b);
    EXPECT_EQ(a.str(), b.str());

    // Sections in fixed order, names sorted within each.  The one
    // sample lands in the [2, 3) bucket, so every quantile reads the
    // bucket's upper edge.
    EXPECT_EQ(a.str(), "{\n"
                       "  \"counters\": {\n"
                       "    \"a.count\": 2\n"
                       "  },\n"
                       "  \"gauges\": {\n"
                       "    \"z.util\": 0.5\n"
                       "  },\n"
                       "  \"histograms\": {\n"
                       "    \"m.lat\": {\n"
                       "      \"count\": 1,\n"
                       "      \"sum\": 2.5,\n"
                       "      \"min\": 2.5,\n"
                       "      \"max\": 2.5,\n"
                       "      \"p50\": 3,\n"
                       "      \"p95\": 3,\n"
                       "      \"p99\": 3,\n"
                       "      \"p999\": 3,\n"
                       "      \"underflow\": 0,\n"
                       "      \"overflow\": 0\n"
                       "    }\n"
                       "  }\n"
                       "}\n");
}

TEST(MetricsRegistry, WritePrometheusFormat)
{
    MetricsRegistry registry;
    registry.counterAdd("flash.pages_read", 9);
    registry.gaugeSet("server.queue_depth", 3.0);
    registry.histogramSample("server.latency_ms", 0.0, 10.0, 2, 7.0);
    std::ostringstream os;
    registry.writePrometheus(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("# TYPE flash_pages_read counter"),
              std::string::npos);
    EXPECT_NE(text.find("flash_pages_read 9"), std::string::npos);
    EXPECT_NE(text.find("# TYPE server_queue_depth gauge"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE server_latency_ms histogram"),
              std::string::npos);
    EXPECT_NE(text.find("server_latency_ms_bucket{le=\"+Inf\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("server_latency_ms_count 1"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------------

TEST(Json, EscapeSpecials)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("line\nbreak"), "line\\nbreak");
}

TEST(Json, NumberFormattingRoundTrips)
{
    // %.17g preserves doubles exactly: reading the text back gives the
    // same bits.
    for (const double v :
         {1.151447281, 0.1, 1e-300,
          std::numeric_limits<double>::denorm_min() * 3}) {
        const double back = std::strtod(jsonNumber(v).c_str(), nullptr);
        EXPECT_EQ(std::memcmp(&back, &v, sizeof(v)), 0)
            << jsonNumber(v);
    }
}

TEST(Json, WriterNesting)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.key("outer");
    json.beginObject();
    json.key("a");
    json.value(std::uint64_t(1));
    json.key("b");
    json.value(2.5);
    json.endObject();
    json.key("list");
    json.beginArray();
    json.value(std::uint64_t(3));
    json.value(std::uint64_t(4));
    json.endArray();
    json.endObject();

    EXPECT_EQ(os.str(), "{\n"
                        "  \"outer\": {\n"
                        "    \"a\": 1,\n"
                        "    \"b\": 2.5\n"
                        "  },\n"
                        "  \"list\": [\n"
                        "    3,\n"
                        "    4\n"
                        "  ]\n"
                        "}\n");
}
