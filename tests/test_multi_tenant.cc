/**
 * @file
 * Tenant-layer tests: TenantConfig validation; MultiTenantServer
 * lane bring-up, the partition ledger and quota refusal, the shared
 * device clock, deterministic mixed-traffic serving, SLO containment
 * (the overloaded tenant sheds and browns out its own traffic while
 * a healthy neighbour keeps its latency), and namespaced tenant
 * metrics; and the unified Status vocabulary.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <type_traits>

#include "ecssd/multi_tenant.hh"
#include "sim/rng.hh"
#include "sim/traffic.hh"
#include "xclass/metrics.hh"

using namespace ecssd;

namespace
{

constexpr std::uint64_t kMiB = 1ULL << 20;

struct MtFixture
{
    MtFixture()
        : spec(makeSpec()), model(spec, 1)
    {
        options.ssd = ssdsim::smallTestConfig();
        options.ssd.channels = 8;
        options.ssd.dramBytes = 64 * kMiB;
    }

    static xclass::BenchmarkSpec
    makeSpec()
    {
        xclass::BenchmarkSpec spec = xclass::scaledDown(
            xclass::benchmarkByName("GNMT-E32K"), 1024);
        spec.hiddenDim = 128;
        spec.batchSize = 4;
        return spec;
    }

    static TenantConfig
    tenant(const std::string &name, double p99_target_ms = 0.0,
           std::uint64_t quota_bytes = 0)
    {
        TenantConfig config;
        config.name = name;
        config.dramBytes = 8 * kMiB;
        config.cacheQuotaBytes = quota_bytes;
        config.p99TargetMs = p99_target_ms;
        return config;
    }

    std::vector<std::vector<float>>
    queryPool(int count)
    {
        std::vector<std::vector<float>> queries;
        sim::Rng rng(17);
        for (int q = 0; q < count; ++q)
            queries.push_back(model.sampleQuery(rng));
        return queries;
    }

    EcssdOptions options;
    xclass::BenchmarkSpec spec;
    xclass::SyntheticModel model;
};

sim::TrafficConfig
poisson(double rate, std::uint64_t seed)
{
    sim::TrafficConfig traffic;
    traffic.ratePerSecond = rate;
    traffic.seed = seed;
    return traffic;
}

} // namespace

// --- TenantConfig ----------------------------------------------------

TEST(TenantConfig, ValidationRejectsInconsistentDeclarations)
{
    TenantConfig config = MtFixture::tenant("ok");
    EXPECT_NO_THROW(config.validate());

    TenantConfig unnamed = config;
    unnamed.name.clear();
    EXPECT_THROW(unnamed.validate(), sim::FatalError);

    TenantConfig unsafe = config;
    unsafe.name = "Tenant A";
    EXPECT_THROW(unsafe.validate(), sim::FatalError);

    TenantConfig empty = config;
    empty.dramBytes = 0;
    EXPECT_THROW(empty.validate(), sim::FatalError);

    TenantConfig inverted = config;
    inverted.cacheQuotaBytes = inverted.dramBytes + 1;
    EXPECT_THROW(inverted.validate(), sim::FatalError);
}

TEST(TenantConfig, MetricNamespaceIsTenantScoped)
{
    EXPECT_EQ(MtFixture::tenant("ranker").metricNamespace(),
              "tenant.ranker.");
}

// --- MultiTenantServer ----------------------------------------------

TEST(MultiTenantServer, AdmissionMirrorsTheRegistryLedger)
{
    MtFixture f;
    f.options.ssd.dramBytes = 16 * kMiB;
    MultiTenantServer mt(f.options);

    Status status = Status::Ok;
    TenantHandle a = mt.addTenant(MtFixture::tenant("a"),
                                  f.model.weights(), f.spec,
                                  ServerConfig{}, &f.model.basis(),
                                  &status);
    ASSERT_EQ(status, Status::Ok);
    ASSERT_TRUE(a.valid());
    ASSERT_NE(mt.server(a), nullptr);
    EXPECT_EQ(mt.tenantCount(), 1u);
    EXPECT_EQ(mt.committedBytes(), 8 * kMiB);
    ASSERT_NE(mt.tenantConfig(a), nullptr);
    EXPECT_EQ(mt.tenantConfig(a)->name, "a");
    sim::MetricsRegistry ledger;
    mt.publishMetrics(ledger);
    EXPECT_EQ(ledger.gauge("tenant.a.screener_bytes").value(),
              static_cast<double>(f.spec.int4WeightBytes()));
    EXPECT_EQ(ledger.gauge("tenant.a.server.weight_version").value(),
              1.0);

    // Over-subscribing the device DRAM refuses the lane.
    TenantConfig big = MtFixture::tenant("big");
    big.dramBytes = 12 * kMiB;
    TenantHandle b =
        mt.addTenant(big, f.model.weights(), f.spec, ServerConfig{},
                     &f.model.basis(), &status);
    EXPECT_EQ(status, Status::TenantQuotaExceeded);
    EXPECT_FALSE(b.valid());
    EXPECT_EQ(mt.server(b), nullptr);
    EXPECT_EQ(mt.tenantConfig(b), nullptr);
    EXPECT_EQ(mt.tenantCount(), 1u);
    EXPECT_EQ(mt.committedBytes(), 8 * kMiB);

    // A partition too small for screener + quota refuses before
    // admission: the ledger stays untouched.
    TenantConfig tight = MtFixture::tenant("tight");
    tight.dramBytes = 40 * 1024;
    tight.cacheQuotaBytes = 32 * 1024;
    ASSERT_GT(f.spec.int4WeightBytes() + tight.cacheQuotaBytes,
              tight.dramBytes);
    TenantHandle t =
        mt.addTenant(tight, f.model.weights(), f.spec, ServerConfig{},
                     &f.model.basis(), &status);
    EXPECT_EQ(status, Status::TenantQuotaExceeded);
    EXPECT_FALSE(t.valid());
    EXPECT_EQ(mt.tenantCount(), 1u);
}

TEST(MultiTenantServer, DuplicateNameIsACallerBug)
{
    MtFixture f;
    MultiTenantServer mt(f.options);
    ASSERT_TRUE(mt.addTenant(MtFixture::tenant("a"), f.model.weights(),
                             f.spec, ServerConfig{}, &f.model.basis())
                    .valid());
    EXPECT_THROW(mt.addTenant(MtFixture::tenant("a"), f.model.weights(),
                              f.spec, ServerConfig{}, &f.model.basis()),
                 sim::FatalError);
    EXPECT_EQ(mt.tenantCount(), 1u);
}

TEST(MultiTenantServer, PublishMetricsReportsTheLedgerEvenWhenEmpty)
{
    MtFixture f;
    MultiTenantServer mt(f.options);
    sim::MetricsRegistry metrics;
    mt.publishMetrics(metrics);
    EXPECT_DOUBLE_EQ(metrics.gauge("tenant.count").value(), 0.0);
    EXPECT_DOUBLE_EQ(metrics.gauge("tenant.committed_bytes").value(),
                     0.0);
    EXPECT_DOUBLE_EQ(metrics.gauge("tenant.dram_budget_bytes").value(),
                     static_cast<double>(64 * kMiB));

    ASSERT_TRUE(mt.addTenant(MtFixture::tenant("a", 0.0, 2 * kMiB),
                             f.model.weights(), f.spec, ServerConfig{},
                             &f.model.basis())
                    .valid());
    mt.publishMetrics(metrics);
    EXPECT_DOUBLE_EQ(metrics.gauge("tenant.count").value(), 1.0);
    EXPECT_DOUBLE_EQ(metrics.gauge("tenant.committed_bytes").value(),
                     static_cast<double>(8 * kMiB));
    EXPECT_DOUBLE_EQ(metrics.gauge("tenant.dram_budget_bytes").value(),
                     static_cast<double>(64 * kMiB));
    EXPECT_DOUBLE_EQ(metrics.gauge("tenant.a.dram_bytes").value(),
                     static_cast<double>(8 * kMiB));
    EXPECT_DOUBLE_EQ(
        metrics.gauge("tenant.a.cache_quota_bytes").value(),
        static_cast<double>(2 * kMiB));
}

TEST(MultiTenantServer, ServesAMixExactlyOncePerArrival)
{
    MtFixture f;
    MultiTenantServer mt(f.options);
    TenantHandle a =
        mt.addTenant(MtFixture::tenant("a"), f.model.weights(),
                     f.spec, ServerConfig{}, &f.model.basis());
    TenantHandle b =
        mt.addTenant(MtFixture::tenant("b"), f.model.weights(),
                     f.spec, ServerConfig{}, &f.model.basis());
    const auto queries = f.queryPool(16);

    std::vector<MultiTenantServer::TenantTraffic> mix = {
        {a, poisson(8000.0, 3), 120},
        {b, poisson(8000.0, 4), 80},
    };
    const auto outcomes = mt.run(mix, queries, 5);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].name, "a");
    EXPECT_EQ(outcomes[1].name, "b");
    EXPECT_EQ(outcomes[0].responses.size(), 120u);
    EXPECT_EQ(outcomes[1].responses.size(), 80u);
    for (const auto &outcome : outcomes) {
        std::set<InferenceServer::RequestId> ids;
        for (const auto &response : outcome.responses) {
            ids.insert(response.id);
            EXPECT_EQ(response.status, Status::Ok);
        }
        EXPECT_EQ(ids.size(), outcome.responses.size());
    }

    // Terminal steady state on both lanes, one shared timeline.
    EXPECT_EQ(mt.server(a)->pending(), 0u);
    EXPECT_EQ(mt.server(b)->pending(), 0u);
    EXPECT_GT(mt.deviceTime(), 0u);
    EXPECT_EQ(mt.deviceTime(),
              std::max(mt.server(a)->deviceTime(),
                       mt.server(b)->deviceTime()));
}

TEST(MultiTenantServer, MixIsDeterministicAcrossRuns)
{
    MtFixture f;
    const auto queries = f.queryPool(16);
    auto serve = [&]() {
        MultiTenantServer mt(f.options);
        TenantHandle a =
            mt.addTenant(MtFixture::tenant("a"), f.model.weights(),
                         f.spec, ServerConfig{}, &f.model.basis());
        TenantHandle b =
            mt.addTenant(MtFixture::tenant("b"), f.model.weights(),
                         f.spec, ServerConfig{}, &f.model.basis());
        std::vector<MultiTenantServer::TenantTraffic> mix = {
            {a, poisson(12000.0, 7), 96},
            {b, poisson(9000.0, 8), 64},
        };
        return std::make_pair(mt.run(mix, queries, 5),
                              mt.deviceTime());
    };
    const auto first = serve();
    const auto second = serve();
    EXPECT_EQ(first.second, second.second);
    ASSERT_EQ(first.first.size(), second.first.size());
    for (std::size_t t = 0; t < first.first.size(); ++t) {
        const auto &lhs = first.first[t].responses;
        const auto &rhs = second.first[t].responses;
        ASSERT_EQ(lhs.size(), rhs.size());
        for (std::size_t r = 0; r < lhs.size(); ++r) {
            EXPECT_EQ(lhs[r].id, rhs[r].id);
            EXPECT_EQ(lhs[r].status, rhs[r].status);
            EXPECT_EQ(lhs[r].completedAt, rhs[r].completedAt);
        }
    }
}

TEST(MultiTenantServer, RunRejectsUnknownAndDuplicateMixEntries)
{
    MtFixture f;
    MultiTenantServer mt(f.options);
    TenantHandle a =
        mt.addTenant(MtFixture::tenant("a"), f.model.weights(),
                     f.spec, ServerConfig{}, &f.model.basis());
    const auto queries = f.queryPool(4);

    std::vector<MultiTenantServer::TenantTraffic> unknown = {
        {TenantHandle{}, poisson(1000.0, 1), 8},
    };
    EXPECT_THROW(mt.run(unknown, queries, 5), sim::FatalError);

    std::vector<MultiTenantServer::TenantTraffic> duplicate = {
        {a, poisson(1000.0, 1), 8},
        {a, poisson(1000.0, 2), 8},
    };
    EXPECT_THROW(mt.run(duplicate, queries, 5), sim::FatalError);
}

TEST(MultiTenantServer, OverloadedTenantDegradesItselfFirst)
{
    MtFixture f;
    const auto queries = f.queryPool(16);
    const sim::TrafficConfig calm = poisson(2000.0, 11);
    const std::uint64_t calm_count = 200;

    // Solo baseline: tenant A alone on the device.
    double solo_p99 = 0.0;
    {
        MultiTenantServer mt(f.options);
        TenantHandle a = mt.addTenant(
            MtFixture::tenant("a", /*p99_target_ms=*/5.0),
            f.model.weights(), f.spec, ServerConfig{},
            &f.model.basis());
        mt.run({{a, calm, calm_count}}, queries, 5);
        solo_p99 = mt.server(a)->latencyPercentiles().p99();
        EXPECT_EQ(mt.server(a)->serverStats().shedRequests, 0u);
    }

    // Shared device: tenant B floods far past capacity, under a
    // tight SLO.
    MultiTenantServer mt(f.options);
    TenantHandle a = mt.addTenant(
        MtFixture::tenant("a", /*p99_target_ms=*/5.0),
        f.model.weights(), f.spec, ServerConfig{}, &f.model.basis());
    TenantHandle b = mt.addTenant(
        MtFixture::tenant("b", /*p99_target_ms=*/1.0),
        f.model.weights(), f.spec, ServerConfig{}, &f.model.basis());
    std::vector<MultiTenantServer::TenantTraffic> mix = {
        {a, calm, calm_count},
        {b, poisson(50000.0, 12), 2000},
    };
    mt.run(mix, queries, 5);

    // The overload lands on B: its own admission sheds and its own
    // ladder browns out.
    const ServerStats &stats_b = mt.server(b)->serverStats();
    EXPECT_GT(stats_b.shedRequests, 0u);
    EXPECT_GT(stats_b.brownoutTransitions, 0u);

    // A keeps its latency: p99 within 15% of the solo run, nothing
    // shed, SLO met.
    const double shared_p99 =
        mt.server(a)->latencyPercentiles().p99();
    EXPECT_EQ(mt.server(a)->serverStats().shedRequests, 0u);
    EXPECT_LE(shared_p99, solo_p99 * 1.15);
    EXPECT_LE(shared_p99, 5.0);
}

TEST(MultiTenantServer, SloDerivesTheLaneOverloadPolicy)
{
    MtFixture f;
    MultiTenantServer mt(f.options);
    TenantHandle t = mt.addTenant(MtFixture::tenant("slo", 2.0),
                                  f.model.weights(), f.spec,
                                  ServerConfig{}, &f.model.basis());
    const ServerConfig &derived = mt.server(t)->serverConfig();
    EXPECT_EQ(derived.admissionTargetDelay, sim::milliseconds(2.0));
    const sim::Tick target = sim::milliseconds(2.0);
    EXPECT_EQ(derived.brownout.enterDelay, target * 4 / 5);
    EXPECT_EQ(derived.brownout.exitDelay, target * 2 / 5);
    EXPECT_EQ(derived.brownout.recoveryGuard, target / 5);

    // Explicit knobs win over the SLO derivation.
    ServerConfig explicit_config;
    explicit_config.admissionTargetDelay = sim::milliseconds(9.0);
    TenantHandle u = mt.addTenant(MtFixture::tenant("explicit", 2.0),
                                  f.model.weights(), f.spec,
                                  explicit_config, &f.model.basis());
    EXPECT_EQ(mt.server(u)->serverConfig().admissionTargetDelay,
              sim::milliseconds(9.0));
}

TEST(MultiTenantServer, MetricsAreNamespacedPerTenant)
{
    MtFixture f;
    MultiTenantServer mt(f.options);

    sim::MetricsRegistry live;
    mt.attachObservability(&live, nullptr);
    TenantHandle a = mt.addTenant(
        MtFixture::tenant("a", 5.0, /*quota_bytes=*/16 * 1024),
        f.model.weights(), f.spec, ServerConfig{}, &f.model.basis());
    TenantHandle b =
        mt.addTenant(MtFixture::tenant("b"), f.model.weights(),
                     f.spec, ServerConfig{}, &f.model.basis());
    const auto queries = f.queryPool(8);
    mt.run({{a, poisson(6000.0, 5), 64}, {b, poisson(6000.0, 6), 64}},
           queries, 5);

    // Each lane's device recorded live under its tenant's namespace.
    EXPECT_GT(live.counter("tenant.a.pipeline.batches").value(), 0u);
    EXPECT_GT(live.counter("tenant.b.pipeline.batches").value(), 0u);
    EXPECT_FALSE(live.has("pipeline.batches"));

    // The snapshot adds the ledger and each lane's own snapshot.
    sim::MetricsRegistry snapshot;
    mt.publishMetrics(snapshot);
    EXPECT_DOUBLE_EQ(snapshot.gauge("tenant.count").value(), 2.0);
    EXPECT_DOUBLE_EQ(
        snapshot.gauge("tenant.a.server.latency_p99_ms").value(),
        mt.server(a)->latencyPercentiles().p99());
    EXPECT_TRUE(snapshot.has("tenant.a.server.queue_depth_hwm"));
    EXPECT_DOUBLE_EQ(snapshot.gauge("tenant.a.p99_target_ms").value(),
                     5.0);
    EXPECT_TRUE(snapshot.has("tenant.device_time_ms"));
}

TEST(MultiTenantServer, SpansArePrefixedPerTenant)
{
    MtFixture f;
    MultiTenantServer mt(f.options);
    sim::SpanTracer tracer;
    mt.attachObservability(nullptr, &tracer);
    TenantHandle a =
        mt.addTenant(MtFixture::tenant("a"), f.model.weights(),
                     f.spec, ServerConfig{}, &f.model.basis());
    const auto queries = f.queryPool(8);
    mt.run({{a, poisson(6000.0, 5), 16}}, queries, 5);

    ASSERT_FALSE(tracer.records().empty());
    bool sawTenantSpan = false;
    for (const auto &span : tracer.records()) {
        if (span.name.rfind("tenant.a.", 0) == 0)
            sawTenantSpan = true;
    }
    EXPECT_TRUE(sawTenantSpan);
    // The prefix is scoped to serving quanta: it never leaks into a
    // fresh tracer use afterwards.
    EXPECT_TRUE(tracer.namePrefix().empty());
}

// --- Status vocabulary ----------------------------------------------

TEST(Status, UnifiedVocabularyCoversTenantAndServingOutcomes)
{
    EXPECT_STREQ(toString(Status::Ok), "ok");
    EXPECT_STREQ(toString(Status::TenantQuotaExceeded),
                 "tenant-quota-exceeded");
    // The serving vocabulary folded into the same enum.
    EXPECT_STREQ(toString(Status::Shed), "shed");
    EXPECT_STREQ(toString(Status::Degraded), "degraded");
    // Response::Status is the same type now.
    static_assert(
        std::is_same_v<InferenceServer::Response::Status, Status>);
}
