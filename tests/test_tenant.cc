/**
 * @file
 * Tenant-layer tests: TenantConfig validation, the
 * TenantRegistry partition ledger, the tenant-scoped EcssdApi
 * surface (createTenant / per-tenant deploy / per-tenant sessions),
 * quota-boundary cache isolation, per-tenant deploy-epoch staleness,
 * the UnknownTenant / TenantQuotaExceeded error paths, and the
 * validated EcssdOptions builder.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "ecssd/api.hh"
#include "ecssd/server.hh"
#include "sim/rng.hh"
#include "xclass/metrics.hh"

using namespace ecssd;

namespace
{

constexpr std::uint64_t kMiB = 1ULL << 20;

struct TenantFixture
{
    TenantFixture()
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
            xclass::benchmarkByName("GNMT-E32K"), 512);
        spec.hiddenDim = 128;
        return spec;
    }

    static TenantConfig
    tenant(const std::string &name,
           std::uint64_t dram_bytes = 8 * kMiB,
           std::uint64_t quota_bytes = 0)
    {
        TenantConfig config;
        config.name = name;
        config.dramBytes = dram_bytes;
        config.cacheQuotaBytes = quota_bytes;
        return config;
    }

    std::vector<float>
    query(std::uint64_t seed)
    {
        sim::Rng rng(seed);
        return model.sampleQuery(rng);
    }

    EcssdOptions options;
    xclass::BenchmarkSpec spec;
    xclass::SyntheticModel model;
};

/** Drive one full query through @p session; returns its status. */
Status
runQuery(InferenceSession &session, const std::vector<float> &feature)
{
    Status status = session.sendInt4(feature);
    if (status != Status::Ok)
        return status;
    status = session.sendCfp32(feature);
    if (status != Status::Ok)
        return status;
    status = session.screen();
    if (status != Status::Ok)
        return status;
    status = session.classify();
    if (status != Status::Ok)
        return status;
    xclass::ApproximateClassifier::Prediction prediction;
    return session.results(5, prediction);
}

} // namespace

// --- TenantConfig ----------------------------------------------------

TEST(TenantConfig, ValidationRejectsInconsistentDeclarations)
{
    TenantConfig config = TenantFixture::tenant("ok");
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
    EXPECT_EQ(TenantFixture::tenant("ranker").metricNamespace(),
              "tenant.ranker.");
}

// --- TenantRegistry --------------------------------------------------

TEST(TenantRegistry, AdmissionTracksThePartitionLedger)
{
    TenantRegistry registry(32 * kMiB);
    EXPECT_EQ(registry.committedBytes(), 0u);

    TenantHandle a;
    ASSERT_EQ(registry.admit(TenantFixture::tenant("a", 16 * kMiB), a),
              Status::Ok);
    TenantHandle b;
    ASSERT_EQ(registry.admit(TenantFixture::tenant("b", 8 * kMiB), b),
              Status::Ok);
    EXPECT_TRUE(registry.known(a));
    EXPECT_TRUE(registry.known(b));
    EXPECT_NE(a.id(), b.id());
    EXPECT_EQ(registry.size(), 2u);
    EXPECT_EQ(registry.committedBytes(), 24 * kMiB);

    const TenantRegistry::Entry *entry = registry.entry(a);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->config.name, "a");
    EXPECT_EQ(entry->config.dramBytes, 16 * kMiB);
    EXPECT_EQ(entry->deploys, 0u);
}

TEST(TenantRegistry, OverSubscriptionIsRefusedNotFatal)
{
    TenantRegistry registry(32 * kMiB);
    TenantHandle a;
    ASSERT_EQ(registry.admit(TenantFixture::tenant("a", 24 * kMiB), a),
              Status::Ok);
    TenantHandle b;
    EXPECT_EQ(registry.admit(TenantFixture::tenant("b", 16 * kMiB), b),
              Status::TenantQuotaExceeded);
    EXPECT_FALSE(b.valid());
    // The refused admission left the ledger untouched.
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_EQ(registry.committedBytes(), 24 * kMiB);
}

TEST(TenantRegistry, DuplicateNameIsACallerBug)
{
    TenantRegistry registry(32 * kMiB);
    TenantHandle a;
    ASSERT_EQ(registry.admit(TenantFixture::tenant("a", 8 * kMiB), a),
              Status::Ok);
    TenantHandle dup;
    EXPECT_THROW(
        registry.admit(TenantFixture::tenant("a", 8 * kMiB), dup),
        sim::FatalError);
}

TEST(TenantRegistry, ScreenerChargeChecksThePartition)
{
    TenantRegistry registry(32 * kMiB);
    TenantHandle a;
    ASSERT_EQ(
        registry.admit(
            TenantFixture::tenant("a", 8 * kMiB, 2 * kMiB), a),
        Status::Ok);

    EXPECT_EQ(registry.chargeScreener(a, 4 * kMiB), Status::Ok);
    EXPECT_EQ(registry.entry(a)->screenerBytes, 4 * kMiB);
    EXPECT_EQ(registry.entry(a)->deploys, 1u);

    // Screener plus cache quota must fit the partition.
    EXPECT_EQ(registry.chargeScreener(a, 7 * kMiB),
              Status::TenantQuotaExceeded);
    EXPECT_EQ(registry.entry(a)->screenerBytes, 4 * kMiB);

    // A redeploy's charge replaces the previous deployment's.
    EXPECT_EQ(registry.chargeScreener(a, 1 * kMiB), Status::Ok);
    EXPECT_EQ(registry.entry(a)->screenerBytes, 1 * kMiB);
    EXPECT_EQ(registry.entry(a)->deploys, 2u);

    EXPECT_EQ(registry.chargeScreener(TenantHandle{}, 1),
              Status::UnknownTenant);
}

TEST(TenantRegistry, PublishMetricsIsANoOpWhileEmpty)
{
    TenantRegistry registry(32 * kMiB);
    sim::MetricsRegistry metrics;
    registry.publishMetrics(metrics);
    EXPECT_EQ(metrics.size(), 0u);

    TenantHandle a;
    ASSERT_EQ(
        registry.admit(
            TenantFixture::tenant("a", 8 * kMiB, 2 * kMiB), a),
        Status::Ok);
    registry.publishMetrics(metrics);
    EXPECT_DOUBLE_EQ(metrics.gauge("tenant.count").value(), 1.0);
    EXPECT_DOUBLE_EQ(metrics.gauge("tenant.a.dram_bytes").value(),
                     static_cast<double>(8 * kMiB));
    EXPECT_DOUBLE_EQ(
        metrics.gauge("tenant.a.cache_quota_bytes").value(),
        static_cast<double>(2 * kMiB));
}

// --- Status vocabulary ----------------------------------------------

TEST(Status, UnifiedVocabularyCoversTenantAndServingOutcomes)
{
    EXPECT_STREQ(toString(Status::Ok), "ok");
    EXPECT_STREQ(toString(Status::UnknownTenant), "unknown-tenant");
    EXPECT_STREQ(toString(Status::TenantQuotaExceeded),
                 "tenant-quota-exceeded");
    // The serving vocabulary folded into the same enum.
    EXPECT_STREQ(toString(Status::Shed), "shed");
    EXPECT_STREQ(toString(Status::TimedOut), "timed-out");
    EXPECT_STREQ(toString(Status::Degraded), "degraded");
    // Response::Status is the same type now.
    static_assert(
        std::is_same_v<InferenceServer::Response::Status, Status>);
}

// --- EcssdApi tenant surface ----------------------------------------

TEST(ApiTenants, CreateDeployAndServePerTenant)
{
    TenantFixture f;
    EcssdApi api(f.options);

    Status status = Status::Ok;
    TenantHandle a = api.createTenant(
        TenantFixture::tenant("a", 8 * kMiB), &status);
    ASSERT_EQ(status, Status::Ok);
    ASSERT_TRUE(a.valid());
    TenantHandle b = api.createTenant(
        TenantFixture::tenant("b", 8 * kMiB), &status);
    ASSERT_EQ(status, Status::Ok);
    EXPECT_EQ(api.tenantRegistry().size(), 2u);

    sim::Tick deploy_time = 0;
    ASSERT_EQ(api.weightDeploy(a, f.model.weights(), f.spec,
                               deploy_time, &f.model.basis()),
              Status::Ok);
    EXPECT_GT(deploy_time, 0u);
    ASSERT_EQ(api.weightDeploy(b, f.model.weights(), f.spec,
                               deploy_time, &f.model.basis()),
              Status::Ok);
    EXPECT_EQ(api.tenantRegistry().entry(a)->screenerBytes,
              f.spec.int4WeightBytes());

    auto session = api.beginInference(a, &status);
    ASSERT_EQ(status, Status::Ok);
    ASSERT_TRUE(session.has_value());
    EXPECT_EQ(runQuery(*session, f.query(7)), Status::Ok);
}

TEST(ApiTenants, DeployEpochsAreTenantScoped)
{
    TenantFixture f;
    EcssdApi api(f.options);
    TenantHandle a =
        api.createTenant(TenantFixture::tenant("a", 8 * kMiB));
    TenantHandle b =
        api.createTenant(TenantFixture::tenant("b", 8 * kMiB));
    sim::Tick deploy_time = 0;
    ASSERT_EQ(api.weightDeploy(a, f.model.weights(), f.spec,
                               deploy_time, &f.model.basis()),
              Status::Ok);
    ASSERT_EQ(api.weightDeploy(b, f.model.weights(), f.spec,
                               deploy_time, &f.model.basis()),
              Status::Ok);

    std::uint64_t epoch_a = 0, epoch_b = 0;
    ASSERT_EQ(api.deployEpoch(a, epoch_a), Status::Ok);
    ASSERT_EQ(api.deployEpoch(b, epoch_b), Status::Ok);

    auto session_b = api.beginInference(b);
    ASSERT_TRUE(session_b.has_value());

    // Redeploying tenant A bumps A's epoch only; B's open session
    // stays live.
    ASSERT_EQ(api.weightDeploy(a, f.model.weights(), f.spec,
                               deploy_time, &f.model.basis()),
              Status::Ok);
    std::uint64_t epoch = 0;
    ASSERT_EQ(api.deployEpoch(a, epoch), Status::Ok);
    EXPECT_EQ(epoch, epoch_a + 1);
    ASSERT_EQ(api.deployEpoch(b, epoch), Status::Ok);
    EXPECT_EQ(epoch, epoch_b);
    EXPECT_EQ(runQuery(*session_b, f.query(3)), Status::Ok);

    // B's own stop-the-world deploy turns B's session stale.
    ASSERT_EQ(api.weightDeploy(b, f.model.weights(), f.spec,
                               deploy_time, &f.model.basis()),
              Status::Ok);
    EXPECT_EQ(runQuery(*session_b, f.query(3)),
              Status::StaleSession);
    EXPECT_EQ(api.tenantRegistry().entry(b)->deploys, 2u);
}

TEST(ApiTenants, StagedRedeployRunsPerTenant)
{
    TenantFixture f;
    EcssdApi api(f.options);
    TenantHandle a =
        api.createTenant(TenantFixture::tenant("a", 8 * kMiB));
    sim::Tick deploy_time = 0;
    ASSERT_EQ(api.weightDeploy(a, f.model.weights(), f.spec,
                               deploy_time, &f.model.basis()),
              Status::Ok);
    std::uint64_t before = 0;
    ASSERT_EQ(api.deployEpoch(a, before), Status::Ok);

    ASSERT_EQ(api.redeployBegin(a, f.model.weights(), f.spec,
                                RedeployConfig{}, &f.model.basis()),
              Status::Ok);
    sim::Tick background_time = 0;
    ASSERT_EQ(api.redeployRun(a, background_time), Status::Ok);
    std::uint64_t after = 0;
    ASSERT_EQ(api.deployEpoch(a, after), Status::Ok);
    EXPECT_GT(after, before);
    EXPECT_EQ(api.redeployAdvance(a), Status::NoRedeploy);
}

TEST(ApiTenants, UnknownHandlesReportInsteadOfDying)
{
    TenantFixture f;
    EcssdApi api(f.options);
    const TenantHandle nobody;

    Status status = Status::Ok;
    auto session = api.beginInference(nobody, &status);
    EXPECT_FALSE(session.has_value());
    EXPECT_EQ(status, Status::UnknownTenant);

    sim::Tick deploy_time = 0;
    EXPECT_EQ(api.weightDeploy(nobody, f.model.weights(), f.spec,
                               deploy_time),
              Status::UnknownTenant);
    EXPECT_EQ(api.redeployBegin(nobody, f.model.weights(), f.spec),
              Status::UnknownTenant);
    EXPECT_EQ(api.redeployAdvance(nobody), Status::UnknownTenant);
    sim::Tick background_time = 0;
    EXPECT_EQ(api.redeployRun(nobody, background_time),
              Status::UnknownTenant);
    std::uint64_t epoch = 0;
    EXPECT_EQ(api.deployEpoch(nobody, epoch), Status::UnknownTenant);
    EXPECT_EQ(api.tenantEngine(nobody), nullptr);
}

TEST(ApiTenants, TenantDeployHonoursTheHostBudget)
{
    // A tenant engine inherits the device's deploy host budget, and
    // its deploy streams under it like any other.
    TenantFixture f;
    f.spec = xclass::scaledDown(xclass::benchmarkByName("GNMT-E32K"),
                                4096);
    f.spec.hiddenDim = 64;
    const xclass::SyntheticModel model(f.spec, 1);
    f.options.deployHostBudgetBytes = 64ULL << 10;
    EcssdApi api(f.options);
    TenantHandle a =
        api.createTenant(TenantFixture::tenant("a", 8 * kMiB));
    ASSERT_TRUE(a.valid());

    sim::Tick deploy_time = 0;
    ASSERT_EQ(api.weightDeploy(a, model.weights(), f.spec, deploy_time),
              Status::Ok);
    const StreamingDeployResult *outcome =
        api.tenantEngine(a)->streamingDeploy();
    ASSERT_NE(outcome, nullptr);
    EXPECT_EQ(outcome->deployTime, deploy_time);
    EXPECT_EQ(outcome->hostBudgetBytes, f.options.deployHostBudgetBytes);
    EXPECT_GE(outcome->runsSpilled, 2u);
    EXPECT_LE(outcome->hostPeakBytes, outcome->hostBudgetBytes);
    EXPECT_EQ(outcome->rowsPlaced, f.spec.categories);
}

TEST(ApiTenants, QuotaRefusalsLeaveTheDeviceUntouched)
{
    TenantFixture f;
    f.options.ssd.dramBytes = 16 * kMiB;
    EcssdApi api(f.options);

    TenantHandle a =
        api.createTenant(TenantFixture::tenant("a", 12 * kMiB));
    ASSERT_TRUE(a.valid());

    // Partition over-subscription refuses admission.
    Status status = Status::Ok;
    TenantHandle b = api.createTenant(
        TenantFixture::tenant("b", 8 * kMiB), &status);
    EXPECT_EQ(status, Status::TenantQuotaExceeded);
    EXPECT_FALSE(b.valid());
    EXPECT_EQ(api.tenantRegistry().size(), 1u);

    // A deploy whose screener plus cache quota outgrows the
    // partition refuses before touching the engine.
    TenantConfig tight = TenantFixture::tenant(
        "tight", 20 * 1024, 16 * 1024);
    ASSERT_GT(f.spec.int4WeightBytes() + tight.cacheQuotaBytes,
              tight.dramBytes);
    TenantHandle t = api.createTenant(tight, &status);
    ASSERT_EQ(status, Status::Ok);
    sim::Tick deploy_time = 0;
    EXPECT_EQ(api.weightDeploy(t, f.model.weights(), f.spec,
                               deploy_time),
              Status::TenantQuotaExceeded);
    EXPECT_EQ(api.tenantRegistry().entry(t)->deploys, 0u);
    // The refused tenant has no deployment to serve.
    auto session = api.beginInference(t, &status);
    ASSERT_TRUE(session.has_value());
    EXPECT_EQ(session->screen(), Status::NotDeployed);
}

TEST(ApiTenants, CacheQuotasIsolateTenantsAtTheByteBoundary)
{
    TenantFixture f;
    const std::uint64_t quota_a = 16 * 1024;
    const std::uint64_t quota_b = 8 * 1024;
    EcssdApi api(f.options);
    TenantHandle a = api.createTenant(
        TenantFixture::tenant("a", 8 * kMiB, quota_a));
    TenantHandle b = api.createTenant(
        TenantFixture::tenant("b", 8 * kMiB, quota_b));
    sim::Tick deploy_time = 0;
    ASSERT_EQ(api.weightDeploy(a, f.model.weights(), f.spec,
                               deploy_time, &f.model.basis()),
              Status::Ok);
    ASSERT_EQ(api.weightDeploy(b, f.model.weights(), f.spec,
                               deploy_time, &f.model.basis()),
              Status::Ok);

    const accel::RowCache *cache_a =
        api.tenantEngine(a)->system().pipeline().rowCache();
    const accel::RowCache *cache_b =
        api.tenantEngine(b)->system().pipeline().rowCache();
    ASSERT_NE(cache_a, nullptr);
    ASSERT_NE(cache_b, nullptr);
    EXPECT_EQ(cache_a->capacityBytes(), quota_a);
    EXPECT_EQ(cache_b->capacityBytes(), quota_b);

    // Warm A, then hammer B far past B's quota.
    auto session_a = api.beginInference(a);
    ASSERT_TRUE(session_a.has_value());
    for (int q = 0; q < 4; ++q)
        ASSERT_EQ(runQuery(*session_a, f.query(q)), Status::Ok);
    const std::uint64_t resident_a = cache_a->residentBytes();
    EXPECT_GT(resident_a, 0u);
    EXPECT_LE(resident_a, quota_a);

    auto session_b = api.beginInference(b);
    ASSERT_TRUE(session_b.has_value());
    for (int q = 0; q < 32; ++q)
        ASSERT_EQ(runQuery(*session_b, f.query(100 + q)), Status::Ok);

    // B filled its own quota at most — and evicted nothing of A's.
    EXPECT_LE(cache_b->residentBytes(), quota_b);
    EXPECT_EQ(cache_a->residentBytes(), resident_a);
}

TEST(ApiTenants, ConstructorAdmitsConfiguredTenants)
{
    TenantFixture f;
    f.options.tenants.push_back(
        TenantFixture::tenant("a", 8 * kMiB, 1 * kMiB));
    f.options.tenants.push_back(
        TenantFixture::tenant("b", 8 * kMiB));
    EcssdApi api(f.options);
    EXPECT_EQ(api.tenantRegistry().size(), 2u);
    EXPECT_EQ(api.tenantRegistry().committedBytes(), 16 * kMiB);
}

TEST(ApiTenants, PublishTenantMetricsIsNamespacedAndGatedOnTenancy)
{
    TenantFixture f;
    {
        // Single-tenant device: publishing is a no-op, keeping
        // tenant-less metric dumps byte-identical.
        EcssdApi api(f.options);
        sim::MetricsRegistry metrics;
        api.publishTenantMetrics(metrics);
        EXPECT_EQ(metrics.size(), 0u);
    }

    EcssdApi api(f.options);
    TenantHandle a =
        api.createTenant(TenantFixture::tenant("a", 8 * kMiB));
    sim::Tick deploy_time = 0;
    ASSERT_EQ(api.weightDeploy(a, f.model.weights(), f.spec,
                               deploy_time, &f.model.basis()),
              Status::Ok);
    sim::MetricsRegistry metrics;
    api.publishTenantMetrics(metrics);
    EXPECT_DOUBLE_EQ(metrics.gauge("tenant.count").value(), 1.0);
    EXPECT_TRUE(metrics.has("tenant.a.deploy_epoch"));
    EXPECT_TRUE(metrics.has("tenant.a.screener_bytes"));
}

// --- EcssdOptions builder -------------------------------------------

TEST(OptionsBuilder, BuildsAValidatedOptionSet)
{
    const EcssdOptions options = EcssdOptions::builder()
                                     .threads(4)
                                     .cacheMb(8)
                                     .seed(42)
                                     .overlapStages(false)
                                     .tenant(TenantFixture::tenant(
                                         "a", 8 * kMiB, 1 * kMiB))
                                     .build();
    EXPECT_EQ(options.threads, 4u);
    EXPECT_EQ(options.cache.capacityBytes, 8 * kMiB);
    EXPECT_EQ(options.seed, 42u);
    EXPECT_FALSE(options.overlapStages);
    ASSERT_EQ(options.tenants.size(), 1u);
    EXPECT_EQ(options.tenants[0].name, "a");
}

TEST(OptionsBuilder, BuildRunsValidationExactlyThere)
{
    // An inconsistent set dies in build(), not in the setters.
    auto builder = EcssdOptions::builder().predictorNoise(-1.0);
    EXPECT_THROW(builder.build(), sim::FatalError);
}

TEST(OptionsBuilder, ValidateRejectsOverSubscribedPartitions)
{
    EcssdOptions options;
    options.ssd.dramBytes = 16 * kMiB;
    options.tenants.push_back(
        TenantFixture::tenant("a", 12 * kMiB));
    options.tenants.push_back(TenantFixture::tenant("b", 8 * kMiB));
    EXPECT_THROW(options.validate(), sim::FatalError);

    options.tenants.pop_back();
    options.tenants.push_back(
        TenantFixture::tenant("a", 2 * kMiB));
    EXPECT_THROW(options.validate(), sim::FatalError); // duplicate
}

TEST(OptionsBuilder, DescribeGainsATenantTableOnlyWhenTenanted)
{
    EcssdOptions plain;
    EXPECT_EQ(describe(plain).find("tenants="), std::string::npos);

    EcssdOptions tenanted;
    tenanted.tenants.push_back(
        TenantFixture::tenant("a", 8 * kMiB, 1 * kMiB));
    EXPECT_NE(describe(tenanted).find("tenants=[a:8/1MiB]"),
              std::string::npos);
}
