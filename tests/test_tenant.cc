/**
 * @file
 * Tenant-layer tests: TenantConfig validation, the TenantRegistry
 * partition ledger, the unified Status vocabulary, and the validated
 * EcssdOptions builder.
 */

#include <gtest/gtest.h>

#include "ecssd/server.hh"
#include "ecssd/tenant.hh"
#include "sim/metrics.hh"

using namespace ecssd;

namespace
{

constexpr std::uint64_t kMiB = 1ULL << 20;

TenantConfig
tenant(const std::string &name, std::uint64_t dram_bytes = 8 * kMiB,
       std::uint64_t quota_bytes = 0)
{
    TenantConfig config;
    config.name = name;
    config.dramBytes = dram_bytes;
    config.cacheQuotaBytes = quota_bytes;
    return config;
}

} // namespace

// --- TenantConfig ----------------------------------------------------

TEST(TenantConfig, ValidationRejectsInconsistentDeclarations)
{
    TenantConfig config = tenant("ok");
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
    EXPECT_EQ(tenant("ranker").metricNamespace(),
              "tenant.ranker.");
}

// --- TenantRegistry --------------------------------------------------

TEST(TenantRegistry, AdmissionTracksThePartitionLedger)
{
    TenantRegistry registry(32 * kMiB);
    EXPECT_EQ(registry.committedBytes(), 0u);

    TenantHandle a;
    ASSERT_EQ(registry.admit(tenant("a", 16 * kMiB), a),
              Status::Ok);
    TenantHandle b;
    ASSERT_EQ(registry.admit(tenant("b", 8 * kMiB), b),
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
    ASSERT_EQ(registry.admit(tenant("a", 24 * kMiB), a),
              Status::Ok);
    TenantHandle b;
    EXPECT_EQ(registry.admit(tenant("b", 16 * kMiB), b),
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
    ASSERT_EQ(registry.admit(tenant("a", 8 * kMiB), a),
              Status::Ok);
    TenantHandle dup;
    EXPECT_THROW(
        registry.admit(tenant("a", 8 * kMiB), dup),
        sim::FatalError);
}

TEST(TenantRegistry, ScreenerChargeChecksThePartition)
{
    TenantRegistry registry(32 * kMiB);
    TenantHandle a;
    ASSERT_EQ(
        registry.admit(
            tenant("a", 8 * kMiB, 2 * kMiB), a),
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
            tenant("a", 8 * kMiB, 2 * kMiB), a),
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
