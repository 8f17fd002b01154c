/**
 * @file
 * Multi-tenant model identity and SSD-DRAM partition accounting.
 *
 * A production fleet serves several extreme-classification models
 * from one device.  Each model is a *tenant*: it owns a DRAM
 * partition (its INT4 screener residency plus a hot-row cache byte
 * quota carved out of it), a metric/span namespace
 * ("tenant.<name>."), and an SLO record (deadline, p99 target) the
 * admission/brownout stack enforces per tenant.  MultiTenantServer
 * (multi_tenant.hh) serves them, one lane per tenant.
 *
 * The TenantRegistry is pure accounting, in the spirit of
 * DramModel::reserve(): it decides who may claim how much of the
 * device DRAM, while the partitions themselves are enforced
 * mechanically — every tenant's lane is built against a DRAM budget
 * equal to its partition, and its row cache is sized to its byte
 * quota, so one tenant can never evict another tenant's rows past
 * that tenant's quota by construction.
 */

#ifndef ECSSD_ECSSD_TENANT_HH
#define ECSSD_ECSSD_TENANT_HH

#include <cstdint>
#include <map>
#include <string>

#include "ecssd/status.hh"
#include "sim/metrics.hh"
#include "sim/types.hh"

namespace ecssd
{

/** Dense tenant identifier (admission numbers tenants from 1). */
using TenantId = std::uint32_t;

/** One tenant's partition, quota, and SLO declaration. */
struct TenantConfig
{
    /** Namespace-safe tenant name ([a-z0-9_-]); surfaces in every
     *  metric/span as "tenant.<name>.*". */
    std::string name;
    /**
     * The tenant's SSD-DRAM partition: its INT4 screener residency
     * plus its row-cache quota must fit inside it.  Partitions of
     * all admitted tenants must sum to at most the device DRAM.
     */
    std::uint64_t dramBytes = 0;
    /** Row-cache byte quota carved out of the partition (0 = no
     *  cache for this tenant). */
    std::uint64_t cacheQuotaBytes = 0;

    // --- SLO ------------------------------------------------------
    /** Per-request completion deadline (0 = none). */
    sim::Tick requestDeadline = 0;
    /** Serving p99 target in milliseconds; drives the tenant's
     *  admission target and brownout thresholds (0 = no target). */
    double p99TargetMs = 0.0;

    /** Die fatally (sim::FatalError) on an inconsistent config. */
    void validate() const;

    /** The tenant's metric/span namespace: "tenant.<name>.". */
    std::string metricNamespace() const;
};

/**
 * An opaque reference to an admitted tenant.  Handles are plain
 * values: copying is free, and a handle that names no admitted
 * tenant (stale, foreign, or forged) is reported, never followed:
 * ledger calls return Status::UnknownTenant and
 * MultiTenantServer::server() returns nullptr.
 */
class TenantHandle
{
  public:
    /** The invalid handle (never admitted). */
    TenantHandle() = default;

    explicit TenantHandle(TenantId id) : id_(id), valid_(true) {}

    TenantId id() const { return id_; }
    bool valid() const { return valid_; }

  private:
    TenantId id_ = 0;
    bool valid_ = false;
};

/**
 * Admission and DRAM-partition ledger for the tenants of one device.
 *
 * Admission checks the partition sum against the device DRAM budget;
 * per-deploy screener residency charges check against the tenant's
 * own partition.  All methods report through Status — an
 * over-subscribed admission is a caller error, not a fatal one.
 */
class TenantRegistry
{
  public:
    /** Per-tenant ledger entry. */
    struct Entry
    {
        TenantConfig config;
        /** INT4 screener bytes of the tenant's current deployment. */
        std::uint64_t screenerBytes = 0;
        /** Lifetime weight deployments (stop-the-world or flips). */
        std::uint64_t deploys = 0;
    };

    /** @param dram_budget_bytes Device DRAM the partitions share. */
    explicit TenantRegistry(std::uint64_t dram_budget_bytes)
        : dramBudgetBytes_(dram_budget_bytes)
    {
    }

    /**
     * Admit one tenant.  Validates @p config, rejects duplicate
     * names, and checks the partition sum:
     * TenantQuotaExceeded when the partitions would over-subscribe
     * the device DRAM.
     *
     * @param[out] handle The admitted tenant, valid only on Ok.
     */
    Status admit(const TenantConfig &config, TenantHandle &handle);

    /** True when @p handle names an admitted tenant. */
    bool known(TenantHandle handle) const;

    /** The admitted tenant's entry; nullptr for unknown handles. */
    const Entry *entry(TenantHandle handle) const;

    /**
     * Charge a deployment's INT4 screener residency against the
     * tenant's partition.  The tenant's screener plus its cache
     * quota must fit its dramBytes: TenantQuotaExceeded otherwise
     * (the charge replaces any previous deployment's).
     */
    Status chargeScreener(TenantHandle handle, std::uint64_t bytes);

    /** Admitted tenant count. */
    std::size_t size() const { return tenants_.size(); }

    /** Sum of admitted partitions. */
    std::uint64_t committedBytes() const;

    std::uint64_t dramBudgetBytes() const { return dramBudgetBytes_; }

    /** Ledger iteration (id-sorted, deterministic). */
    const std::map<TenantId, Entry> &tenants() const
    {
        return tenants_;
    }

    /**
     * Snapshot the partition ledger as "tenant.<name>.*" gauges
     * (dram_bytes, cache_quota_bytes, screener_bytes, deploys) plus
     * the device-level "tenant.committed_bytes" /
     * "tenant.count" pair.  No-op while no tenant is admitted, so
     * single-tenant runs keep their metrics byte-identical.
     */
    void publishMetrics(sim::MetricsRegistry &registry) const;

  private:
    std::uint64_t dramBudgetBytes_;
    TenantId nextId_ = 1;
    std::map<TenantId, Entry> tenants_;
};

} // namespace ecssd

#endif // ECSSD_ECSSD_TENANT_HH
