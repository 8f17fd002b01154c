/**
 * @file
 * Multi-tenant serving: several models time-multiplexed on one
 * physical ECSSD.
 *
 * Each model is a *tenant*: it owns a DRAM partition (its INT4
 * screener residency plus a hot-row cache byte quota carved out of
 * it), a metric/span namespace ("tenant.<name>."), and an SLO record
 * (a p99 target) the admission/brownout stack enforces per tenant.
 * The partitions of all admitted tenants sum to at most the device
 * DRAM; the lanes are that ledger.
 *
 * Each admitted tenant gets a serving *lane*: an InferenceServer over
 * an EcssdSystem whose DRAM budget is the tenant's partition and
 * whose row cache is sized to the tenant's byte quota — so cache
 * isolation is mechanical (a tenant's cache cannot hold a byte past
 * its quota, and can therefore never evict another tenant's rows),
 * and each lane keeps its own deploy epoch, admission controller, and
 * brownout ladder.
 *
 * The lanes share one device clock.  run() merges every tenant's
 * open-loop arrival stream into one time-ordered sequence and serves
 * batch quanta round-robin: a lane aligns to the shared clock before
 * its quantum and pushes it forward after, so the tenants observe a
 * common device timeline instead of private ones.  SLO enforcement is
 * per tenant and rides the existing stack: a tenant's p99 target
 * derives its admission delay target and brownout thresholds, so an
 * overloaded tenant sheds and browns out *its own* traffic first
 * while a healthy neighbour keeps its latency.
 *
 * Batch formation is run()'s own rule: a lane is served only once it
 * holds a full batch (pending() reaches the tenant spec's batchSize)
 * or in the final round-robin drain.  A lone InferenceServer's
 * runTraffic() instead serves whatever has arrived whenever the
 * device frees up.  A single-tenant MultiTenantServer is therefore
 * not latency-equivalent to a lone server with the same lane options:
 * at light load its requests wait for a full batch (paper_tables'
 * tenant "a", GNMT-E32K at 1,024 rows, D = 128, batch 4, 400 Poisson
 * arrivals at 2,000/s: p99 3.96 ms here against 0.07 ms from
 * runTraffic() on the same carved options).  The layer adds no
 * device-side behaviour of its own.
 */

#ifndef ECSSD_ECSSD_MULTI_TENANT_HH
#define ECSSD_ECSSD_MULTI_TENANT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ecssd/server.hh"

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
 * MultiTenantServer::server() and tenantConfig() return nullptr.
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

/** The shared-device multi-tenant serving scheduler. */
class MultiTenantServer
{
  public:
    /**
     * @param options Device architecture every lane inherits; each
     *        lane's copy gets its DRAM budget cut to the tenant's
     *        partition and its cache sized to the tenant's quota.
     */
    explicit MultiTenantServer(
        const EcssdOptions &options = EcssdOptions::full());

    ~MultiTenantServer();

    /**
     * Admit one tenant and bring up its serving lane.  A tenant whose
     * screener plus cache quota overflows its own partition is
     * refused first; then @p config must validate and its name must
     * be new (both fatal otherwise); last, the partitions must fit
     * the device DRAM.  A refusal leaves the ledger untouched.
     *
     * The tenant's SLO fills the lane's serving policy wherever
     * @p server_config leaves a knob unset: a p99 target derives the
     * admission delay target and the brownout enter/exit/guard
     * thresholds (0.8/0.4/0.2 of the target), so overload degrades
     * this tenant before it can hurt a neighbour.
     *
     * @param config Partition/quota/SLO declaration.
     * @param weights The tenant's deployed L x D layer (must outlive
     *        the server).
     * @param spec The tenant's benchmark parameters.
     * @param server_config Explicit serving-policy knobs (override
     *        the SLO derivation where set).
     * @param trained_projection Optional learned projection.
     * @param[out] status TenantQuotaExceeded when the partition does
     *        not fit the device DRAM or the tenant's screener plus
     *        cache quota does not fit the partition (optional).
     * @return The admitted tenant; invalid on failure.
     */
    TenantHandle addTenant(
        const TenantConfig &config,
        const numeric::FloatMatrix &weights,
        const xclass::BenchmarkSpec &spec,
        const ServerConfig &server_config = ServerConfig{},
        const numeric::FloatMatrix *trained_projection = nullptr,
        Status *status = nullptr);

    /** Admitted tenant count. */
    std::size_t tenantCount() const { return lanes_.size(); }

    /** Sum of the admitted tenants' DRAM partitions. */
    std::uint64_t committedBytes() const;

    /** One tenant's declaration (nullptr for unknown handles). */
    const TenantConfig *tenantConfig(TenantHandle tenant) const;

    /** One tenant's lane server (nullptr for unknown handles). */
    InferenceServer *server(TenantHandle tenant);

    /** One tenant's traffic stream for run(). */
    struct TenantTraffic
    {
        TenantHandle tenant;
        sim::TrafficConfig traffic;
        /** Arrivals to draw from this tenant's stream. */
        std::uint64_t count = 0;
    };

    /** One tenant's terminal responses from a run() mix. */
    struct TenantOutcome
    {
        std::string name;
        std::vector<InferenceServer::Response> responses;
    };

    /**
     * Serve a per-tenant open-loop traffic mix on the shared device:
     * arrivals merge time-ordered across tenants, each lane serves
     * batch quanta against the shared clock, and the final drain
     * round-robins until every queue is empty (finishing in-flight
     * hot swaps and recovering every brownout ladder).
     *
     * @param mix One stream per entry; a tenant may appear once.
     * @param queries Query pool shared by all tenants; each
     *        arrival's querySeed selects one deterministically.
     * @param k Top-k per request.
     * @return One outcome per mix entry, same order.
     */
    std::vector<TenantOutcome> run(
        const std::vector<TenantTraffic> &mix,
        const std::vector<std::vector<float>> &queries,
        std::size_t k);

    /** The shared device timeline (max over lanes). */
    sim::Tick deviceTime() const { return sharedClock_; }

    /**
     * Attach (or detach, with nullptr) observability sinks.  Every
     * lane records through a "tenant.<name>."-scoped view of
     * @p metrics, and its serving quanta prefix their spans the same
     * way — all tenant telemetry is namespaced, none of it collides.
     */
    void attachObservability(sim::MetricsRegistry *metrics,
                             sim::SpanTracer *spans);

    /**
     * Snapshot the tenant layer into @p registry: the partition
     * ledger ("tenant.count", "tenant.committed_bytes",
     * "tenant.dram_budget_bytes", and per tenant dram_bytes,
     * cache_quota_bytes, screener_bytes and deploys) plus, per
     * tenant, the lane's full "server.*" gauge set and its SLO view
     * (p99_ms, p99_target_ms, sheds) under "tenant.<name>.".  No-op
     * while no tenant is admitted, so single-tenant runs keep their
     * metrics byte-identical.
     */
    void publishMetrics(sim::MetricsRegistry &registry) const;

  private:
    /** One tenant's serving lane. */
    struct Lane
    {
        TenantConfig config;
        /** "tenant.<name>." metric/span namespace. */
        std::string ns;
        /** INT4 screener residency inside the partition. */
        std::uint64_t screenerBytes = 0;
        /** Device batch size of the lane's deployed spec (the
         *  quantum trigger). */
        std::size_t batchSize = 1;
        /** Scoped view the lane's server records through. */
        std::unique_ptr<sim::MetricsRegistry> metricsView;
        std::unique_ptr<InferenceServer> server;
    };

    /** Fill unset serving knobs from the tenant's SLO record. */
    static ServerConfig deriveServerConfig(const TenantConfig &tenant,
                                           ServerConfig base);

    /** Serve one quantum on @p lane against the shared clock,
     *  appending its terminal responses to @p sink. */
    void serveQuantum(Lane &lane, std::size_t k,
                      std::vector<InferenceServer::Response> &sink);

    EcssdOptions options_;
    /** Lanes in tenant-id order (deterministic round-robin). */
    std::map<TenantId, Lane> lanes_;
    TenantId nextId_ = 1;
    sim::Tick sharedClock_ = 0;
    sim::MetricsRegistry *metrics_ = nullptr;
    sim::SpanTracer *spans_ = nullptr;
};

} // namespace ecssd

#endif // ECSSD_ECSSD_MULTI_TENANT_HH
