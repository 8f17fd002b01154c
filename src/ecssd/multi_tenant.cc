#include "multi_tenant.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace ecssd
{

void
TenantConfig::validate() const
{
    if (name.empty())
        sim::fatal("tenant config: name must not be empty");
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z')
            || (c >= '0' && c <= '9') || c == '_' || c == '-';
        if (!ok)
            sim::fatal("tenant '", name,
                       "': names are metric-namespace material and "
                       "must match [a-z0-9_-]");
    }
    if (dramBytes == 0)
        sim::fatal("tenant '", name,
                   "': dramBytes must be positive (the partition "
                   "holds the screener residency)");
    if (cacheQuotaBytes > dramBytes)
        sim::fatal("tenant '", name, "': cache quota (",
                   cacheQuotaBytes, ") exceeds the DRAM partition (",
                   dramBytes, ")");
    if (p99TargetMs < 0.0)
        sim::fatal("tenant '", name, "': p99TargetMs must be >= 0");
}

std::string
TenantConfig::metricNamespace() const
{
    return "tenant." + name + ".";
}

MultiTenantServer::MultiTenantServer(const EcssdOptions &options)
    : options_(options)
{
}

MultiTenantServer::~MultiTenantServer() = default;

ServerConfig
MultiTenantServer::deriveServerConfig(const TenantConfig &tenant,
                                      ServerConfig base)
{
    if (tenant.p99TargetMs > 0.0) {
        const sim::Tick target =
            sim::milliseconds(tenant.p99TargetMs);
        // The p99 target drives the overload stack: estimated
        // sojourns past the target shed at admission, and the
        // brownout ladder engages at 0.8x with a 0.4x recovery
        // threshold and a 0.2x healthy-dwell guard — so the tenant
        // degrades its own quality before it can miss its SLO, and
        // long before it can crowd a neighbour off the device.
        if (base.admissionTargetDelay == 0)
            base.admissionTargetDelay = target;
        if (!base.brownout.enabled()) {
            base.brownout.enterDelay = target * 4 / 5;
            base.brownout.exitDelay = target * 2 / 5;
            base.brownout.recoveryGuard = target / 5;
        }
    }
    return base;
}

TenantHandle
MultiTenantServer::addTenant(
    const TenantConfig &config, const numeric::FloatMatrix &weights,
    const xclass::BenchmarkSpec &spec,
    const ServerConfig &server_config,
    const numeric::FloatMatrix *trained_projection, Status *status)
{
    // The lane's screener residency plus its cache quota must fit
    // the tenant's partition, and the partitions the device DRAM.
    const auto refuse = [status] {
        if (status)
            *status = Status::TenantQuotaExceeded;
        return TenantHandle{};
    };
    const std::uint64_t screener_bytes =
        screenerDramBytes(options_, spec);
    if (screener_bytes + config.cacheQuotaBytes > config.dramBytes)
        return refuse();
    config.validate();
    for (const auto &[id, lane] : lanes_) {
        if (lane.config.name == config.name)
            sim::fatal("tenant '", config.name, "' admitted twice");
    }
    if (committedBytes() + config.dramBytes > options_.ssd.dramBytes)
        return refuse();
    if (status)
        *status = Status::Ok;
    const TenantHandle handle(nextId_++);

    // The lane's device: the shared architecture carved down to the
    // tenant's partition, its row cache sized to the tenant's quota.
    EcssdOptions lane_options = options_;
    lane_options.ssd.dramBytes = config.dramBytes;
    lane_options.cache.capacityBytes = config.cacheQuotaBytes;

    Lane lane;
    lane.ns = config.metricNamespace();
    lane.config = config;
    lane.screenerBytes = screener_bytes;
    lane.batchSize = spec.batchSize;
    lane.server = std::make_unique<InferenceServer>(
        weights, spec, lane_options, trained_projection,
        deriveServerConfig(config, server_config));
    if (metrics_)
        lane.metricsView = std::make_unique<sim::MetricsRegistry>(
            *metrics_, lane.ns);
    lane.server->attachObservability(lane.metricsView.get(), spans_);
    lanes_.emplace(handle.id(), std::move(lane));
    return handle;
}

std::uint64_t
MultiTenantServer::committedBytes() const
{
    std::uint64_t sum = 0;
    for (const auto &[id, lane] : lanes_)
        sum += lane.config.dramBytes;
    return sum;
}

const TenantConfig *
MultiTenantServer::tenantConfig(TenantHandle tenant) const
{
    const auto it = tenant.valid() ? lanes_.find(tenant.id())
                                   : lanes_.end();
    return it == lanes_.end() ? nullptr : &it->second.config;
}

InferenceServer *
MultiTenantServer::server(TenantHandle tenant)
{
    const auto it = tenant.valid() ? lanes_.find(tenant.id())
                                   : lanes_.end();
    return it == lanes_.end() ? nullptr : it->second.server.get();
}

void
MultiTenantServer::serveQuantum(
    Lane &lane, std::size_t k,
    std::vector<InferenceServer::Response> &sink)
{
    // The device is shared: this lane's batch cannot start before
    // the device finished whatever another lane ran last.
    lane.server->alignDeviceClock(sharedClock_);
    const sim::SpanPrefixScope prefixed(spans_, lane.ns);
    std::vector<InferenceServer::Response> batch =
        lane.server->serveBatch(k);
    sharedClock_ = std::max(sharedClock_, lane.server->deviceTime());
    for (InferenceServer::Response &response : batch)
        sink.push_back(std::move(response));
}

std::vector<MultiTenantServer::TenantOutcome>
MultiTenantServer::run(const std::vector<TenantTraffic> &mix,
                       const std::vector<std::vector<float>> &queries,
                       std::size_t k)
{
    ECSSD_ASSERT(!queries.empty(),
                 "multi-tenant serving needs a query pool");
    for (std::size_t a = 0; a < mix.size(); ++a) {
        if (!server(mix[a].tenant))
            sim::fatal("run(): mix entry ", a,
                       " names no admitted tenant");
        for (std::size_t b = a + 1; b < mix.size(); ++b) {
            if (mix[a].tenant.id() == mix[b].tenant.id())
                sim::fatal("run(): tenant appears twice in the mix");
        }
    }

    // Pre-draw every stream (each engine is a pure function of its
    // config) and merge time-ordered; ties break by tenant id so the
    // interleave is deterministic.
    struct Slot
    {
        sim::Arrival arrival;
        TenantId tenant;
    };
    std::vector<Slot> merged;
    for (const TenantTraffic &stream : mix) {
        sim::TrafficEngine engine(stream.traffic);
        for (const sim::Arrival &arrival :
             engine.generate(stream.count))
            merged.push_back(Slot{arrival, stream.tenant.id()});
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Slot &a, const Slot &b) {
                         if (a.arrival.at != b.arrival.at)
                             return a.arrival.at < b.arrival.at;
                         return a.tenant < b.tenant;
                     });

    std::map<TenantId, std::vector<InferenceServer::Response>>
        outcomes;
    for (const TenantTraffic &stream : mix)
        outcomes[stream.tenant.id()];

    for (const Slot &slot : merged) {
        Lane &lane = lanes_.at(slot.tenant);
        // The lane idles forward to the arrival (admission sojourn
        // estimates are measured from a current clock) but never
        // behind the shared device timeline.
        lane.server->alignDeviceClock(slot.arrival.at);
        lane.server->enqueueAt(
            queries[slot.arrival.querySeed % queries.size()],
            slot.arrival.at, slot.arrival.cls);
        // A full device batch is ready: spend one shared-device
        // quantum on it now, in arrival order across tenants.
        if (lane.server->pending() >= lane.batchSize)
            serveQuantum(lane, k, outcomes.at(slot.tenant));
    }

    // Drain round-robin (id order) so no tenant's leftovers
    // monopolize the device tail.
    bool any = true;
    while (any) {
        any = false;
        for (auto &[id, lane] : lanes_) {
            if (lane.server->pending() == 0)
                continue;
            any = true;
            serveQuantum(lane, k, outcomes.at(id));
        }
    }
    // Terminal housekeeping per lane: finish in-flight hot swaps,
    // recover the brownout ladder, flush shed/dropped responses —
    // processAll() on an empty queue does exactly that.
    for (auto &[id, lane] : lanes_) {
        lane.server->alignDeviceClock(sharedClock_);
        const sim::SpanPrefixScope prefixed(spans_, lane.ns);
        for (InferenceServer::Response &response :
             lane.server->processAll(k))
            outcomes.at(id).push_back(std::move(response));
        sharedClock_ =
            std::max(sharedClock_, lane.server->deviceTime());
    }

    std::vector<TenantOutcome> result;
    result.reserve(mix.size());
    for (const TenantTraffic &stream : mix) {
        TenantOutcome outcome;
        outcome.name = lanes_.at(stream.tenant.id()).config.name;
        outcome.responses =
            std::move(outcomes.at(stream.tenant.id()));
        result.push_back(std::move(outcome));
    }
    return result;
}

void
MultiTenantServer::attachObservability(sim::MetricsRegistry *metrics,
                                       sim::SpanTracer *spans)
{
    metrics_ = metrics;
    spans_ = spans;
    for (auto &[id, lane] : lanes_) {
        std::unique_ptr<sim::MetricsRegistry> view;
        if (metrics)
            view = std::make_unique<sim::MetricsRegistry>(*metrics,
                                                          lane.ns);
        // Re-attach before dropping the old view: the lane must
        // never hold a dangling registry pointer.
        lane.server->attachObservability(view.get(), spans);
        lane.metricsView = std::move(view);
    }
}

void
MultiTenantServer::publishMetrics(sim::MetricsRegistry &registry) const
{
    if (lanes_.empty())
        return;
    registry.gaugeSet("tenant.count",
                      static_cast<double>(lanes_.size()));
    registry.gaugeSet("tenant.committed_bytes",
                      static_cast<double>(committedBytes()));
    registry.gaugeSet("tenant.dram_budget_bytes",
                      static_cast<double>(options_.ssd.dramBytes));
    for (const auto &[id, lane] : lanes_) {
        registry.gaugeSet(lane.ns + "dram_bytes",
                          static_cast<double>(lane.config.dramBytes));
        registry.gaugeSet(
            lane.ns + "cache_quota_bytes",
            static_cast<double>(lane.config.cacheQuotaBytes));
        registry.gaugeSet(lane.ns + "screener_bytes",
                          static_cast<double>(lane.screenerBytes));
        registry.gaugeSet(
            lane.ns + "deploys",
            static_cast<double>(lane.server->weightVersion()));
    }
    registry.gaugeSet("tenant.device_time_ms",
                      sim::tickToMs(sharedClock_));
    for (const auto &[id, lane] : lanes_) {
        sim::MetricsRegistry view(registry, lane.ns);
        lane.server->publishMetrics(view);
        view.gaugeSet("p99_ms",
                      lane.server->latencyPercentiles().p99());
        view.gaugeSet("p50_ms",
                      lane.server->latencyPercentiles().p50());
        view.gaugeSet("p99_target_ms", lane.config.p99TargetMs);
        view.gaugeSet("sheds",
                      static_cast<double>(
                          lane.server->serverStats().shedRequests));
    }
}

} // namespace ecssd
