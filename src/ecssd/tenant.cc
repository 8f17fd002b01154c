#include "tenant.hh"

#include "sim/logging.hh"

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

Status
TenantRegistry::admit(const TenantConfig &config, TenantHandle &handle)
{
    config.validate();
    for (const auto &[id, entry] : tenants_) {
        if (entry.config.name == config.name)
            sim::fatal("tenant '", config.name, "' admitted twice");
    }
    if (committedBytes() + config.dramBytes > dramBudgetBytes_)
        return Status::TenantQuotaExceeded;
    const TenantId id = nextId_++;
    tenants_.emplace(id, Entry{config, 0, 0});
    handle = TenantHandle(id);
    return Status::Ok;
}

bool
TenantRegistry::known(TenantHandle handle) const
{
    return handle.valid() && tenants_.count(handle.id()) != 0;
}

const TenantRegistry::Entry *
TenantRegistry::entry(TenantHandle handle) const
{
    if (!known(handle))
        return nullptr;
    return &tenants_.at(handle.id());
}

Status
TenantRegistry::chargeScreener(TenantHandle handle,
                               std::uint64_t bytes)
{
    if (!known(handle))
        return Status::UnknownTenant;
    Entry &entry = tenants_.at(handle.id());
    if (bytes + entry.config.cacheQuotaBytes > entry.config.dramBytes)
        return Status::TenantQuotaExceeded;
    entry.screenerBytes = bytes;
    ++entry.deploys;
    return Status::Ok;
}

std::uint64_t
TenantRegistry::committedBytes() const
{
    std::uint64_t sum = 0;
    for (const auto &[id, entry] : tenants_)
        sum += entry.config.dramBytes;
    return sum;
}

void
TenantRegistry::publishMetrics(sim::MetricsRegistry &registry) const
{
    if (tenants_.empty())
        return;
    registry.gaugeSet("tenant.count",
                      static_cast<double>(tenants_.size()));
    registry.gaugeSet("tenant.committed_bytes",
                      static_cast<double>(committedBytes()));
    registry.gaugeSet("tenant.dram_budget_bytes",
                      static_cast<double>(dramBudgetBytes_));
    for (const auto &[id, entry] : tenants_) {
        const std::string ns = entry.config.metricNamespace();
        registry.gaugeSet(ns + "dram_bytes",
                          static_cast<double>(entry.config.dramBytes));
        registry.gaugeSet(
            ns + "cache_quota_bytes",
            static_cast<double>(entry.config.cacheQuotaBytes));
        registry.gaugeSet(ns + "screener_bytes",
                          static_cast<double>(entry.screenerBytes));
        registry.gaugeSet(ns + "deploys",
                          static_cast<double>(entry.deploys));
    }
}

} // namespace ecssd
