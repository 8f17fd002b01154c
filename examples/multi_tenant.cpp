/**
 * @file
 * Multi-tenant serving: two extreme-classification models
 * time-multiplexed on one ECSSD, each with its own DRAM partition,
 * row-cache quota, deploy epoch, and SLO — the overloaded tenant
 * sheds and browns out its own traffic while its neighbour keeps
 * its latency.
 */

#include <cstdio>

#include "ecssd/multi_tenant.hh"
#include "sim/rng.hh"

using namespace ecssd;

namespace
{

TenantConfig
tenantConfig(const char *name, double p99_target_ms)
{
    TenantConfig config;
    config.name = name;
    config.dramBytes = 64ULL << 20;
    config.cacheQuotaBytes = 4ULL << 20;
    config.p99TargetMs = p99_target_ms;
    return config;
}

} // namespace

int
main()
{
    // One physical device; every lane's EcssdSystem validates the
    // option set it is built from.
    EcssdOptions options;
    options.ssd = ssdsim::smallTestConfig();
    options.threads = 1;
    options.seed = 7;

    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 1024);
    spec.hiddenDim = 128;
    spec.batchSize = 4;
    const xclass::SyntheticModel ranker(spec, 11);
    const xclass::SyntheticModel ads(spec, 23);

    // Two tenants on the shared device.  Each lane's DRAM budget is
    // its partition and its row cache is sized to its quota, so one
    // tenant can never evict the other's rows.
    MultiTenantServer device(options);
    const TenantHandle a =
        device.addTenant(tenantConfig("ranker", 5.0),
                         ranker.weights(), spec, ServerConfig{},
                         &ranker.basis());
    const TenantHandle b =
        device.addTenant(tenantConfig("ads", 1.0), ads.weights(),
                         spec, ServerConfig{}, &ads.basis());
    std::printf("admitted %zu tenants, %llu MiB partitioned\n",
                device.tenantCount(),
                (unsigned long long)(device.committedBytes() >> 20));

    // A calm stream for the ranker, a flood for ads: the mix merges
    // time-ordered onto the shared device clock.
    sim::Rng rng(17);
    std::vector<std::vector<float>> queries;
    for (int q = 0; q < 16; ++q)
        queries.push_back(ranker.sampleQuery(rng));

    sim::TrafficConfig calm;
    calm.ratePerSecond = 2000.0;
    calm.seed = 3;
    sim::TrafficConfig flood;
    flood.ratePerSecond = 50000.0;
    flood.seed = 4;

    device.run({{a, calm, 200}, {b, flood, 2000}}, queries, /*k=*/5);

    for (const TenantHandle t : {a, b}) {
        const InferenceServer &lane = *device.server(t);
        std::printf("tenant %-6s  p99 %7.3f ms  shed %4llu  "
                    "brownout transitions %llu\n",
                    device.tenantConfig(t)->name.c_str(),
                    lane.latencyPercentiles().p99(),
                    (unsigned long long)
                        lane.serverStats().shedRequests,
                    (unsigned long long)
                        lane.serverStats().brownoutTransitions);
    }
    std::printf("shared device time %.3f ms\n",
                sim::tickToMs(device.deviceTime()));
    return 0;
}
