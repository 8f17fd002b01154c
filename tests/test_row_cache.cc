/**
 * @file
 * Hot-row DRAM cache tests: the set-associative structure (lookup,
 * admission policies, eviction, relocation invalidation, degraded-read
 * accounting), the options validation that sizes it, and the system-
 * level guarantees — fewer flash candidate reads, cache metrics that
 * are byte-identical across thread counts, a disabled cache that is
 * invisible, and FTL relocations that probe the cache.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "accel/row_cache.hh"
#include "ecssd/system.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"
#include "ssdsim/address.hh"

using namespace ecssd;
using accel::CacheConfig;
using accel::RowCache;

namespace
{

constexpr std::uint64_t kGroupBytes = 4096;

/** A one-set cache of @p ways entries (every group collides). */
RowCache
oneSetCache(unsigned ways, CacheConfig::Admission admission,
            std::function<double(std::uint64_t)> hot_degree = {})
{
    CacheConfig config;
    config.capacityBytes = ways * kGroupBytes;
    config.associativity = ways;
    config.admission = admission;
    return RowCache(config, kGroupBytes, 1024, std::move(hot_degree));
}

std::vector<ssdsim::PhysicalPage>
pagesInBlock(unsigned channel, unsigned block)
{
    return {ssdsim::PhysicalPage{channel, 0, 0, block, 0}};
}

xclass::BenchmarkSpec
smallSpec()
{
    return xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 4096);
}

/** Metrics JSON of one instrumented run at @p threads. */
std::string
runMetricsJson(const EcssdOptions &options)
{
    sim::MetricsRegistry registry;
    EcssdSystem system(smallSpec(), options);
    system.attachObservability(&registry, nullptr);
    const accel::RunResult result = system.runInference(2);
    system.publishMetrics(registry, result);
    std::ostringstream os;
    registry.writeJson(os);
    return os.str();
}

std::uint64_t
totalFp32Pages(const accel::RunResult &result)
{
    std::uint64_t pages = 0;
    for (const accel::BatchTiming &batch : result.batches)
        pages += batch.fp32PagesRead;
    return pages;
}

} // namespace

// --- The structure -----------------------------------------------------

TEST(RowCache, MissAdmitHitRoundTrip)
{
    RowCache cache = oneSetCache(4, CacheConfig::Admission::AdmitAll);
    EXPECT_EQ(cache.entryCount(), 4u);
    EXPECT_EQ(cache.occupancy(), 0u);

    EXPECT_FALSE(cache.lookup(5, 2));
    EXPECT_TRUE(cache.admit(5, pagesInBlock(0, 1)));
    EXPECT_EQ(cache.occupancy(), 1u);
    EXPECT_TRUE(cache.lookup(5, 2));

    // Re-admitting a resident group is a no-op.
    EXPECT_FALSE(cache.admit(5, pagesInBlock(0, 1)));
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);
    EXPECT_DOUBLE_EQ(cache.stats().hitRate(), 0.5);
}

TEST(RowCache, EvictionPicksLowestPriorityOldestFirst)
{
    RowCache cache = oneSetCache(2, CacheConfig::Admission::AdmitAll);
    // Groups 1 and 2, equal frequency: the tie falls on the older
    // insertion (group 1).
    EXPECT_FALSE(cache.lookup(1, 1));
    EXPECT_TRUE(cache.admit(1, pagesInBlock(0, 1)));
    EXPECT_FALSE(cache.lookup(2, 1));
    EXPECT_TRUE(cache.admit(2, pagesInBlock(0, 2)));

    EXPECT_FALSE(cache.lookup(3, 1));
    EXPECT_TRUE(cache.admit(3, pagesInBlock(0, 3)));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.occupancy(), 2u);
    EXPECT_FALSE(cache.lookup(1, 1)); // evicted
    EXPECT_TRUE(cache.lookup(2, 1));  // survived
}

TEST(RowCache, HotDegreeAdmissionKeepsTheHotSet)
{
    // Groups below 10 are predicted hot; the rest cold.
    RowCache cache = oneSetCache(
        2, CacheConfig::Admission::HotDegree,
        [](std::uint64_t group) { return group < 10 ? 0.5 : 0.0; });

    // Two hot groups, each seen twice: priority 2.5.
    for (const std::uint64_t group : {1, 2}) {
        cache.lookup(group, 1);
        cache.lookup(group, 1);
        EXPECT_TRUE(cache.admit(group, pagesInBlock(0, group)));
    }

    // A cold group seen once (priority 1.0) cannot displace them.
    EXPECT_FALSE(cache.lookup(20, 1));
    EXPECT_FALSE(cache.admit(20, pagesInBlock(0, 20)));
    EXPECT_EQ(cache.stats().admissionRejects, 1u);
    EXPECT_TRUE(cache.lookup(1, 1));
    EXPECT_TRUE(cache.lookup(2, 1));

    // A hotter group (seen four times: priority 4.5) gets in.
    for (int i = 0; i < 4; ++i)
        cache.lookup(7, 1);
    EXPECT_TRUE(cache.admit(7, pagesInBlock(0, 7)));
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(RowCache, RelocationInvalidatesByBlock)
{
    RowCache cache = oneSetCache(4, CacheConfig::Admission::AdmitAll);
    cache.lookup(3, 1);
    EXPECT_TRUE(cache.admit(3, pagesInBlock(1, 6)));
    cache.lookup(4, 1);
    EXPECT_TRUE(cache.admit(4, pagesInBlock(2, 6)));

    // Same block, a different page of it: the group's backing block
    // was rewritten, so the DRAM copy must go.
    cache.invalidatePhysical(ssdsim::PhysicalPage{1, 0, 0, 6, 7});
    EXPECT_EQ(cache.stats().invalidations, 1u);
    EXPECT_EQ(cache.occupancy(), 1u);
    EXPECT_FALSE(cache.lookup(3, 1));
    EXPECT_TRUE(cache.lookup(4, 1));

    // A relocation elsewhere probes but drops nothing.
    cache.invalidatePhysical(ssdsim::PhysicalPage{3, 0, 0, 6, 0});
    EXPECT_EQ(cache.stats().relocationProbes, 2u);
    EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(RowCache, HitOnFlashLostGroupCountsAvoidedDegradation)
{
    RowCache cache = oneSetCache(4, CacheConfig::Admission::AdmitAll);
    cache.lookup(9, 1);
    EXPECT_TRUE(cache.admit(9, pagesInBlock(0, 2)));
    cache.markFlashLost(9);
    EXPECT_TRUE(cache.flashLost(9));

    EXPECT_TRUE(cache.lookup(9, 3));
    EXPECT_EQ(cache.stats().avoidedDegradedRows, 3u);
}

// --- Options validation ------------------------------------------------

TEST(OptionsValidate, RejectsBrokenKnobs)
{
    EcssdOptions options;
    options.threads = 0;
    EXPECT_THROW(options.validate(), sim::FatalError);

    options = EcssdOptions{};
    options.predictorNoise = -1.0;
    EXPECT_THROW(options.validate(), sim::FatalError);
    options.predictorNoise =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(options.validate(), sim::FatalError);

    options = EcssdOptions{};
    options.cache.associativity = 0;
    EXPECT_THROW(options.validate(), sim::FatalError);

    EXPECT_NO_THROW(EcssdOptions{}.validate());
}

TEST(OptionsValidate, CacheMustFitDramAfterScreenerResidency)
{
    const xclass::BenchmarkSpec spec = smallSpec();
    EcssdOptions options = EcssdOptions::full();
    // Claiming every DRAM byte cannot leave room for the resident
    // INT4 screener.
    options.cache.capacityBytes = options.ssd.dramBytes;
    EXPECT_THROW(options.validate(&spec), sim::FatalError);
    EXPECT_THROW(EcssdSystem(spec, options), sim::FatalError);

    options.cache.capacityBytes = 4ULL << 20;
    EXPECT_NO_THROW(options.validate(&spec));
}

// --- System integration ------------------------------------------------

TEST(RowCacheSystem, CacheCutsFlashCandidateReads)
{
    const xclass::BenchmarkSpec spec = smallSpec();
    EcssdSystem plain(spec, EcssdOptions::full());
    const accel::RunResult base = plain.runInference(2);

    EcssdOptions options = EcssdOptions::full();
    options.cache.capacityBytes = 4ULL << 20;
    EcssdSystem cached(spec, options);
    const accel::RunResult result = cached.runInference(2);

    EXPECT_GT(result.cacheHitRows, 0u);
    EXPECT_GT(result.cacheHitRate(), 0.0);
    EXPECT_LT(totalFp32Pages(result), totalFp32Pages(base));

    // Caching changes where bytes come from, never what is computed:
    // the candidate stream is identical.
    ASSERT_EQ(result.batches.size(), base.batches.size());
    for (std::size_t b = 0; b < base.batches.size(); ++b)
        EXPECT_EQ(result.batches[b].candidateRows,
                  base.batches[b].candidateRows);
}

TEST(RowCacheSystem, MetricsByteIdenticalAcrossThreads)
{
    EcssdOptions options = EcssdOptions::full();
    options.cache.capacityBytes = 4ULL << 20;
    options.threads = 1;
    const std::string reference = runMetricsJson(options);
    EXPECT_NE(reference.find("cache.hit"), std::string::npos);
    EXPECT_NE(reference.find("cache.miss"), std::string::npos);
    EXPECT_NE(reference.find("run.cache_hit_rate"),
              std::string::npos);

    options.threads = 2;
    EXPECT_EQ(runMetricsJson(options), reference);
    options.threads = 8;
    EXPECT_EQ(runMetricsJson(options), reference);
}

TEST(RowCacheSystem, DisabledCacheIsInvisible)
{
    // Zero capacity must be byte-identical to the pre-cache system:
    // no cache object, no "cache." metric keys, identical JSON.
    const std::string reference =
        runMetricsJson(EcssdOptions::full());
    EXPECT_EQ(reference.find("cache."), std::string::npos);

    EcssdOptions zero = EcssdOptions::full();
    zero.cache.capacityBytes = 0;
    zero.cache.associativity = 16; // knobs without capacity are inert
    EXPECT_EQ(runMetricsJson(zero), reference);
}

TEST(RowCacheSystem, FtlRelocationsProbeTheCache)
{
    // Small geometry (8 pages/block, 16 blocks/plane) so a few
    // hundred host overwrites drive the FTL into garbage collection.
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 512);
    spec.hiddenDim = 128;
    EcssdOptions options = EcssdOptions::full();
    options.ssd = ssdsim::smallTestConfig();
    options.ssd.channels = 8;
    options.cache.capacityBytes = 1ULL << 20;

    EcssdSystem system(spec, options);
    system.runInference(2);
    const accel::RowCache *cache = system.pipeline().rowCache();
    ASSERT_NE(cache, nullptr);
    EXPECT_GT(cache->occupancy(), 0u);

    // Random overwrites leave partly stale blocks behind; GC
    // relocates their valid pages, and every relocation must probe
    // the cache (a block-key match additionally invalidates the
    // resident group).
    const ssdsim::Ftl &ftl = system.ssd().ftl();
    sim::Rng rng(5);
    sim::Tick done = 0;
    for (int write = 0;
         write < 4096 && ftl.stats().gcRelocations == 0; ++write) {
        const ssdsim::LogicalPage lpa =
            write < 256 ? write : rng.uniformInt(256);
        done = system.ssd().hostWrite(lpa, done);
    }
    ASSERT_GT(ftl.stats().gcRelocations, 0u);
    EXPECT_GT(cache->stats().relocationProbes, 0u);
    EXPECT_EQ(cache->stats().relocationProbes,
              ftl.stats().gcRelocations);
    EXPECT_GE(cache->stats().relocationProbes,
              cache->stats().invalidations);
}
