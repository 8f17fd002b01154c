/**
 * @file
 * Background re-layout tests: divergence measurement from the row
 * cache's observed-frequency feed, threshold-gated migration that
 * recovers channel balance after hot-set drift, cache coherence
 * through the FTL relocation listener (no stale hits on migrated
 * groups), the IO-budget time stretch, and disabled configurations
 * that never migrate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "accel/candidate_source.hh"
#include "accel/row_cache.hh"
#include "ecssd/system.hh"
#include "sim/metrics.hh"

using namespace ecssd;

namespace
{

xclass::BenchmarkSpec
relayoutSpec()
{
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 4096);
    spec.hiddenDim = 64;
    return spec;
}

EcssdOptions
relayoutOptions()
{
    EcssdOptions options;
    options.ssd = ssdsim::smallTestConfig();
    options.ssd.channels = 8;
    options.cache.capacityBytes = 1ULL << 20;
    options.relayout.enabled = true;
    options.relayout.divergenceThreshold = 0.2;
    options.relayout.pageBudget = 4096;
    return options;
}

/** Replays the same candidate rows every batch (drifted hot set). */
class FixedSource : public accel::CandidateSource
{
  public:
    FixedSource(std::uint64_t rows, std::vector<std::uint64_t> batch)
        : rows_(rows), batch_(std::move(batch))
    {
    }

    std::uint64_t rows() const override { return rows_; }
    std::vector<std::uint64_t> nextBatch() override
    {
        return batch_;
    }

  private:
    std::uint64_t rows_;
    std::vector<std::uint64_t> batch_;
};

/**
 * Candidate rows covering @p wanted page groups that the system's
 * layout placed on channel @p channel: traffic concentrated there is
 * maximal drift from the balanced prediction.
 */
std::vector<std::uint64_t>
rowsOnChannel(const EcssdSystem &system,
              const xclass::BenchmarkSpec &spec, unsigned channel,
              std::size_t wanted)
{
    const std::uint64_t rows_per_page = std::max<std::uint64_t>(
        1, system.options().ssd.pageBytes / spec.rowBytes());
    std::vector<std::uint64_t> rows;
    const layout::LayoutStrategy &strategy = system.strategy();
    for (std::uint64_t group = 0;
         group < strategy.rows() && rows.size() < wanted; ++group)
        if (strategy.channelOf(group) == channel)
            rows.push_back(group * rows_per_page);
    return rows;
}

} // namespace

TEST(Relayout, DisabledConfigIsInvisible)
{
    EcssdOptions options = relayoutOptions();
    options.relayout.enabled = false;
    EcssdSystem system(relayoutSpec(), options);
    const accel::RunResult result = system.runInference(2);

    const sim::Tick now = 12345;
    EXPECT_EQ(system.relayoutStep(now), now);
    EXPECT_EQ(system.relayoutStats().passes, 0u);

    // The snapshot still carries the (idle) re-layout record.
    sim::MetricsRegistry registry;
    system.publishMetrics(registry, result);
    EXPECT_EQ(registry.gauge("relayout.passes").value(), 0.0);
    EXPECT_EQ(registry.gauge("relayout.pages_moved").value(), 0.0);
}

TEST(Relayout, NeedsTheCacheFeed)
{
    // Without the row cache there is no observed-frequency feed:
    // the step must be a no-op, not a crash.
    EcssdOptions options = relayoutOptions();
    options.cache.capacityBytes = 0;
    EcssdSystem system(relayoutSpec(), options);
    system.runInference(1);
    EXPECT_EQ(system.relayoutStep(1000), 1000u);
    EXPECT_EQ(system.relayoutStats().passes, 0u);
}

TEST(Relayout, BalancedTrafficOnlyMeasures)
{
    // The trace source follows the same hotness oracle the layout
    // was built from: observed traffic stays near-balanced, so a
    // generous threshold keeps the pass measure-only.
    EcssdOptions options = relayoutOptions();
    options.relayout.divergenceThreshold = 0.9;
    EcssdSystem system(relayoutSpec(), options);
    const accel::RunResult result = system.runInference(2);

    const sim::Tick end = system.relayoutStep(result.totalTime);
    EXPECT_EQ(end, result.totalTime);
    const RelayoutStats &stats = system.relayoutStats();
    EXPECT_EQ(stats.passes, 1u);
    EXPECT_EQ(stats.migrationPasses, 0u);
    EXPECT_EQ(stats.rowsMigrated, 0u);
    EXPECT_LE(stats.lastDivergence, 0.9);
}

TEST(Relayout, DriftTriggersMigrationAndRecoversBalance)
{
    const xclass::BenchmarkSpec spec = relayoutSpec();
    EcssdSystem system(spec, relayoutOptions());

    // Concentrate every candidate on channel 0's groups: observed
    // divergence ~ 1 - 1/channels, far past the threshold.
    FixedSource source(spec.categories,
                       rowsOnChannel(system, spec, 0, 32));
    const accel::RunResult result =
        system.runInferenceWith(source, 4);

    const sim::Tick end = system.relayoutStep(result.totalTime);
    const RelayoutStats &stats = system.relayoutStats();
    EXPECT_EQ(stats.passes, 1u);
    EXPECT_EQ(stats.migrationPasses, 1u);
    EXPECT_GT(stats.rowsMigrated, 0u);
    EXPECT_GT(stats.pagesMoved, 0u);
    EXPECT_GT(end, result.totalTime);

    // The acceptance bar: the pass recovers at least 80% of the
    // gap between the drifted balance and perfect balance.
    const double before = 1.0 - stats.lastDivergence;
    EXPECT_GE(stats.recoveredBalance,
              before + 0.8 * (1.0 - before))
        << "before=" << before
        << " after=" << stats.recoveredBalance;

    // The migrations are visible in the FTL's counters.
    EXPECT_EQ(system.ssd().ftl().stats().relayoutMigrations,
              stats.pagesMoved);
}

TEST(Relayout, MigrationInvalidatesCachedGroups)
{
    const xclass::BenchmarkSpec spec = relayoutSpec();
    EcssdSystem system(spec, relayoutOptions());

    FixedSource source(spec.categories,
                       rowsOnChannel(system, spec, 0, 32));
    const accel::RunResult result =
        system.runInferenceWith(source, 4);

    // Snapshot which groups sit on channel 0 before the pass.
    std::vector<std::uint64_t> on_channel0;
    for (std::uint64_t g = 0; g < system.strategy().rows(); ++g)
        if (system.strategy().channelOf(g) == 0)
            on_channel0.push_back(g);

    accel::RowCache *cache = system.pipeline().rowCache();
    ASSERT_NE(cache, nullptr);
    const std::uint64_t probes_before =
        cache->stats().relocationProbes;

    system.relayoutStep(result.totalTime);
    const RelayoutStats &stats = system.relayoutStats();
    ASSERT_GT(stats.rowsMigrated, 0u);

    // Every migrated page fired the relocation listener...
    EXPECT_EQ(cache->stats().relocationProbes - probes_before,
              stats.pagesMoved);

    // ...and no migrated group may still be served from DRAM: a
    // stale hit would read the old channel's copy.
    for (const std::uint64_t g : on_channel0) {
        if (system.strategy().channelOf(g) != 0) {
            EXPECT_FALSE(cache->lookup(g, 1))
                << "stale cache hit on migrated group " << g;
        }
    }
}

TEST(Relayout, IoBudgetStretchesCompletion)
{
    const xclass::BenchmarkSpec spec = relayoutSpec();

    const auto elapsed = [&](double fraction) {
        EcssdOptions options = relayoutOptions();
        options.relayout.ioBudgetFraction = fraction;
        EcssdSystem system(spec, options);
        FixedSource source(spec.categories,
                           rowsOnChannel(system, spec, 0, 32));
        const accel::RunResult result =
            system.runInferenceWith(source, 4);
        const sim::Tick end =
            system.relayoutStep(result.totalTime);
        EXPECT_GT(system.relayoutStats().rowsMigrated, 0u);
        return end - result.totalTime;
    };

    const sim::Tick full = elapsed(1.0);
    const sim::Tick quarter = elapsed(0.25);
    // Same seed, same traffic, same migrations: the only difference
    // is the budget share, so a quarter share takes ~4x as long.
    EXPECT_GE(quarter, 3 * full);
}

TEST(Relayout, SnapshotTracksEveryPass)
{
    const xclass::BenchmarkSpec spec = relayoutSpec();
    EcssdSystem system(spec, relayoutOptions());
    FixedSource source(spec.categories,
                       rowsOnChannel(system, spec, 0, 32));
    const accel::RunResult result =
        system.runInferenceWith(source, 2);

    // Before any pass the family is there, at its idle values.
    sim::MetricsRegistry registry;
    system.publishMetrics(registry, result);
    EXPECT_EQ(registry.gauge("relayout.passes").value(), 0.0);
    EXPECT_EQ(registry.gauge("relayout.divergence").value(), 0.0);
    EXPECT_EQ(registry.gauge("relayout.recovered_balance").value(), 1.0);

    system.relayoutStep(result.totalTime);
    system.publishMetrics(registry, result);
    const RelayoutStats &stats = system.relayoutStats();
    EXPECT_EQ(registry.gauge("relayout.passes").value(), 1.0);
    EXPECT_EQ(registry.gauge("relayout.divergence").value(),
              stats.lastDivergence);
    EXPECT_GT(stats.lastDivergence, 0.0);
    EXPECT_EQ(registry.gauge("relayout.recovered_balance").value(),
              stats.recoveredBalance);
    EXPECT_EQ(registry.gauge("relayout.rows_migrated").value(),
              static_cast<double>(stats.rowsMigrated));
}

TEST(Relayout, ValidateRejectsBadConfig)
{
    const xclass::BenchmarkSpec spec = relayoutSpec();

    EcssdOptions bad = relayoutOptions();
    bad.relayout.ioBudgetFraction = 0.0;
    EXPECT_THROW(EcssdSystem(spec, bad), sim::FatalError);

    bad = relayoutOptions();
    bad.relayout.ioBudgetFraction = 1.5;
    EXPECT_THROW(EcssdSystem(spec, bad), sim::FatalError);

    bad = relayoutOptions();
    bad.relayout.divergenceThreshold = -0.1;
    EXPECT_THROW(EcssdSystem(spec, bad), sim::FatalError);

    bad = relayoutOptions();
    bad.relayout.pageBudget = 0;
    EXPECT_THROW(EcssdSystem(spec, bad), sim::FatalError);

    // Disabled configs skip the checks entirely.
    EcssdOptions off = relayoutOptions();
    off.relayout.enabled = false;
    off.relayout.ioBudgetFraction = 0.0;
    EXPECT_NO_THROW(EcssdSystem(spec, off));
}
