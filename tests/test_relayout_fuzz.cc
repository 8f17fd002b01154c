/**
 * @file
 * Drift-fuzz for the background re-layout task: randomized hot-set
 * drift (focus channel, group count, batch count, budgets) followed
 * by budgeted migration passes, asserting on every iteration that
 *
 *  1. recovered balance never falls below the drifted balance
 *     (a pass may be a no-op, never a regression),
 *  2. the page budget is honored exactly,
 *  3. serving survives the mutated placement: every batch after the
 *     migrations completes, none fail, and candidate-row accounting
 *     matches (no lost or double-served work),
 *  4. no migrated group is still served stale from the DRAM cache.
 *
 * Iteration counts scale with ECSSD_FUZZ_ITERS (the nightly
 * long-fuzz CI job sets it to soak far beyond the per-commit
 * budget).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "accel/candidate_source.hh"
#include "accel/row_cache.hh"
#include "ecssd/system.hh"
#include "sim/rng.hh"

#include "fuzz_iters.hh"

using namespace ecssd;

namespace
{

xclass::BenchmarkSpec
fuzzSpec()
{
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 2048);
    spec.hiddenDim = 64;
    return spec;
}

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

} // namespace

TEST(RelayoutFuzz, RandomDriftNeverRegressesBalanceOrLosesWork)
{
    const xclass::BenchmarkSpec spec = fuzzSpec();
    const int iters = fuzzIters(8);
    sim::Rng rng(0xd21f7);

    for (int iter = 0; iter < iters; ++iter) {
        EcssdOptions options;
        options.ssd = ssdsim::smallTestConfig();
        options.ssd.channels = 8;
        options.seed = 1 + iter;
        options.cache.capacityBytes = 1ULL << 20;
        options.relayout.enabled = true;
        options.relayout.divergenceThreshold =
            rng.uniform(0.05, 0.5);
        options.relayout.pageBudget = static_cast<unsigned>(
            rng.uniformInt(8, 4096));
        options.relayout.ioBudgetFraction = rng.uniform(0.1, 1.0);
        EcssdSystem system(spec, options);

        // Drift: concentrate traffic on a random channel's groups.
        const unsigned focus = static_cast<unsigned>(
            rng.uniformInt(0, options.ssd.channels - 1));
        const std::size_t wanted =
            static_cast<std::size_t>(rng.uniformInt(4, 48));
        const std::uint64_t rows_per_page =
            std::max<std::uint64_t>(
                1, options.ssd.pageBytes / spec.rowBytes());
        std::vector<std::uint64_t> batch;
        for (std::uint64_t g = 0;
             g < system.strategy().rows()
             && batch.size() < wanted;
             ++g)
            if (system.strategy().channelOf(g) == focus)
                batch.push_back(g * rows_per_page);
        ASSERT_FALSE(batch.empty());

        FixedSource drift(spec.categories, batch);
        const unsigned drift_batches = static_cast<unsigned>(
            rng.uniformInt(1, 4));
        const accel::RunResult drifted =
            system.runInferenceWith(drift, drift_batches);

        const sim::Tick end =
            system.relayoutStep(drifted.totalTime);
        const RelayoutStats &stats = system.relayoutStats();

        // (1) A pass never leaves the observed balance worse than
        // it found it.
        EXPECT_GE(stats.recoveredBalance,
                  1.0 - stats.lastDivergence - 1e-12)
            << "iter " << iter;
        // (2) The page budget is a hard cap.
        EXPECT_LE(stats.pagesMoved, options.relayout.pageBudget)
            << "iter " << iter;
        EXPECT_GE(end, drifted.totalTime);

        // (4) Migrated groups may not be stale cache hits.
        if (accel::RowCache *cache = system.pipeline().rowCache()) {
            for (const std::uint64_t row : batch) {
                const std::uint64_t group = row / rows_per_page;
                if (system.strategy().channelOf(group) != focus) {
                    EXPECT_FALSE(cache->lookup(group, 1))
                        << "iter " << iter << " group " << group;
                }
            }
        }

        // (3) Serving on the mutated placement: every batch
        // completes against the re-homed pages, none fail, and each
        // batch saw exactly the candidate set it asked for.
        FixedSource verify(spec.categories, batch);
        const accel::RunResult after =
            system.runInferenceWith(verify, 2);
        EXPECT_EQ(after.batches.size(), 2u) << "iter " << iter;
        for (const accel::BatchTiming &timing : after.batches) {
            EXPECT_FALSE(timing.failed) << "iter " << iter;
            EXPECT_EQ(timing.candidateRows, batch.size())
                << "iter " << iter;
        }
    }
}

TEST(RelayoutFuzz, RepeatedPassesConverge)
{
    // After enough passes over stationary drifted traffic the
    // divergence settles below the threshold and migrations stop:
    // the task must not oscillate rows back and forth forever.
    const xclass::BenchmarkSpec spec = fuzzSpec();
    EcssdOptions options;
    options.ssd = ssdsim::smallTestConfig();
    options.ssd.channels = 8;
    options.cache.capacityBytes = 1ULL << 20;
    options.relayout.enabled = true;
    options.relayout.divergenceThreshold = 0.2;
    options.relayout.pageBudget = 64;
    EcssdSystem system(spec, options);

    const std::uint64_t rows_per_page = std::max<std::uint64_t>(
        1, options.ssd.pageBytes / spec.rowBytes());
    std::vector<std::uint64_t> batch;
    for (std::uint64_t g = 0;
         g < system.strategy().rows() && batch.size() < 32; ++g)
        if (system.strategy().channelOf(g) == 0)
            batch.push_back(g * rows_per_page);

    FixedSource drift(spec.categories, batch);
    sim::Tick now = system.runInferenceWith(drift, 4).totalTime;

    std::uint64_t migrated_last = 0;
    bool settled = false;
    for (int pass = 0; pass < 16 && !settled; ++pass) {
        now = system.relayoutStep(now);
        const RelayoutStats &stats = system.relayoutStats();
        settled = stats.rowsMigrated == migrated_last
            && stats.lastDivergence
                <= options.relayout.divergenceThreshold;
        migrated_last = stats.rowsMigrated;
    }
    EXPECT_TRUE(settled)
        << "re-layout still migrating after 16 passes";
}
