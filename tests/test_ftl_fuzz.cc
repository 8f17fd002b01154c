/**
 * @file
 * FTL fuzz test: a long random stream of writes, overwrites, trims,
 * and reads is checked against a trivial reference model (a hash
 * map) after every operation batch, plus global invariants (time
 * monotonicity, bounded wear spread, mapping uniqueness).
 */

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "sim/rng.hh"
#include "ssdsim/ftl.hh"

#include "fuzz_iters.hh"

using namespace ecssd;
using namespace ecssd::ssdsim;

namespace
{

class FtlFuzz : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    SsdConfig config = smallTestConfig();
    FlashArray flash{config};
    Ftl ftl{config, flash};
};

} // namespace

TEST_P(FtlFuzz, MatchesReferenceModel)
{
    sim::Rng rng(GetParam());
    // Reference: lpa -> generation number of the last write.
    std::unordered_map<LogicalPage, std::uint64_t> reference;
    std::uint64_t generation = 0;
    sim::Tick now = 0;

    // Work inside a window that spans several channels but is small
    // enough to churn the pools and trigger GC.
    const LogicalPage window =
        std::min<std::uint64_t>(ftl.logicalPages(), 96);

    const int ops = fuzzIters(3000);
    for (int op = 0; op < ops; ++op) {
        const LogicalPage lpa = rng.uniformInt(window);
        const double dice = rng.uniform();
        if (dice < 0.55) {
            const sim::Tick done = ftl.write(lpa, now);
            ASSERT_GE(done, now) << "time went backwards";
            now = done;
            reference[lpa] = ++generation;
        } else if (dice < 0.70) {
            ftl.trim(lpa);
            reference.erase(lpa);
        } else {
            const bool mapped = ftl.translate(lpa).has_value();
            ASSERT_EQ(mapped, reference.count(lpa) == 1)
                << "mapping mismatch for lpa " << lpa << " at op "
                << op;
            if (mapped) {
                const sim::Tick done = ftl.read(lpa, now);
                ASSERT_GE(done, now);
                now = done;
            }
        }

        // Periodically: every mapped lpa translates, all physical
        // pages are distinct.
        if (op % 500 == 499) {
            const AddressCodec codec(config);
            std::set<std::uint64_t> seen;
            for (const auto &[ref_lpa, gen] : reference) {
                const auto ppa = ftl.translate(ref_lpa);
                ASSERT_TRUE(ppa.has_value())
                    << "lost mapping for lpa " << ref_lpa;
                ASSERT_TRUE(
                    seen.insert(codec.encode(*ppa)).second)
                    << "two lpas share a physical page";
            }
        }
    }

    // Final consistency + wear sanity.
    for (const auto &[lpa, gen] : reference)
        EXPECT_TRUE(ftl.translate(lpa).has_value());
    EXPECT_GE(ftl.stats().writeAmplification(), 1.0);
    // Idle channels pin the erase floor at 0, so the global spread
    // grows with the trafficked channels' churn: scale the sanity
    // bound with the op count.
    EXPECT_LE(ftl.eraseCountSpread(),
              static_cast<std::uint64_t>(fuzzIters(80)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtlFuzz,
                         ::testing::Values(1, 7, 42, 1234, 99999));

TEST(FtlFuzzExtra, SteadyStateChurnNeverRunsOutOfSpace)
{
    SsdConfig config = smallTestConfig();
    FlashArray flash(config);
    Ftl ftl(config, flash);
    sim::Rng rng(5);
    sim::Tick now = 0;
    // Hammer 70% of one channel's logical span -- GC must keep up
    // indefinitely.
    const std::uint64_t span =
        ftl.logicalPages() / config.channels * 7 / 10;
    const int ops = fuzzIters(5000);
    for (int op = 0; op < ops; ++op)
        now = ftl.write(rng.uniformInt(span), now);
    EXPECT_GT(ftl.stats().gcRuns, 0u);
    EXPECT_GT(ftl.freeFraction(0), 0.0);
}

TEST(FtlFuzzExtra, PoolWedgingCannotStarveSteadyStateChurn)
{
    // Regression: at 10000 ops this exact workload used to die
    // "worn out" with the channel full of stale data.  A pool would
    // wedge — GC needs one free page of headroom per valid page in
    // a victim, so once its free pages dropped below every victim's
    // valid count it could never reclaim its own stale space, and
    // pickPool stopped routing writes (and their GC) its way.  The
    // write-path starvation sweep now unwedges such pools (same-pool
    // GC, then cross-pool evacuation), so churn runs indefinitely.
    SsdConfig config = smallTestConfig();
    FlashArray flash(config);
    Ftl ftl(config, flash);
    sim::Rng rng(5);
    sim::Tick now = 0;
    const std::uint64_t span =
        ftl.logicalPages() / config.channels * 7 / 10;
    for (int op = 0; op < 10000; ++op)
        now = ftl.write(rng.uniformInt(span), now);
    EXPECT_FALSE(ftl.readOnly());
    EXPECT_GT(ftl.stats().gcRuns, 0u);
    EXPECT_GT(ftl.freeFraction(0), 0.0);
}

TEST(FtlFuzzExtra, TrimEverythingRestoresFreeSpaceViaGc)
{
    SsdConfig config = smallTestConfig();
    FlashArray flash(config);
    Ftl ftl(config, flash);
    sim::Tick now = 0;
    const std::uint64_t span = 64;
    for (LogicalPage lpa = 0; lpa < span; ++lpa)
        now = ftl.write(lpa, now);
    for (LogicalPage lpa = 0; lpa < span; ++lpa)
        ftl.trim(lpa);
    // Everything is stale; continued writes must reclaim freely.
    const int rounds = fuzzIters(2000);
    for (int round = 0; round < rounds; ++round)
        now = ftl.write(round % span, now);
    for (LogicalPage lpa = 0; lpa < span; ++lpa)
        EXPECT_TRUE(ftl.translate(lpa).has_value());
}
