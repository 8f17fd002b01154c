/**
 * @file
 * Flash translation layer.
 *
 * Implements the embedded-processor firmware functions the paper
 * relies on (Section 2.2 / 5.3): logical-to-physical mapping, page
 * allocation, greedy garbage collection, and wear tracking.
 *
 * Channel steering follows the paper's mechanism for the interleaving
 * framework: the firmware statically assigns a logical-address range
 * to every flash channel, so a layout strategy places a weight vector
 * on channel c simply by giving it a logical page inside channel c's
 * range.  Within a channel, writes stripe over dies and planes.
 *
 * The map is kept sparse (hash map) so that small-footprint SSD-mode
 * workloads do not pay for the full 4 TB geometry; the accelerator
 * path uses the layout strategies' *computed* placement instead of
 * this table, mirroring how the paper keeps the weight L2P resident
 * in DRAM.
 */

#ifndef ECSSD_SSDSIM_FTL_HH
#define ECSSD_SSDSIM_FTL_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"
#include "ssdsim/address.hh"
#include "ssdsim/config.hh"
#include "ssdsim/flash.hh"
#include "ssdsim/health.hh"

namespace ecssd
{
namespace ssdsim
{

/** FTL activity counters. */
struct FtlStats
{
    std::uint64_t hostWrites = 0;
    std::uint64_t hostReads = 0;
    std::uint64_t gcRuns = 0;
    std::uint64_t gcRelocations = 0;
    std::uint64_t gcErases = 0;
    /** Blocks retired after erase failures. */
    std::uint64_t badBlocks = 0;
    /** Host reads whose page was uncorrectable (surfaced to the
     *  caller instead of being reported as success). */
    std::uint64_t uncorrectableReads = 0;
    /** GC relocation reads that hit an uncorrectable page; the stale
     *  copy is relocated anyway (latent data loss, warned). */
    std::uint64_t gcUncorrectableReads = 0;
    /** Last-resort cross-pool evacuations that saved a write after
     *  same-pool GC deadlocked with no relocation headroom. */
    std::uint64_t rescueGcRuns = 0;
    /** Writes rejected because the device turned read-only. */
    std::uint64_t rejectedWrites = 0;
    /** Weight pages moved between channels by the background
     *  re-layout task (computed-placement migrations). */
    std::uint64_t relayoutMigrations = 0;
    /** Re-layout migration reads that came back uncorrectable (the
     *  stale codeword moves anyway, like GC). */
    std::uint64_t relayoutUnreadable = 0;

    /** Write amplification factor. */
    double
    writeAmplification() const
    {
        if (hostWrites == 0)
            return 1.0;
        return static_cast<double>(hostWrites + gcRelocations)
            / static_cast<double>(hostWrites);
    }
};

/** The flash translation layer. */
class Ftl
{
  public:
    /**
     * @param config SSD geometry/timing.
     * @param flash The flash array the FTL drives (must outlive it).
     */
    Ftl(const SsdConfig &config, FlashArray &flash);

    /** Number of logical pages exposed to the host. */
    std::uint64_t logicalPages() const { return logicalPages_; }

    /** The channel owning @p lpa's logical-address range. */
    unsigned channelOfLpa(LogicalPage lpa) const;

    /** Current physical location of @p lpa, if mapped. */
    std::optional<PhysicalPage> translate(LogicalPage lpa) const;

    /**
     * Write (or overwrite) one logical page.
     *
     * Allocates a physical page in the lpa's channel, programs it,
     * invalidates the old copy, and runs GC if the channel's free pool
     * dropped below the threshold.
     *
     * @param[out] rejected Set true when the device is (or just
     *        turned) read-only and the write was refused without
     *        mutating any state; nullptr restores the legacy
     *        behaviour of dying fatally at end of life.
     * @return Completion tick of the program (including any GC work
     *         that had to run first); @p issue_at when rejected.
     */
    sim::Tick write(LogicalPage lpa, sim::Tick issue_at,
                    bool *rejected = nullptr);

    /**
     * Read one logical page.
     *
     * @param[out] uncorrectable Set true when the media could not
     *        deliver the page (ECC failure after the retry ladder);
     *        the caller decides whether to degrade, refetch, or fail
     *        (nullptr to ignore, restoring the legacy
     *        pretend-success behaviour — the failure still counts in
     *        FtlStats).
     * @return Completion tick; fatal if the page was never written.
     */
    sim::Tick read(LogicalPage lpa, sim::Tick issue_at,
                   bool *uncorrectable = nullptr);

    /** Invalidate a logical page (TRIM). */
    void trim(LogicalPage lpa);

    const FtlStats &stats() const { return stats_; }

    /** Free-page fraction of a channel's pool, for tests. */
    double freeFraction(unsigned channel) const;

    /** Max erase-count spread across blocks (wear balance metric). */
    std::uint64_t eraseCountSpread() const;

    /**
     * Move one *computed-placement* weight page from @p src to
     * @p dst: the background re-layout task's migration primitive.
     * Accelerator-mode weight pages live outside the l2p table (the
     * layout strategies compute their placement, mirroring the
     * paper's DRAM-resident weight L2P), so unlike relocatePage()
     * there is no mapping to patch — the media move is read(src) +
     * program(dst), and the relocation listener fires on @p src
     * first so DRAM-cached copies are dropped before the rewrite,
     * exactly like GC relocations.
     *
     * @return Completion tick of the program.
     */
    sim::Tick migrateComputedPage(const PhysicalPage &src,
                                  const PhysicalPage &dst,
                                  sim::Tick issue_at);

    /** True once spare blocks ran out and the device refuses
     *  writes (end of life). */
    bool readOnly() const { return readOnly_; }

    /** Latch the device read-only immediately (fault injection:
     *  end-of-life mid-redeploy).  Like the organic latch, it is
     *  never cleared. */
    void forceReadOnly() { readOnly_ = true; }

    /** SMART-style health snapshot at tick @p now. */
    HealthReport healthReport(sim::Tick now) const;

    /**
     * Snapshot the activity counters into @p registry as gauges
     * ("ftl.host_writes", ..., "ftl.write_amplification").
     */
    void publishMetrics(sim::MetricsRegistry &registry) const;

    /**
     * Register a callback invoked with the *source* physical page of
     * every relocation (GC, rescue evacuation, computed-page
     * migration), before the move.  Upper layers that shadow flash
     * contents (the DRAM hot-row cache) use it to drop stale copies.
     * Pass an empty function to detach.
     */
    void
    setRelocationListener(
        std::function<void(const PhysicalPage &)> listener)
    {
        relocationListener_ = std::move(listener);
    }

  private:
    struct BlockInfo
    {
        unsigned validPages = 0;
        unsigned writtenPages = 0;
        std::uint64_t eraseCount = 0;
    };

    /** One allocation pool: a (channel, die, plane) tuple. */
    struct Pool
    {
        unsigned channel = 0;
        unsigned die = 0;
        unsigned plane = 0;
        std::deque<unsigned> freeBlocks;
        unsigned activeBlock = 0;
        unsigned nextPage = 0;
        bool hasActive = false;
    };

    std::size_t poolIndex(unsigned channel, unsigned die,
                          unsigned plane) const;
    std::size_t blockIndex(const PhysicalPage &ppa) const;

    /** Allocate the next physical page in @p pool (GC-free path). */
    PhysicalPage allocateInPool(Pool &pool);

    /** Pick the pool with the most free pages within a channel. */
    Pool &pickPool(unsigned channel);

    /**
     * Greedy victim choice: the fully-written block with the fewest
     * valid pages (erase count breaks ties).  Skips the active block
     * and free blocks; a fully-valid block reclaims nothing and is
     * never chosen.
     *
     * @param[out] victim The chosen block within @p pool.
     * @param[out] victim_valid Its valid-page count.
     * @return False when no block is reclaimable.
     */
    bool findGcVictim(const Pool &pool, unsigned &victim,
                      unsigned &victim_valid) const;

    /**
     * Run one greedy GC pass on @p pool.
     *
     * @param[out] progress True when a victim was relocated+erased.
     * @return Completion tick of the pass.
     */
    sim::Tick collectGarbage(Pool &pool, sim::Tick issue_at,
                             bool &progress);

    /**
     * Last-resort evacuation when @p pool has run dry and same-pool
     * GC cannot run (every victim's valid pages exceed the pool's
     * remaining headroom): relocate the best victim's valid pages
     * into a *sibling* pool of the same channel and erase it.  Only
     * reachable from the write path when a pool has wedged at zero
     * free pages (or would otherwise be declared worn out), so
     * configurations that never starve a pool are unaffected.
     *
     * @param[out] progress True when a block was evacuated.
     * @return Completion tick.
     */
    sim::Tick rescueCollect(Pool &pool, sim::Tick issue_at,
                            bool &progress);

    /**
     * Move the valid page at @p src into @p dst_pool (read, program,
     * remap, fix per-block counters).  Shared by GC relocation and
     * the rescue evacuation.
     *
     * @param[out] unreadable True when the relocation read was
     *        uncorrectable (the stale codeword moves anyway; the
     *        caller counts/warns the latent loss).
     * @return Completion tick.
     */
    sim::Tick relocatePage(const PhysicalPage &src, Pool &dst_pool,
                           sim::Tick issue_at, bool &unreadable);

    /** Advance a block's erase count, keeping the histogram
     *  consistent. */
    void bumpEraseCount(BlockInfo &info);

    /** Erase @p block of @p pool (after relocation emptied it):
     *  wear accounting, the flash erase, and retire-or-recycle. */
    sim::Tick eraseAndRecycle(Pool &pool, unsigned block,
                              sim::Tick issue_at);

    std::uint64_t freePagesInPool(const Pool &pool) const;

    SsdConfig config_;
    FlashArray &flash_;
    AddressCodec codec_;
    std::uint64_t logicalPages_;
    std::uint64_t lpasPerChannel_;

    std::unordered_map<LogicalPage, std::uint64_t> l2p_;
    std::unordered_map<std::uint64_t, LogicalPage> p2l_;
    std::vector<BlockInfo> blocks_;
    std::vector<Pool> pools_;
    FtlStats stats_;
    /** Erase count -> number of blocks at that count.  Maintained
     *  incrementally so eraseCountSpread() is O(1) and the health
     *  report's histogram is free. */
    std::map<std::uint64_t, std::uint64_t> eraseHist_;
    /** Relocation notification hook (empty = detached). */
    std::function<void(const PhysicalPage &)> relocationListener_;
    /** End-of-life latch: set when spares run out, never cleared. */
    bool readOnly_ = false;
};

} // namespace ssdsim
} // namespace ecssd

#endif // ECSSD_SSDSIM_FTL_HH
