#include "ftl.hh"

#include <algorithm>
#include <limits>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace ecssd
{
namespace ssdsim
{

Ftl::Ftl(const SsdConfig &config, FlashArray &flash)
    : config_(config), flash_(flash), codec_(config)
{
    config_.validate();
    const double usable = 1.0 - config_.overProvisioning;
    logicalPages_ = static_cast<std::uint64_t>(
        static_cast<double>(config_.totalPages()) * usable);
    lpasPerChannel_ =
        (logicalPages_ + config_.channels - 1) / config_.channels;

    const std::size_t pool_count =
        static_cast<std::size_t>(config_.channels)
        * config_.diesPerChannel * config_.planesPerDie;
    pools_.resize(pool_count);
    blocks_.resize(pool_count * config_.blocksPerPlane);

    for (unsigned ch = 0; ch < config_.channels; ++ch) {
        for (unsigned die = 0; die < config_.diesPerChannel; ++die) {
            for (unsigned pl = 0; pl < config_.planesPerDie; ++pl) {
                Pool &pool = pools_[poolIndex(ch, die, pl)];
                pool.channel = ch;
                pool.die = die;
                pool.plane = pl;
                for (unsigned b = 0; b < config_.blocksPerPlane; ++b)
                    pool.freeBlocks.push_back(b);
            }
        }
    }
    eraseHist_[0] = blocks_.size();
}

std::size_t
Ftl::poolIndex(unsigned channel, unsigned die, unsigned plane) const
{
    return (static_cast<std::size_t>(channel)
                * config_.diesPerChannel
            + die)
        * config_.planesPerDie
        + plane;
}

std::size_t
Ftl::blockIndex(const PhysicalPage &ppa) const
{
    return poolIndex(ppa.channel, ppa.die, ppa.plane)
        * config_.blocksPerPlane
        + ppa.block;
}

unsigned
Ftl::channelOfLpa(LogicalPage lpa) const
{
    ECSSD_ASSERT(lpa < logicalPages_, "logical page out of range");
    const unsigned channel =
        static_cast<unsigned>(lpa / lpasPerChannel_);
    return std::min(channel, config_.channels - 1);
}

std::optional<PhysicalPage>
Ftl::translate(LogicalPage lpa) const
{
    const auto it = l2p_.find(lpa);
    if (it == l2p_.end())
        return std::nullopt;
    return codec_.decode(it->second);
}

std::uint64_t
Ftl::freePagesInPool(const Pool &pool) const
{
    std::uint64_t pages = static_cast<std::uint64_t>(
                              pool.freeBlocks.size())
        * config_.pagesPerBlock;
    if (pool.hasActive)
        pages += config_.pagesPerBlock - pool.nextPage;
    return pages;
}

PhysicalPage
Ftl::allocateInPool(Pool &pool)
{
    if (!pool.hasActive || pool.nextPage >= config_.pagesPerBlock) {
        if (pool.freeBlocks.empty()) {
            // Every block is live or retired: the device (or this
            // pool) has worn out.  A real drive turns read-only.
            sim::fatal("pool ch", pool.channel, " die", pool.die,
                       " plane", pool.plane,
                       " has no free blocks (", stats_.badBlocks,
                       " retired); device worn out");
        }
        pool.activeBlock = pool.freeBlocks.front();
        pool.freeBlocks.pop_front();
        pool.nextPage = 0;
        pool.hasActive = true;
    }
    PhysicalPage ppa;
    ppa.channel = pool.channel;
    ppa.die = pool.die;
    ppa.plane = pool.plane;
    ppa.block = pool.activeBlock;
    ppa.page = pool.nextPage++;
    return ppa;
}

Ftl::Pool &
Ftl::pickPool(unsigned channel)
{
    Pool *best = nullptr;
    std::uint64_t best_free = 0;
    for (unsigned die = 0; die < config_.diesPerChannel; ++die) {
        for (unsigned pl = 0; pl < config_.planesPerDie; ++pl) {
            Pool &pool = pools_[poolIndex(channel, die, pl)];
            const std::uint64_t free = freePagesInPool(pool);
            if (best == nullptr || free > best_free) {
                best = &pool;
                best_free = free;
            }
        }
    }
    ECSSD_ASSERT(best != nullptr, "channel has no pools");
    return *best;
}

bool
Ftl::findGcVictim(const Pool &pool, unsigned &victim,
                  unsigned &victim_valid) const
{
    // Greedy victim: fully-written block with the fewest valid pages;
    // erase count breaks ties so wear stays level.  A victim with no
    // stale pages reclaims nothing and is never worth the erase.
    bool found = false;
    std::uint64_t best_erase = 0;
    for (unsigned b = 0; b < config_.blocksPerPlane; ++b) {
        if (pool.hasActive && b == pool.activeBlock)
            continue;
        const bool is_free =
            std::find(pool.freeBlocks.begin(), pool.freeBlocks.end(),
                      b)
            != pool.freeBlocks.end();
        if (is_free)
            continue;
        PhysicalPage probe{pool.channel, pool.die, pool.plane, b, 0};
        const BlockInfo &info = blocks_[blockIndex(probe)];
        if (info.writtenPages < config_.pagesPerBlock
            || info.validPages >= config_.pagesPerBlock)
            continue;
        if (!found || info.validPages < victim_valid
            || (info.validPages == victim_valid
                && info.eraseCount < best_erase)) {
            victim = b;
            victim_valid = info.validPages;
            best_erase = info.eraseCount;
            found = true;
        }
    }
    return found;
}

sim::Tick
Ftl::collectGarbage(Pool &pool, sim::Tick issue_at, bool &progress)
{
    progress = false;

    unsigned victim = 0;
    unsigned best_valid = std::numeric_limits<unsigned>::max();
    if (!findGcVictim(pool, victim, best_valid))
        return issue_at; // Nothing reclaimable yet.

    // Relocations consume free space before the erase returns it;
    // without room for the victim's valid pages the collection would
    // deadlock the pool.
    if (freePagesInPool(pool) < best_valid)
        return issue_at;
    ++stats_.gcRuns;
    progress = true;
    ECSSD_TRACE_LOG(sim::TraceCategory::Ftl, issue_at,
                    "GC: pool ch", pool.channel, " die", pool.die,
                    " plane", pool.plane, " victim block ", victim,
                    " valid ", best_valid);

    // Relocate the victim's valid pages, then erase it.
    sim::Tick t = issue_at;
    for (unsigned pg = 0; pg < config_.pagesPerBlock; ++pg) {
        PhysicalPage src{pool.channel, pool.die, pool.plane, victim,
                         pg};
        const auto it = p2l_.find(codec_.encode(src));
        if (it == p2l_.end())
            continue;
        const LogicalPage lpa = it->second;
        bool unreadable = false;
        t = relocatePage(src, pool, t, unreadable);
        if (unreadable) {
            // The stale codeword still relocates (the block must be
            // reclaimed) but the copy is latent data loss: a future
            // host read of this lpa returns corrupt data on a real
            // drive.  Surfacing that would need per-page poison
            // state; counting + warning keeps the model honest.
            ++stats_.gcUncorrectableReads;
            sim::warn("GC relocating uncorrectable page lpa ", lpa);
        }
        ++stats_.gcRelocations;
    }

    ++stats_.gcErases;
    return eraseAndRecycle(pool, victim, t);
}

sim::Tick
Ftl::rescueCollect(Pool &pool, sim::Tick issue_at, bool &progress)
{
    progress = false;
    unsigned victim = 0;
    unsigned victim_valid = std::numeric_limits<unsigned>::max();
    if (!findGcVictim(pool, victim, victim_valid))
        return issue_at; // Every block fully valid: truly worn out.
    Pool &dst = pickPool(pool.channel);
    if (&dst == &pool || freePagesInPool(dst) < victim_valid)
        return issue_at; // No sibling with headroom either.

    ++stats_.gcRuns;
    ++stats_.rescueGcRuns;
    ECSSD_TRACE_LOG(sim::TraceCategory::Ftl, issue_at,
                    "rescue GC: pool ch", pool.channel, " die",
                    pool.die, " plane", pool.plane,
                    " evacuating block ", victim, " (", victim_valid,
                    " valid) into die", dst.die, " plane", dst.plane);

    sim::Tick t = issue_at;
    for (unsigned pg = 0; pg < config_.pagesPerBlock; ++pg) {
        PhysicalPage src{pool.channel, pool.die, pool.plane, victim,
                         pg};
        const auto it = p2l_.find(codec_.encode(src));
        if (it == p2l_.end())
            continue;
        const LogicalPage lpa = it->second;
        bool unreadable = false;
        t = relocatePage(src, dst, t, unreadable);
        if (unreadable) {
            ++stats_.gcUncorrectableReads;
            sim::warn("rescue GC relocating uncorrectable page lpa ",
                      lpa);
        }
        ++stats_.gcRelocations;
    }
    ++stats_.gcErases;
    progress = true;
    return eraseAndRecycle(pool, victim, t);
}

sim::Tick
Ftl::relocatePage(const PhysicalPage &src, Pool &dst_pool,
                  sim::Tick issue_at, bool &unreadable)
{
    const std::uint64_t src_id = codec_.encode(src);
    const auto it = p2l_.find(src_id);
    ECSSD_ASSERT(it != p2l_.end(), "relocating an unmapped page");
    const LogicalPage lpa = it->second;

    if (relocationListener_)
        relocationListener_(src);

    unreadable = false;
    sim::Tick t = flash_.readPage(src, issue_at, 0, 0, &unreadable);
    const PhysicalPage dst = allocateInPool(dst_pool);
    t = flash_.programPage(dst, t);

    const std::uint64_t dst_id = codec_.encode(dst);
    l2p_[lpa] = dst_id;
    p2l_.erase(it);
    p2l_[dst_id] = lpa;
    BlockInfo &src_info = blocks_[blockIndex(src)];
    ECSSD_ASSERT(src_info.validPages > 0,
                 "relocating page out of an empty block");
    --src_info.validPages;
    BlockInfo &dst_info = blocks_[blockIndex(dst)];
    ++dst_info.validPages;
    ++dst_info.writtenPages;
    return t;
}

sim::Tick
Ftl::migrateComputedPage(const PhysicalPage &src,
                         const PhysicalPage &dst,
                         sim::Tick issue_at)
{
    if (relocationListener_)
        relocationListener_(src);

    bool unreadable = false;
    sim::Tick t = flash_.readPage(src, issue_at, 0, 0, &unreadable);
    if (unreadable) {
        ++stats_.relayoutUnreadable;
        sim::warn("re-layout migrating uncorrectable weight page on "
                  "channel ",
                  src.channel);
    }
    t = flash_.programPage(dst, t);
    ++stats_.relayoutMigrations;
    return t;
}

void
Ftl::bumpEraseCount(BlockInfo &info)
{
    const auto it = eraseHist_.find(info.eraseCount);
    ECSSD_ASSERT(it != eraseHist_.end() && it->second > 0,
                 "erase histogram out of sync");
    if (--it->second == 0)
        eraseHist_.erase(it);
    ++info.eraseCount;
    ++eraseHist_[info.eraseCount];
}

sim::Tick
Ftl::eraseAndRecycle(Pool &pool, unsigned block, sim::Tick issue_at)
{
    PhysicalPage addr{pool.channel, pool.die, pool.plane, block, 0};
    BlockInfo &info = blocks_[blockIndex(addr)];
    info.validPages = 0;
    info.writtenPages = 0;
    bumpEraseCount(info);
    bool erase_failed = false;
    const sim::Tick done =
        flash_.eraseBlock(addr, issue_at, &erase_failed);
    if (erase_failed) {
        // Retire the block: it never returns to the free pool.
        ++stats_.badBlocks;
        sim::warn("retiring bad block ch", pool.channel, " die",
                  pool.die, " plane", pool.plane, " block ", block);
    } else {
        pool.freeBlocks.push_back(block);
    }
    return done;
}

sim::Tick
Ftl::write(LogicalPage lpa, sim::Tick issue_at, bool *rejected)
{
    ECSSD_ASSERT(lpa < logicalPages_, "logical page out of range");
    if (rejected)
        *rejected = false;
    if (readOnly_) {
        if (!rejected)
            sim::fatal("write to a read-only (end-of-life) device: "
                       "lpa ", lpa, " (", stats_.badBlocks,
                       " blocks retired)");
        ++stats_.rejectedWrites;
        *rejected = true;
        return issue_at;
    }

    const unsigned channel = channelOfLpa(lpa);
    Pool &pool = pickPool(channel);

    sim::Tick t = issue_at;
    const double threshold =
        std::max(config_.gcThreshold, 1.0e-9);
    const std::uint64_t pool_pages =
        static_cast<std::uint64_t>(config_.blocksPerPlane)
        * config_.pagesPerBlock;
    // Collect until the pool is healthy again or no victim can make
    // progress; a single pass may reclaim less than one block's
    // worth when victims are mostly valid.
    bool gc_stuck = false;
    while (static_cast<double>(freePagesInPool(pool))
           < threshold * static_cast<double>(pool_pages)) {
        bool progress = false;
        t = collectGarbage(pool, t, progress);
        if (!progress) {
            gc_stuck = true;
            break;
        }
    }

    // A pool can wedge with its GC deadlocked: collection needs one
    // free page of headroom per valid page in the victim, so a pool
    // below one block's worth of free pages whose victims all hold
    // more valid data than that can never reclaim its own stale
    // space — and pickPool (rightly) stops routing writes its way,
    // so the write-path GC above never touches it again while its
    // pinned pages slowly strangle the channel.  Unwedge it here:
    // same-pool GC first (low-valid victims fit the remaining
    // headroom), then a cross-pool evacuation into a sibling with
    // room.  One block of headroom makes the pool self-sustaining
    // again: any victim's valid pages fit below it.
    for (unsigned die = 0; die < config_.diesPerChannel; ++die) {
        for (unsigned pl = 0; pl < config_.planesPerDie; ++pl) {
            Pool &sibling = pools_[poolIndex(channel, die, pl)];
            if (freePagesInPool(sibling) >= config_.pagesPerBlock)
                continue;
            bool unwedged = true;
            while (unwedged
                   && freePagesInPool(sibling)
                       < config_.pagesPerBlock)
                t = collectGarbage(sibling, t, unwedged);
            while (freePagesInPool(sibling) < config_.pagesPerBlock) {
                bool rescued = false;
                t = rescueCollect(sibling, t, rescued);
                if (!rescued)
                    break;
            }
        }
    }

    // End of life: the pool can no longer provide a page, or GC is
    // stuck with the pool down to its configured last spares.  Turn
    // read-only instead of corrupting state; a real drive does the
    // same so the host can still evacuate its data.
    const bool needs_block = !pool.hasActive
        || pool.nextPage >= config_.pagesPerBlock;
    bool exhausted = needs_block && pool.freeBlocks.empty();

    // A starved pool is not necessarily a worn-out pool: host writes
    // can consume the last free pages faster than same-pool GC can
    // reclaim them (every victim's valid pages exceed the remaining
    // headroom), deadlocking a pool that still holds plenty of stale
    // data.  Evacuate a victim into a sibling pool of the channel to
    // break the deadlock; only a pool that stays starved after the
    // rescue is genuinely at end of life.
    while (exhausted) {
        bool rescued = false;
        t = rescueCollect(pool, t, rescued);
        if (!rescued)
            break;
        exhausted = pool.freeBlocks.empty();
    }
    const bool on_last_spares = gc_stuck
        && config_.eolSpareBlocks > 0
        && pool.freeBlocks.size() <= config_.eolSpareBlocks;
    if (exhausted || on_last_spares) {
        readOnly_ = true;
        sim::warn("device end of life: pool ch", pool.channel,
                  " die", pool.die, " plane", pool.plane, " has ",
                  pool.freeBlocks.size(), " spare blocks (",
                  stats_.badBlocks,
                  " retired); entering read-only mode");
        if (!rejected)
            sim::fatal("pool ch", pool.channel, " die", pool.die,
                       " plane", pool.plane,
                       " has no usable spare blocks (",
                       stats_.badBlocks,
                       " retired); device worn out");
        ++stats_.rejectedWrites;
        *rejected = true;
        return t;
    }
    ++stats_.hostWrites;

    // Invalidate the previous copy, if any.
    const auto old = l2p_.find(lpa);
    if (old != l2p_.end()) {
        const PhysicalPage old_ppa = codec_.decode(old->second);
        BlockInfo &old_info = blocks_[blockIndex(old_ppa)];
        ECSSD_ASSERT(old_info.validPages > 0,
                     "invalidating page in empty block");
        --old_info.validPages;
        p2l_.erase(old->second);
    }

    const PhysicalPage ppa = allocateInPool(pool);
    const std::uint64_t ppa_id = codec_.encode(ppa);
    l2p_[lpa] = ppa_id;
    p2l_[ppa_id] = lpa;
    BlockInfo &info = blocks_[blockIndex(ppa)];
    ++info.validPages;
    ++info.writtenPages;

    return flash_.programPage(ppa, t);
}

sim::Tick
Ftl::read(LogicalPage lpa, sim::Tick issue_at, bool *uncorrectable)
{
    const auto it = l2p_.find(lpa);
    if (it == l2p_.end())
        sim::fatal("read of unmapped logical page ", lpa);
    ++stats_.hostReads;
    bool failed = false;
    const sim::Tick done = flash_.readPage(
        codec_.decode(it->second), issue_at, 0, 0, &failed);
    if (failed)
        ++stats_.uncorrectableReads;
    if (uncorrectable)
        *uncorrectable = failed;
    return done;
}

void
Ftl::trim(LogicalPage lpa)
{
    const auto it = l2p_.find(lpa);
    if (it == l2p_.end())
        return;
    const PhysicalPage ppa = codec_.decode(it->second);
    BlockInfo &info = blocks_[blockIndex(ppa)];
    ECSSD_ASSERT(info.validPages > 0,
                 "trimming page in empty block");
    --info.validPages;
    p2l_.erase(it->second);
    l2p_.erase(it);
}

double
Ftl::freeFraction(unsigned channel) const
{
    std::uint64_t free = 0;
    std::uint64_t total = 0;
    for (unsigned die = 0; die < config_.diesPerChannel; ++die) {
        for (unsigned pl = 0; pl < config_.planesPerDie; ++pl) {
            const Pool &pool =
                pools_[poolIndex(channel, die, pl)];
            free += freePagesInPool(pool);
            total += static_cast<std::uint64_t>(
                         config_.blocksPerPlane)
                * config_.pagesPerBlock;
        }
    }
    return total ? static_cast<double>(free)
            / static_cast<double>(total)
                 : 0.0;
}

std::uint64_t
Ftl::eraseCountSpread() const
{
    if (eraseHist_.empty())
        return 0;
    return eraseHist_.rbegin()->first - eraseHist_.begin()->first;
}

HealthReport
Ftl::healthReport(sim::Tick now) const
{
    HealthReport report;
    report.capturedAt = now;

    // Wear, from the always-consistent histogram.
    std::uint64_t total_blocks = 0;
    double erase_sum = 0.0;
    for (const auto &[count, blocks] : eraseHist_) {
        report.eraseHistogram.emplace_back(count, blocks);
        total_blocks += blocks;
        erase_sum += static_cast<double>(count)
            * static_cast<double>(blocks);
    }
    if (!eraseHist_.empty()) {
        report.minEraseCount = eraseHist_.begin()->first;
        report.maxEraseCount = eraseHist_.rbegin()->first;
        report.meanEraseCount =
            erase_sum / static_cast<double>(total_blocks);
    }

    for (const Pool &pool : pools_)
        report.spareBlocks += pool.freeBlocks.size();
    report.badBlocks = stats_.badBlocks;
    report.readOnly = readOnly_;

    for (unsigned ch = 0; ch < config_.channels; ++ch) {
        const ChannelStats &stats = flash_.channelStats(ch);
        report.mediaReads += stats.pagesRead;
        report.mediaUncorrectable += stats.uncorrectableReads;
    }
    if (report.mediaReads > 0)
        report.observedErrorRate =
            static_cast<double>(report.mediaUncorrectable)
            / static_cast<double>(report.mediaReads);

    // Model prediction for a mean-wear page whose data has aged
    // since deployment (tick 0) — the paper's cold FP32 row.
    report.predictedErrorRate = config_.predictedUncorrectableRate(
        static_cast<std::uint64_t>(report.meanEraseCount), now);

    // Remaining life: minimum of three monotone non-increasing
    // terms (see health.hh).
    const double erase_life = 1.0
        - report.meanEraseCount / config_.wearRatedCycles;
    const double op_blocks = std::max(
        1.0,
        static_cast<double>(total_blocks) * config_.overProvisioning);
    const double spare_life = 1.0
        - static_cast<double>(report.badBlocks) / op_blocks;
    const double media_life = 1.0
        - report.predictedErrorRate / config_.eolMediaErrorRate;
    double life =
        std::min({erase_life, spare_life, media_life, 1.0});
    if (life < 0.0)
        life = 0.0;
    if (readOnly_)
        life = 0.0;
    report.lifeRemaining = life;
    return report;
}

void
Ftl::publishMetrics(sim::MetricsRegistry &registry) const
{
    const auto gauge = [&](const char *name, double value) {
        registry.gaugeSet(std::string("ftl.") + name, value);
    };
    gauge("host_writes", static_cast<double>(stats_.hostWrites));
    gauge("host_reads", static_cast<double>(stats_.hostReads));
    gauge("gc_runs", static_cast<double>(stats_.gcRuns));
    gauge("gc_relocations",
          static_cast<double>(stats_.gcRelocations));
    gauge("gc_erases", static_cast<double>(stats_.gcErases));
    gauge("bad_blocks", static_cast<double>(stats_.badBlocks));
    gauge("uncorrectable_reads",
          static_cast<double>(stats_.uncorrectableReads));
    gauge("rejected_writes",
          static_cast<double>(stats_.rejectedWrites));
    gauge("write_amplification", stats_.writeAmplification());
    gauge("erase_count_spread",
          static_cast<double>(eraseCountSpread()));
    gauge("read_only", readOnly_ ? 1.0 : 0.0);
}

} // namespace ssdsim
} // namespace ecssd
