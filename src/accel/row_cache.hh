/**
 * @file
 * Hot-row FP32 candidate cache in SSD DRAM.
 *
 * The heterogeneous layout (Section 4.3) dedicates SSD DRAM to the
 * INT4 screener matrix, yet every FP32 candidate row is re-fetched
 * from flash (8 x 1 GB/s) on every batch.  The learning-based
 * interleaving framework already computes exactly the signal needed
 * to know which rows will be fetched again: the per-row hot degree
 * plus the observed candidate frequency.  This cache turns that
 * signal into fewer flash reads: after the screener is resident, the
 * remaining DRAM capacity caches recently/frequently-candidate weight
 * rows at page-group granularity, and the pipeline serves cache hits
 * from the 12.8 GB/s DRAM timeline instead of the flash channels.
 *
 * Determinism: every cache operation runs on the serial timing path
 * of the pipeline (the host-compute thread pool never touches it),
 * so results and simulated time are bit-identical for any thread
 * count; a zero-capacity configuration builds no cache at all and is
 * bit-identical to a build without this subsystem.
 */

#ifndef ECSSD_ACCEL_ROW_CACHE_HH
#define ECSSD_ACCEL_ROW_CACHE_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/metrics.hh"
#include "ssdsim/address.hh"

namespace ecssd
{
namespace accel
{

/** Configuration of the DRAM hot-row candidate cache. */
struct CacheConfig
{
    /** How misses are admitted into a full set. */
    enum class Admission
    {
        /** Every miss is admitted, evicting the set's lowest-priority
         *  entry. */
        AdmitAll,
        /** A miss is admitted only when its priority (hot-degree seed
         *  plus observed candidate frequency) beats the would-be
         *  victim's: cold scan traffic cannot flush the hot set. */
        HotDegree,
    };

    /**
     * DRAM bytes granted to the cache (after screener residency).
     * 0 disables the cache entirely: no cache object is built and
     * the pipeline behaves bit-identically to a cache-less build.
     */
    std::uint64_t capacityBytes = 0;
    Admission admission = Admission::HotDegree;
    /** Ways per set of the set-associative structure. */
    unsigned associativity = 8;

    bool enabled() const { return capacityBytes > 0; }
};

/** Short admission-policy name for describe()/logs. */
inline const char *
toString(CacheConfig::Admission admission)
{
    switch (admission) {
    case CacheConfig::Admission::AdmitAll:
        return "admit-all";
    case CacheConfig::Admission::HotDegree:
        return "hot-degree";
    }
    return "?";
}

/** Activity counters of one cache instance. */
struct RowCacheStats
{
    /** Lookups served from DRAM (group granularity). */
    std::uint64_t hits = 0;
    /** Lookups that went to flash. */
    std::uint64_t misses = 0;
    /** Groups admitted after a miss. */
    std::uint64_t insertions = 0;
    /** Resident groups displaced by an admission. */
    std::uint64_t evictions = 0;
    /** Misses rejected by the admission policy (set stayed as-is). */
    std::uint64_t admissionRejects = 0;
    /** Entries dropped because their flash block was relocated
     *  (GC or a re-layout migration). */
    std::uint64_t invalidations = 0;
    /** Relocation notifications examined (whether or not a resident
     *  entry matched). */
    std::uint64_t relocationProbes = 0;
    /** Candidate rows served from DRAM whose flash copy had
     *  previously come back uncorrectable: degradation avoided. */
    std::uint64_t avoidedDegradedRows = 0;
    /** Insertions made by an explicit warm-up pass (online-redeploy
     *  warming) rather than by demand misses; a subset of
     *  insertions. */
    std::uint64_t warmInsertions = 0;

    double
    hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(total);
    }
};

/**
 * Set-associative cache of FP32/CFP16 weight page groups in SSD DRAM.
 *
 * Keys are page-group ids (the pipeline's fetch unit: the rows packed
 * into one flash page set).  Admission/eviction priority is the hot-
 * degree seed from the layout strategy's predictor plus a decayed
 * observed-candidate-frequency count, mirroring the paper's
 * learning-based interleaving at the caching layer.  The cache tracks
 * the flash blocks backing each resident group so relocations (GC,
 * re-layout migrations) invalidate the stale DRAM copy.
 */
class RowCache
{
  public:
    /**
     * @param config Capacity/admission/associativity knobs
     *        (config.enabled() must be true).
     * @param group_bytes Stored bytes of one page group.
     * @param group_count Total page groups of the deployed layer.
     * @param hot_degree Per-group hot-degree seed in [0, 1] from the
     *        layout strategy's predictor (empty = all zero).
     */
    RowCache(const CacheConfig &config, std::uint64_t group_bytes,
             std::uint64_t group_count,
             std::function<double(std::uint64_t)> hot_degree);

    const CacheConfig &config() const { return config_; }

    /** Total entry slots (capacityBytes / groupBytes, >= 1). */
    std::uint64_t entryCount() const { return entries_.size(); }

    /** Currently valid entries. */
    std::uint64_t occupancy() const { return occupancy_; }

    /** Stored bytes of one entry. */
    std::uint64_t groupBytes() const { return groupBytes_; }

    /** DRAM bytes of the currently resident entries.  The per-tenant
     *  quota accounting reads this: a tenant's cache can never hold
     *  more than entryCount() * groupBytes() <= its byte quota, so
     *  residentBytes() <= the quota at all times. */
    std::uint64_t
    residentBytes() const
    {
        return occupancy_ * groupBytes_;
    }

    /** DRAM bytes the cache structure can ever hold (its byte quota
     *  rounded down to whole page groups). */
    std::uint64_t
    capacityBytes() const
    {
        return static_cast<std::uint64_t>(entries_.size())
            * groupBytes_;
    }

    /**
     * Look up @p group, recording the hit/miss and bumping its
     * observed candidate frequency.
     *
     * @param group Page-group id.
     * @param rows Candidate rows wanted from the group (for the
     *        avoided-degradation accounting).
     * @return True on a hit (the group's rows are DRAM-resident).
     */
    bool lookup(std::uint64_t group, std::uint32_t rows);

    /**
     * Offer @p group for admission after a miss fetched it cleanly.
     *
     * @param group Page-group id.
     * @param pages The flash pages backing the group (their blocks
     *        are tracked for relocation invalidation).
     * @return True when the group was inserted (the caller then
     *         charges the DRAM fill transfer to the timing model).
     */
    bool admit(std::uint64_t group,
               const std::vector<ssdsim::PhysicalPage> &pages);

    /**
     * Record that @p group's flash copy returned uncorrectable: a
     * later DRAM hit on it counts as avoided degradation.
     */
    void markFlashLost(std::uint64_t group);

    /** True when @p group's flash copy ever failed ECC. */
    bool
    flashLost(std::uint64_t group) const
    {
        return lostGroups_.count(group) != 0;
    }

    /**
     * Invalidate any resident entry backed by @p ppa's flash block
     * (the FTL relocation callback: the DRAM copy may be stale once
     * the block is rewritten).
     */
    void invalidatePhysical(const ssdsim::PhysicalPage &ppa);

    /** Count one admit() as warm-up-driven (caller invokes it right
     *  after a successful admit from a warming pass). */
    void noteWarmInsertion() { ++stats_.warmInsertions; }

    /**
     * The decayed observed candidate-frequency counters
     * (page group -> count): the background re-layout task's
     * divergence feed — what the layer's traffic *actually* touched,
     * versus what the layout's hot-degree predictor promised.
     * Iteration order is unspecified (hash map); consumers that need
     * determinism must sort by group id.
     */
    const std::unordered_map<std::uint64_t, std::uint32_t> &
    observedFrequencies() const
    {
        return frequency_;
    }

    const RowCacheStats &stats() const { return stats_; }

    /**
     * Snapshot cache state as "cache.*" gauges (occupancy, capacity,
     * insert/evict/invalidate counters, hit-rate).  The hit/miss
     * counters themselves are recorded live by the pipeline.
     */
    void publishMetrics(sim::MetricsRegistry &registry) const;

  private:
    struct Entry
    {
        std::uint64_t group = 0;
        bool valid = false;
        /** Monotone insertion sequence (eviction tie-break). */
        std::uint64_t insertSeq = 0;
        /** Dense block keys of the backing flash pages. */
        std::vector<std::uint64_t> blockKeys;
    };

    /** Current admission/eviction priority of @p group. */
    double priority(std::uint64_t group) const;

    /** Dense block key of @p ppa (channel/die/plane/block). */
    std::uint64_t blockKeyOf(const ssdsim::PhysicalPage &ppa) const;

    /** Halve all frequency counts, dropping zeros (TinyLFU-style
     *  aging keeps the footprint bounded and the recent past
     *  dominant). */
    void decayFrequencies();

    CacheConfig config_;
    std::uint64_t groupBytes_;
    std::function<double(std::uint64_t)> hotDegree_;
    std::uint64_t sets_;
    unsigned ways_;
    std::vector<Entry> entries_; // set-major, sets_ * ways_
    std::uint64_t occupancy_ = 0;
    std::uint64_t insertCounter_ = 0;
    /** Observed candidate-frequency counts (decayed). */
    std::unordered_map<std::uint64_t, std::uint32_t> frequency_;
    std::uint64_t accessCounter_ = 0;
    std::uint64_t decayInterval_;
    /** Groups whose flash copy ever failed ECC. */
    std::unordered_set<std::uint64_t> lostGroups_;
    RowCacheStats stats_;
};

} // namespace accel
} // namespace ecssd

#endif // ECSSD_ACCEL_ROW_CACHE_HH
