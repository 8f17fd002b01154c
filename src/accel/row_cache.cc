#include "row_cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ecssd
{
namespace accel
{

namespace
{

/** Frequency saturation bound (keeps priority arithmetic exact). */
constexpr std::uint32_t maxFrequency = 1u << 30;

} // namespace

RowCache::RowCache(const CacheConfig &config,
                   std::uint64_t group_bytes,
                   std::uint64_t group_count,
                   std::function<double(std::uint64_t)> hot_degree)
    : config_(config), groupBytes_(group_bytes),
      hotDegree_(std::move(hot_degree))
{
    ECSSD_ASSERT(config.enabled(), "RowCache built with zero capacity");
    ECSSD_ASSERT(config.associativity > 0,
                 "RowCache associativity must be positive");
    ECSSD_ASSERT(group_bytes > 0, "RowCache group bytes must be positive");
    (void)group_count;

    std::uint64_t entries = config.capacityBytes / group_bytes;
    entries = std::max<std::uint64_t>(1, entries);
    ways_ = static_cast<unsigned>(std::min<std::uint64_t>(
        config.associativity, entries));
    sets_ = std::max<std::uint64_t>(1, entries / ways_);
    entries_.resize(sets_ * ways_);

    // Age the frequency counts every few full-cache-turnovers' worth
    // of lookups so that the recent past dominates admission without
    // making the history window depend on wall-clock anything.
    decayInterval_ = std::max<std::uint64_t>(1024, 8 * sets_ * ways_);
}

double
RowCache::priority(std::uint64_t group) const
{
    const auto it = frequency_.find(group);
    const double freq =
        it == frequency_.end() ? 0.0 : static_cast<double>(it->second);
    // The hot-degree seed lives in [0, 1]: it breaks ties among
    // equally-frequent groups and bootstraps admission before any
    // frequency has been observed.
    return freq + (hotDegree_ ? hotDegree_(group) : 0.0);
}

std::uint64_t
RowCache::blockKeyOf(const ssdsim::PhysicalPage &ppa) const
{
    return (static_cast<std::uint64_t>(ppa.channel) << 48)
        | (static_cast<std::uint64_t>(ppa.die) << 32)
        | (static_cast<std::uint64_t>(ppa.plane) << 24)
        | static_cast<std::uint64_t>(ppa.block);
}

void
RowCache::decayFrequencies()
{
    for (auto it = frequency_.begin(); it != frequency_.end();) {
        it->second /= 2;
        if (it->second == 0)
            it = frequency_.erase(it);
        else
            ++it;
    }
}

bool
RowCache::lookup(std::uint64_t group, std::uint32_t rows)
{
    ++accessCounter_;
    if (accessCounter_ % decayInterval_ == 0)
        decayFrequencies();
    std::uint32_t &freq = frequency_[group];
    if (freq < maxFrequency)
        ++freq;

    const std::uint64_t set = group % sets_;
    Entry *base = &entries_[set * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        if (base[w].valid && base[w].group == group) {
            ++stats_.hits;
            if (flashLost(group))
                stats_.avoidedDegradedRows += rows;
            return true;
        }
    }
    ++stats_.misses;
    return false;
}

bool
RowCache::admit(std::uint64_t group,
                const std::vector<ssdsim::PhysicalPage> &pages)
{
    const std::uint64_t set = group % sets_;
    Entry *base = &entries_[set * ways_];

    Entry *slot = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
        if (base[w].valid && base[w].group == group)
            return false; // already resident
        if (!base[w].valid && slot == nullptr)
            slot = &base[w];
    }

    if (slot == nullptr) {
        // Full set: pick the lowest-priority victim, oldest first on
        // ties (both criteria are functions of deterministic state).
        Entry *victim = &base[0];
        double victim_priority = priority(victim->group);
        for (unsigned w = 1; w < ways_; ++w) {
            const double p = priority(base[w].group);
            if (p < victim_priority
                || (p == victim_priority
                    && base[w].insertSeq < victim->insertSeq)) {
                victim = &base[w];
                victim_priority = p;
            }
        }
        if (config_.admission == CacheConfig::Admission::HotDegree
            && priority(group) <= victim_priority) {
            ++stats_.admissionRejects;
            return false;
        }
        ++stats_.evictions;
        --occupancy_;
        slot = victim;
    }

    slot->group = group;
    slot->valid = true;
    slot->insertSeq = insertCounter_++;
    slot->blockKeys.clear();
    for (const ssdsim::PhysicalPage &ppa : pages)
        slot->blockKeys.push_back(blockKeyOf(ppa));
    ++occupancy_;
    ++stats_.insertions;
    return true;
}

void
RowCache::markFlashLost(std::uint64_t group)
{
    lostGroups_.insert(group);
}

void
RowCache::invalidatePhysical(const ssdsim::PhysicalPage &ppa)
{
    ++stats_.relocationProbes;
    const std::uint64_t key = blockKeyOf(ppa);
    for (Entry &entry : entries_) {
        if (!entry.valid)
            continue;
        const auto hit = std::find(entry.blockKeys.begin(),
                                   entry.blockKeys.end(), key);
        if (hit == entry.blockKeys.end())
            continue;
        entry.valid = false;
        entry.blockKeys.clear();
        --occupancy_;
        ++stats_.invalidations;
    }
}

void
RowCache::publishMetrics(sim::MetricsRegistry &registry) const
{
    registry.gaugeSet("cache.occupancy",
                      static_cast<double>(occupancy_));
    registry.gaugeSet("cache.capacity_entries",
                      static_cast<double>(entries_.size()));
    registry.gaugeSet("cache.group_bytes",
                      static_cast<double>(groupBytes_));
    registry.gaugeSet("cache.insertions",
                      static_cast<double>(stats_.insertions));
    registry.gaugeSet("cache.evictions",
                      static_cast<double>(stats_.evictions));
    registry.gaugeSet("cache.admission_rejects",
                      static_cast<double>(stats_.admissionRejects));
    registry.gaugeSet("cache.invalidations",
                      static_cast<double>(stats_.invalidations));
    registry.gaugeSet("cache.relocation_probes",
                      static_cast<double>(stats_.relocationProbes));
    registry.gaugeSet("cache.avoided_degraded_rows",
                      static_cast<double>(stats_.avoidedDegradedRows));
    registry.gaugeSet("cache.hit_rate", stats_.hitRate());
}

} // namespace accel
} // namespace ecssd
