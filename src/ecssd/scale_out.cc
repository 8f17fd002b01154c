#include "scale_out.hh"

#include <algorithm>
#include <cstdio>

#include "sim/logging.hh"

namespace ecssd
{

namespace
{

/** The fleet's one deployment: every shard reports it. */
constexpr std::uint64_t kFleetEpoch = 1;
constexpr std::uint64_t kFleetVersion = 1;

} // namespace

ScaleOutEcssd::ScaleOutEcssd(const xclass::BenchmarkSpec &spec,
                             unsigned devices,
                             const EcssdOptions &options)
    : fullSpec_(spec), options_(options)
{
    ECSSD_ASSERT(devices > 0, "scale-out needs at least one device");
    shardSpec_ = spec;
    shardSpec_.categories =
        (spec.categories + devices - 1) / devices;
    shardSpec_.name = spec.name + "-shard";
    ECSSD_ASSERT(shardSpec_.int4WeightBytes()
                     <= options.ssd.dramBytes,
                 "shard INT4 matrix does not fit the device DRAM; "
                 "increase the device count");

    pool_ = std::make_unique<sim::ThreadPool>(options.threads);
    for (unsigned d = 0; d < devices; ++d) {
        EcssdOptions shard_options = options;
        // Distinct trace seeds per shard: each partition sees its
        // own categories' candidate structure.
        shard_options.seed = options.seed + d;
        // Fleet-level fan-out is the parallel dimension here: the
        // per-shard systems run single-threaded inside it.
        shard_options.threads = 1;
        shards_.push_back(std::make_unique<EcssdSystem>(
            shardSpec_, shard_options));
        shards_.back()->setDeployVersion(kFleetEpoch, kFleetVersion);
    }
    health_.resize(devices);
}

unsigned
ScaleOutEcssd::devicesNeeded(const xclass::BenchmarkSpec &spec,
                             std::uint64_t dram_bytes)
{
    const std::uint64_t usable = static_cast<std::uint64_t>(
        static_cast<double>(dram_bytes) * dramFillTarget);
    if (usable == 0) {
        // A user/configuration error, not a simulator bug: without
        // usable DRAM the shard count is unbounded (and the division
        // below would be by zero).
        sim::fatal("devicesNeeded: per-device DRAM of ", dram_bytes,
                   " bytes leaves no usable weight capacity");
    }
    return static_cast<unsigned>(
        (spec.int4WeightBytes() + usable - 1) / usable);
}

void
ScaleOutEcssd::failShard(unsigned shard)
{
    failShardAfterBatches(shard, 0);
}

void
ScaleOutEcssd::failShardAfterBatches(unsigned shard,
                                     unsigned batches)
{
    ECSSD_ASSERT(shard < shards_.size(), "shard index out of range");
    health_[shard].failAfterBatches = batches;
    if (batches == 0)
        health_[shard].alive = false;
}

bool
ScaleOutEcssd::shardAlive(unsigned shard) const
{
    ECSSD_ASSERT(shard < shards_.size(), "shard index out of range");
    return health_[shard].alive;
}

const ShardHealth &
ScaleOutEcssd::health(unsigned shard) const
{
    ECSSD_ASSERT(shard < shards_.size(), "shard index out of range");
    return health_[shard];
}

unsigned
ScaleOutEcssd::aliveDevices() const
{
    unsigned alive = 0;
    for (const ShardHealth &health : health_)
        alive += health.alive ? 1 : 0;
    return alive;
}

ssdsim::HealthReport
ScaleOutEcssd::shardHealthReport(unsigned shard) const
{
    ECSSD_ASSERT(shard < shards_.size(), "shard index out of range");
    return shards_[shard]->health(health_[shard].serviceTime);
}

EcssdSystem &
ScaleOutEcssd::shardSystem(unsigned shard)
{
    ECSSD_ASSERT(shard < shards_.size(), "shard index out of range");
    return *shards_[shard];
}

sim::Tick
ScaleOutEcssd::drainShard(unsigned shard)
{
    // Rebuild the shard on a spare device: same partition, same
    // per-shard options (including the trace seed, so the workload
    // stays identical), zero accumulated wear.  The scheduled
    // failure modeled the *wearing* device dying, so the replacement
    // cancels it.
    EcssdOptions shard_options = options_;
    shard_options.seed = options_.seed + shard;
    shard_options.threads = 1;
    shards_[shard] = std::make_unique<EcssdSystem>(shardSpec_,
                                                   shard_options);
    // The spare deploys the version the fleet serves.
    shards_[shard]->setDeployVersion(kFleetEpoch, kFleetVersion);
    ShardHealth &health = health_[shard];
    health.alive = true;
    health.failAfterBatches = std::numeric_limits<unsigned>::max();
    health.serviceTime = 0;
    ++health.replacements;
    --spares_;
    return shards_[shard]->deployTimeEstimate();
}

ScaleOutResult
ScaleOutEcssd::runInference(unsigned batches)
{
    ScaleOutResult result;

    // Proactive drain: consult every live shard's SMART report
    // before committing the run to it.  A shard the policy flags is
    // re-replicated onto a spare *now*, while its data is still
    // readable — the whole point of acting on health telemetry
    // instead of waiting for the reactive failover below.
    if (drainPolicy_.enabled()) {
        for (unsigned d = 0; d < devices(); ++d) {
            if (!health_[d].alive)
                continue;
            if (spares_ == 0)
                break;
            const ssdsim::HealthReport report = shardHealthReport(d);
            if (!drainPolicy_.shouldDrain(report))
                continue;
            sim::warn("shard ", d, " degrading (life ",
                      report.lifeRemaining, ", predicted error rate ",
                      report.predictedErrorRate,
                      "); draining onto a spare");
            result.reReplicationTime += drainShard(d);
            ++result.drainedShards;
        }
    }

    // Phase 1 — fan out: every shard with a batch quota simulates
    // concurrently on the fleet pool.  Each shard touches only its
    // own EcssdSystem and its own slot of runs/energies, so any
    // execution interleaving yields the same per-shard results.
    std::vector<unsigned> quotas(devices(), 0);
    for (unsigned d = 0; d < devices(); ++d) {
        quotas[d] = health_[d].alive
            ? std::min(batches, health_[d].failAfterBatches)
            : 0;
    }
    std::vector<accel::RunResult> runs(devices());
    std::vector<double> energies(devices(), 0.0);
    pool_->parallelFor(
        0, devices(), 1, [&](std::size_t begin, std::size_t end) {
            for (std::size_t d = begin; d < end; ++d) {
                if (quotas[d] == 0)
                    continue;
                runs[d] = shards_[d]->runInference(quotas[d]);
                energies[d] = shards_[d]
                                  ->estimateRunEnergy(runs[d])
                                  .totalUj();
            }
        });

    // Phase 2 — merge in fixed shard-index order: health mutation,
    // energy accumulation, and the slowest-shard reduction happen
    // serially, so the merged result is bit-identical to the
    // serial fleet's.
    sim::Tick slowest = 0;
    std::uint64_t served_shard_batches = 0;
    std::uint64_t lost_shard_batches = 0;
    for (unsigned d = 0; d < devices(); ++d) {
        ShardHealth &health = health_[d];
        const unsigned quota = quotas[d];
        accel::RunResult run = std::move(runs[d]);
        if (quota > 0) {
            slowest = std::max(slowest, run.totalTime);
            result.totalEnergyUj += energies[d];
        }
        if (quota < batches && health.alive) {
            health.alive = false;
            sim::warn("shard ", d, " failed after ", quota,
                      " of ", batches, " batches; merging over "
                      "survivors");
        }
        if (health.failAfterBatches
            != std::numeric_limits<unsigned>::max())
            health.failAfterBatches -= quota;
        health.batchesServed += quota;
        health.serviceTime += run.totalTime;
        served_shard_batches += quota;
        lost_shard_batches += batches - quota;
        result.shards.push_back(std::move(run));
    }
    if (served_shard_batches == 0)
        sim::fatal("scale-out run with no surviving shards: every "
                   "device failed before serving a batch");

    result.survivingDevices = aliveDevices();
    result.failedDevices = devices() - result.survivingDevices;
    result.sparesRemaining = spares_;

    // A dead shard's categories never reach the merge; under a
    // uniform true-label distribution each lost shard-batch forfeits
    // its share of the category space.
    const double shard_share =
        static_cast<double>(shardSpec_.categories)
        / static_cast<double>(fullSpec_.categories);
    result.recallLossEstimate = std::min(
        1.0,
        static_cast<double>(lost_shard_batches) * shard_share
            / std::max(1u, batches));

    // Devices run concurrently; the host-side top-k merge of
    // per-shard results is a trivial K-way merge over the PCIe
    // fabric, modeled as a small fixed cost per shard-batch that
    // actually produced results.
    const sim::Tick merge =
        sim::microseconds(5.0) * served_shard_batches;
    result.totalTime = slowest + merge;
    result.meanBatchMs = sim::tickToMs(result.totalTime)
        / std::max(1u, batches);
    return result;
}

void
ScaleOutEcssd::publishMetrics(sim::MetricsRegistry &registry,
                              const ScaleOutResult &result) const
{
    sim::Tick fastest = 0;
    sim::Tick slowest = 0;
    bool first = true;
    for (unsigned d = 0; d < devices(); ++d) {
        char prefix[32];
        std::snprintf(prefix, sizeof(prefix), "fleet.shard%02u.", d);
        const ShardHealth &health = health_[d];
        registry.gaugeSet(std::string(prefix) + "alive",
                          health.alive ? 1.0 : 0.0);
        registry.gaugeSet(
            std::string(prefix) + "batches_served",
            static_cast<double>(health.batchesServed));
        registry.gaugeSet(std::string(prefix) + "service_time_ms",
                          sim::tickToMs(health.serviceTime));
        registry.gaugeSet(
            std::string(prefix) + "replacements",
            static_cast<double>(health.replacements));
        if (d < result.shards.size()) {
            const sim::Tick shard_time = result.shards[d].totalTime;
            registry.gaugeSet(std::string(prefix) + "run_time_ms",
                              sim::tickToMs(shard_time));
            if (shard_time > 0) {
                fastest =
                    first ? shard_time : std::min(fastest, shard_time);
                slowest = std::max(slowest, shard_time);
                first = false;
            }
        }
    }
    // Load skew across the shards that actually served: the paper's
    // balanced interleaving should keep this near zero.
    registry.gaugeSet("fleet.time_skew",
                      slowest == 0
                          ? 0.0
                          : static_cast<double>(slowest - fastest)
                              / static_cast<double>(slowest));
    registry.gaugeSet("fleet.devices",
                      static_cast<double>(devices()));
    registry.gaugeSet(
        "fleet.surviving_devices",
        static_cast<double>(result.survivingDevices));
    registry.gaugeSet("fleet.failed_devices",
                      static_cast<double>(result.failedDevices));
    registry.gaugeSet("fleet.drained_shards",
                      static_cast<double>(result.drainedShards));
    registry.gaugeSet("fleet.spares_remaining",
                      static_cast<double>(result.sparesRemaining));
    registry.gaugeSet("fleet.total_time_ms",
                      sim::tickToMs(result.totalTime));
    registry.gaugeSet("fleet.recall_loss_estimate",
                      result.recallLossEstimate);
}

} // namespace ecssd
