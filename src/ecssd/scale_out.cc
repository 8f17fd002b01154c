#include "scale_out.hh"

#include <algorithm>
#include <cstdio>

#include "sim/logging.hh"

namespace ecssd
{

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
        shards_.back()->setDeployVersion(fleetEpoch_, fleetVersion_);
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
    // The spare deploys whatever version the fleet currently serves.
    shards_[shard]->setDeployVersion(fleetEpoch_, fleetVersion_);
    ShardHealth &health = health_[shard];
    health.alive = true;
    health.failAfterBatches = std::numeric_limits<unsigned>::max();
    health.serviceTime = 0;
    ++health.replacements;
    --spares_;
    return shards_[shard]->deployTimeEstimate();
}

FleetRedeployResult
ScaleOutEcssd::rollingRedeploy(const RedeployConfig &config)
{
    config.validate();
    FleetRedeployResult result;
    result.weightVersion = fleetVersion_ + 1;

    // Each shard re-stages the same partition footprint; under the
    // IO budget the background copy is stretched by 1/budget over
    // the stop-the-world deploy time.
    const sim::Tick full_time =
        estimateDeployTime(shardSpec_, options_.ssd);
    const sim::Tick per_shard = static_cast<sim::Tick>(
        static_cast<double>(full_time) / config.ioBudgetFraction);

    std::vector<unsigned> swapped;
    for (unsigned d = 0; d < devices(); ++d) {
        if (!health_[d].alive) {
            // A dead shard cannot stage; the spare that eventually
            // replaces it deploys the then-current fleet version.
            ++result.shardsSkipped;
            continue;
        }
        if (shards_[d]->ssd().ftl().readOnly()) {
            // Shard lost mid-roll: revert every shard already
            // swapped so the fleet never serves a mixed deployment.
            sim::warn("shard ", d, " read-only during rolling "
                      "redeploy; reverting ", swapped.size(),
                      " swapped shards");
            for (const unsigned s : swapped)
                shards_[s]->setDeployVersion(fleetEpoch_,
                                             fleetVersion_);
            result.shardsSwapped = 0;
            result.rolledBack = true;
            result.reason = RollbackReason::ShardLoss;
            ++fleetRedeployRollbacks_;
            return result;
        }
        // One shard at a time: its staging completes (and ages its
        // service clock) before the roll moves on.
        result.stagingTime += per_shard;
        health_[d].serviceTime += per_shard;
        shards_[d]->setDeployVersion(fleetEpoch_ + 1,
                                     fleetVersion_ + 1);
        swapped.push_back(d);
        ++result.shardsSwapped;
    }
    if (result.shardsSwapped == 0) {
        // Nothing live to swap: the roll never took effect.
        result.rolledBack = true;
        result.reason = RollbackReason::ShardLoss;
        ++fleetRedeployRollbacks_;
        return result;
    }
    ++fleetEpoch_;
    ++fleetVersion_;
    ++fleetRedeployCommits_;
    return result;
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
RoutingConfig::validate() const
{
    if (replicasPerShard == 0)
        sim::fatal("RoutingConfig: replicasPerShard must be >= 1");
}

RoutedServeResult
ScaleOutEcssd::serveRouted(const std::vector<sim::Tick> &arrivals,
                           const RoutingConfig &routing)
{
    routing.validate();
    RoutedServeResult result;
    if (arrivals.empty())
        return result;

    // Calibration probe: one real batch per live shard pins the
    // per-shard service time the router schedules with (and ages the
    // shard accordingly — the probe is served work).  The routed run
    // itself is a scheduling model over those times: replicas of a
    // shard serve the same partition at the same speed.
    std::vector<sim::Tick> service(devices(), 0);
    unsigned live = 0;
    for (unsigned d = 0; d < devices(); ++d) {
        if (!health_[d].alive)
            continue;
        const accel::RunResult probe = shards_[d]->runInference(1);
        service[d] = std::max<sim::Tick>(probe.totalTime, 1);
        health_[d].batchesServed += 1;
        health_[d].serviceTime += probe.totalTime;
        ++live;
    }
    if (live == 0)
        sim::fatal("serveRouted: every shard is dead; nothing can "
                   "serve the partition");

    const unsigned replicas = routing.replicasPerShard;
    // busyUntil clock per (shard, replica): the router's whole view
    // of backlog.  Dead shards keep zeroed slots that are never
    // consulted.
    std::vector<sim::Tick> busy(
        static_cast<std::size_t>(devices()) * replicas, 0);
    const sim::Tick merge = sim::microseconds(5.0) * live;

    double latency_sum_ms = 0.0;
    sim::Tick previous_arrival = 0;
    for (const sim::Tick arrival : arrivals) {
        ECSSD_ASSERT(arrival >= previous_arrival,
                     "serveRouted arrivals must be non-decreasing");
        previous_arrival = arrival;
        sim::Tick completion = 0;
        for (unsigned d = 0; d < devices(); ++d) {
            if (!health_[d].alive)
                continue;
            // Queue-depth-aware routing: least-busy replica wins,
            // lowest index on ties, so the schedule is a pure
            // function of the arrival stream.
            const std::size_t base =
                static_cast<std::size_t>(d) * replicas;
            unsigned primary = 0;
            for (unsigned r = 1; r < replicas; ++r) {
                if (busy[base + r] < busy[base + primary])
                    primary = r;
            }
            const sim::Tick backlog_tick =
                busy[base + primary] > arrival
                    ? busy[base + primary] - arrival
                    : 0;
            const std::uint64_t backlog =
                (backlog_tick + service[d] - 1) / service[d];
            result.maxReplicaBacklog =
                std::max(result.maxReplicaBacklog, backlog);
            const sim::Tick start =
                std::max(arrival, busy[base + primary]);
            sim::Tick done = start + service[d];
            busy[base + primary] = done;
            ++result.subRequests;

            // Deadline-triggered hedge: the expected completion is
            // known at dispatch (the schedule is deterministic), so
            // the duplicate launches immediately on the
            // next-least-busy replica; first response wins and the
            // loser's work is the capacity price of the tail cut.
            if (routing.hedgeDelay != 0 && replicas > 1
                && done > arrival + routing.hedgeDelay) {
                unsigned hedge = primary == 0 ? 1 : 0;
                for (unsigned r = 0; r < replicas; ++r) {
                    if (r == primary)
                        continue;
                    if (busy[base + r] < busy[base + hedge])
                        hedge = r;
                }
                const sim::Tick hedge_start =
                    std::max(arrival, busy[base + hedge]);
                const sim::Tick hedge_done =
                    hedge_start + service[d];
                busy[base + hedge] = hedge_done;
                ++result.hedgesIssued;
                ++result.subRequests;
                if (hedge_done < done) {
                    ++result.hedgeWins;
                    done = hedge_done;
                }
            }
            completion = std::max(completion, done);
        }
        completion += merge;
        ++result.requests;
        result.makespan = std::max(result.makespan, completion);
        const double ms = sim::tickToMs(completion - arrival);
        latency_sum_ms += ms;
        result.latencyMs.sample(ms);
    }
    result.meanLatencyMs =
        latency_sum_ms / static_cast<double>(result.requests);
    return result;
}

void
ScaleOutEcssd::publishRoutedMetrics(
    sim::MetricsRegistry &registry,
    const RoutedServeResult &result) const
{
    registry.gaugeSet("fleet.routed.requests",
                      static_cast<double>(result.requests));
    registry.gaugeSet("fleet.routed.sub_requests",
                      static_cast<double>(result.subRequests));
    registry.gaugeSet("fleet.routed.hedges_issued",
                      static_cast<double>(result.hedgesIssued));
    registry.gaugeSet("fleet.routed.hedge_wins",
                      static_cast<double>(result.hedgeWins));
    registry.gaugeSet("fleet.routed.makespan_ms",
                      sim::tickToMs(result.makespan));
    registry.gaugeSet("fleet.routed.mean_latency_ms",
                      result.meanLatencyMs);
    registry.gaugeSet("fleet.routed.p50_latency_ms",
                      result.latencyMs.p50());
    registry.gaugeSet("fleet.routed.p99_latency_ms",
                      result.latencyMs.p99());
    registry.gaugeSet(
        "fleet.routed.max_replica_backlog",
        static_cast<double>(result.maxReplicaBacklog));
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
    registry.gaugeSet("fleet.deploy_epoch",
                      static_cast<double>(fleetEpoch_));
    registry.gaugeSet("fleet.weight_version",
                      static_cast<double>(fleetVersion_));
    registry.gaugeSet(
        "fleet.redeploy_commits",
        static_cast<double>(fleetRedeployCommits_));
    registry.gaugeSet(
        "fleet.redeploy_rollbacks",
        static_cast<double>(fleetRedeployRollbacks_));
}

} // namespace ecssd
