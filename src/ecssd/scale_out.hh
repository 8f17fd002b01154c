/**
 * @file
 * Scale-out ECSSD (Section 7.1): a classification layer too large
 * for one device's DRAM is partitioned row-wise across several
 * ECSSDs that execute in parallel; the host merges per-device top-k
 * results.
 *
 * Fleet fault tolerance: a device can be marked failed (immediately
 * or after a number of batches, modeling a mid-run loss), the fleet
 * tracks per-shard health, and the merge proceeds over the surviving
 * shards.  Because the partition is row-wise, losing a shard loses
 * exactly its category range: the merged top-k stays correct for
 * every surviving category, and ScaleOutResult carries the expected
 * recall loss.
 */

#ifndef ECSSD_ECSSD_SCALE_OUT_HH
#define ECSSD_ECSSD_SCALE_OUT_HH

#include <limits>
#include <memory>
#include <vector>

#include "ecssd/redeploy.hh"
#include "ecssd/system.hh"
#include "sim/stats.hh"

namespace ecssd
{

/**
 * Share of a device's DRAM the paper plans to fill with the INT4
 * screener; the FTL's L2P map and management data keep the rest.
 * This is how the 16 GB device tops out at the 12.8 GB screener of
 * the 100M-category layer.
 */
constexpr double dramFillTarget = 0.8;

/** Liveness and service record of one fleet shard. */
struct ShardHealth
{
    /** False once the device failed (injected or scheduled). */
    bool alive = true;
    /** Batches this shard completed across all runs. */
    std::uint64_t batchesServed = 0;
    /** Batches remaining before a scheduled failure triggers;
     *  max() means no failure is scheduled. */
    unsigned failAfterBatches =
        std::numeric_limits<unsigned>::max();
    /** Cumulative device time this shard has served (the lifetime
     *  clock its retention ages are measured against). */
    sim::Tick serviceTime = 0;
    /** Times this shard was proactively drained onto a spare. */
    std::uint64_t replacements = 0;
};

/**
 * When to proactively drain a shard onto a spare device.
 *
 * Disabled by default (both thresholds off), so a fleet without a
 * policy behaves exactly as the reactive-failover fleet did.
 */
struct DrainPolicy
{
    /** Drain when the shard's SMART lifeRemaining falls to or below
     *  this fraction; 0 disables the life trigger. */
    double lifeThreshold = 0.0;
    /** Drain when the shard's predicted media-error rate reaches
     *  this probability; 0 disables the error-rate trigger. */
    double errorRateThreshold = 0.0;

    bool
    enabled() const
    {
        return lifeThreshold > 0.0 || errorRateThreshold > 0.0;
    }

    /** True when @p report trips either trigger. */
    bool
    shouldDrain(const ssdsim::HealthReport &report) const
    {
        if (lifeThreshold > 0.0
            && report.lifeRemaining <= lifeThreshold)
            return true;
        if (errorRateThreshold > 0.0
            && report.predictedErrorRate >= errorRateThreshold)
            return true;
        return false;
    }
};

/** Outcome of one scale-out inference run. */
struct ScaleOutResult
{
    /** Per-device run results, in partition order (a shard that was
     *  dead for the whole run contributes an empty result). */
    std::vector<accel::RunResult> shards;
    /** Wall-clock time: max over devices plus the host merge. */
    sim::Tick totalTime = 0;
    /** Mean batch latency across the run, milliseconds. */
    double meanBatchMs = 0.0;
    /** Total energy over all devices, microjoules. */
    double totalEnergyUj = 0.0;
    /** Shards still alive after the run. */
    unsigned survivingDevices = 0;
    /** Shards dead by the end of the run. */
    unsigned failedDevices = 0;
    /** Shards proactively drained onto spares before this run's
     *  batches were served. */
    unsigned drainedShards = 0;
    /** Provisioned spare devices left after the run. */
    unsigned sparesRemaining = 0;
    /** Time spent re-replicating drained shards onto spares.  The
     *  copy streams in the background while the old device keeps
     *  serving, so it is reported but not added to totalTime. */
    sim::Tick reReplicationTime = 0;
    /**
     * Expected fraction of true top-k answers lost to dead shards,
     * averaged over the run's batches: a dead shard's category range
     * simply does not compete in the merge, so under a uniform true
     * label distribution each dead-shard batch loses its share of
     * the categories.
     */
    double recallLossEstimate = 0.0;
};

/**
 * Replica and tail-latency policy of the routed serving front-end
 * (serveRouted).  A request fans out to every shard (the partition
 * is row-wise, so every shard must score its category range); within
 * a shard the router balances reads across replicas by backlog and
 * hedges sub-requests whose expected completion runs late.
 */
struct RoutingConfig
{
    /** Read replicas per shard (>= 1).  Replicas serve the same row
     *  partition, so a hot shard is served from more than one
     *  device; reads balance across them by backlog. */
    unsigned replicasPerShard = 1;
    /**
     * Deadline-triggered hedging: when a sub-request's expected
     * completion (on its least-busy replica) exceeds its arrival by
     * more than this, a duplicate is issued to the next-least-busy
     * replica and the first response wins — the straggler's work is
     * wasted capacity, which is the standard hedging trade.  0
     * disables hedging; so does a single replica (nowhere to hedge).
     */
    sim::Tick hedgeDelay = 0;

    /** Die fatally (sim::FatalError) on an inconsistent config. */
    void validate() const;
};

/** Outcome of one routed open-loop serving run. */
struct RoutedServeResult
{
    /** Requests served (one per arrival). */
    std::uint64_t requests = 0;
    /** Sub-requests executed across shards and replicas, hedges
     *  included. */
    std::uint64_t subRequests = 0;
    /** Hedged duplicates issued. */
    std::uint64_t hedgesIssued = 0;
    /** Hedges whose response beat the primary replica's. */
    std::uint64_t hedgeWins = 0;
    /** Completion time of the last request. */
    sim::Tick makespan = 0;
    /** End-to-end request latency quantiles, milliseconds. */
    sim::Percentiles latencyMs;
    double meanLatencyMs = 0.0;
    /** Peak backlog (queued sub-requests) of any single replica —
     *  the balance measure replica routing is supposed to keep
     *  low. */
    std::uint64_t maxReplicaBacklog = 0;
};

/** Outcome of one rolling fleet weight redeploy. */
struct FleetRedeployResult
{
    /** Shards whose deploy epoch flipped to the new version. */
    unsigned shardsSwapped = 0;
    /** Dead shards the roll passed over (they pick the new version
     *  up when a spare replaces them). */
    unsigned shardsSkipped = 0;
    /** Background staging time summed over the swapped shards (each
     *  shard stages serially, one at a time, under the IO budget). */
    sim::Tick stagingTime = 0;
    /** The fleet-wide weight version this roll targeted. */
    std::uint64_t weightVersion = 0;
    /** True when the roll aborted and every already-swapped shard
     *  reverted to the old version. */
    bool rolledBack = false;
    RollbackReason reason = RollbackReason::None;
};

/**
 * A row-partitioned fleet of ECSSDs serving one huge classification
 * layer.
 */
class ScaleOutEcssd
{
  public:
    /**
     * Partition @p spec across @p devices ECSSDs.
     *
     * @param spec The full classification layer.
     * @param devices Device count; each shard must fit its DRAM.
     * @param options Per-device configuration.
     */
    ScaleOutEcssd(const xclass::BenchmarkSpec &spec, unsigned devices,
                  const EcssdOptions &options = EcssdOptions::full());

    unsigned devices() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /** The shard specs (row ranges are implicit and equal-sized). */
    const xclass::BenchmarkSpec &shardSpec() const
    {
        return shardSpec_;
    }

    /**
     * Minimum device count for @p spec given a per-device DRAM
     * capacity and the dramFillTarget the paper plans with.
     *
     * Fatal when @p dram_bytes leaves no usable weight capacity (a
     * zero-DRAM device can never hold a shard).
     */
    static unsigned devicesNeeded(const xclass::BenchmarkSpec &spec,
                                  std::uint64_t dram_bytes);

    // --- Fault injection / health ---------------------------------
    /** Mark @p shard failed immediately: it serves no further
     *  batches. */
    void failShard(unsigned shard);

    /** Schedule @p shard to fail after serving @p batches more
     *  batches (0 = immediately), modeling a mid-run device loss. */
    void failShardAfterBatches(unsigned shard, unsigned batches);

    /** Liveness of one shard. */
    bool shardAlive(unsigned shard) const;

    /** Health record of one shard. */
    const ShardHealth &health(unsigned shard) const;

    /** Currently-alive device count. */
    unsigned aliveDevices() const;

    // --- Proactive drain ------------------------------------------
    /** Provision @p count spare devices the drain can re-replicate
     *  degrading shards onto. */
    void provisionSpares(unsigned count) { spares_ += count; }

    /** Spare devices not yet consumed. */
    unsigned sparesAvailable() const { return spares_; }

    /** Install the proactive-drain policy (see DrainPolicy). */
    void setDrainPolicy(const DrainPolicy &policy)
    {
        drainPolicy_ = policy;
    }

    /** SMART report of @p shard at its cumulative service time. */
    ssdsim::HealthReport shardHealthReport(unsigned shard) const;

    /** Direct access to one shard's system (fault injection). */
    EcssdSystem &shardSystem(unsigned shard);

    // --- Rolling weight redeploy ----------------------------------

    /**
     * Hot-swap the fleet to a new weight version, one shard at a
     * time: each live shard stages the new layout in the background
     * under @p config's IO budget and flips its deploy epoch before
     * the roll moves to the next shard, so at most one shard is ever
     * mid-swap and the merged top-k keeps serving throughout.  Dead
     * shards are skipped (a spare replacing them deploys the current
     * version).  A shard found read-only mid-roll aborts the roll:
     * every already-swapped shard reverts to the old version
     * (RollbackReason::ShardLoss) so the fleet never serves a mixed
     * deployment.
     */
    FleetRedeployResult rollingRedeploy(
        const RedeployConfig &config = RedeployConfig{});

    /** Fleet-wide deploy epoch (bumped per completed roll). */
    std::uint64_t deployEpoch() const { return fleetEpoch_; }

    /** Fleet-wide weight version currently deployed. */
    std::uint64_t weightVersion() const { return fleetVersion_; }

    /**
     * Run @p batches batches on every live shard in parallel and
     * merge over the survivors.  A shard whose scheduled failure
     * triggers mid-run stops after its remaining quota; the merge
     * then proceeds without it and the result reports the estimated
     * recall loss.  Fatal when no shard serves any batch.
     */
    ScaleOutResult runInference(unsigned batches);

    /**
     * Serve an open-loop arrival stream through the routed
     * front-end: every arrival fans out one sub-request per shard,
     * the router picks the least-backlogged replica (lowest index on
     * ties, so the schedule is deterministic), and late sub-requests
     * are hedged per @p routing.  The request completes when its
     * slowest shard answers plus the host merge; per-shard service
     * time comes from a one-batch calibration probe against the live
     * device at the start of the run.
     *
     * @param arrivals Non-decreasing request arrival times.
     * @param routing Replica/hedging policy.
     */
    RoutedServeResult serveRouted(
        const std::vector<sim::Tick> &arrivals,
        const RoutingConfig &routing = RoutingConfig{});

    /** Snapshot one routed run as "fleet.routed.*" gauges. */
    void publishRoutedMetrics(sim::MetricsRegistry &registry,
                              const RoutedServeResult &result) const;

    /**
     * Snapshot fleet state and the per-shard outcome of @p result
     * into @p registry as gauges: "fleet.shard00.*" per-shard
     * time/batches/liveness plus fleet-wide aggregates, including
     * the load-skew gauge fleet.time_skew ((max-min)/max over the
     * shard run times — 0 is a perfectly balanced fleet).
     */
    void publishMetrics(sim::MetricsRegistry &registry,
                        const ScaleOutResult &result) const;

  private:
    /** Replace @p shard's device with a freshly-deployed spare.
     *  @return The re-replication (deployment) time. */
    sim::Tick drainShard(unsigned shard);

    xclass::BenchmarkSpec fullSpec_;
    xclass::BenchmarkSpec shardSpec_;
    EcssdOptions options_;
    /** Fleet fan-out pool (options.threads workers): live shards
     *  simulate concurrently, results merge in shard-index order so
     *  the outcome is bit-identical to the serial fleet. */
    std::unique_ptr<sim::ThreadPool> pool_;
    std::vector<std::unique_ptr<EcssdSystem>> shards_;
    std::vector<ShardHealth> health_;
    DrainPolicy drainPolicy_;
    unsigned spares_ = 0;
    /** Fleet-wide serving identity (every shard reports it). */
    std::uint64_t fleetEpoch_ = 1;
    std::uint64_t fleetVersion_ = 1;
    /** Lifetime rolling-redeploy outcome counts. */
    std::uint64_t fleetRedeployCommits_ = 0;
    std::uint64_t fleetRedeployRollbacks_ = 0;
};

} // namespace ecssd

#endif // ECSSD_ECSSD_SCALE_OUT_HH
