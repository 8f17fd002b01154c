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

#include "ecssd/system.hh"

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
 * Disabled by default (threshold off), so a fleet without a policy
 * behaves exactly as the reactive-failover fleet did.
 */
struct DrainPolicy
{
    /** Drain when the shard's predicted media-error rate reaches
     *  this probability; 0 disables the trigger. */
    double errorRateThreshold = 0.0;

    bool enabled() const { return errorRateThreshold > 0.0; }

    /** True when @p report trips the trigger. */
    bool
    shouldDrain(const ssdsim::HealthReport &report) const
    {
        return enabled()
            && report.predictedErrorRate >= errorRateThreshold;
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

    /**
     * Run @p batches batches on every live shard in parallel and
     * merge over the survivors.  A shard whose scheduled failure
     * triggers mid-run stops after its remaining quota; the merge
     * then proceeds without it and the result reports the estimated
     * recall loss.  Fatal when no shard serves any batch.
     */
    ScaleOutResult runInference(unsigned batches);

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
};

} // namespace ecssd

#endif // ECSSD_ECSSD_SCALE_OUT_HH
