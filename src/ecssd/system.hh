/**
 * @file
 * The assembled ECSSD system: SSD substrate + inserted accelerator +
 * data layout + screening, with the architecture knobs that the
 * paper's ablations flip (MAC datapath, layout strategy, INT4
 * placement, stage overlap, screening on/off).
 */

#ifndef ECSSD_ECSSD_SYSTEM_HH
#define ECSSD_ECSSD_SYSTEM_HH

#include <memory>
#include <string>

#include "accel/pipeline.hh"
#include "circuit/energy.hh"
#include "layout/strategy.hh"
#include "sim/thread_pool.hh"
#include "ssdsim/ssd.hh"
#include "xclass/workload.hh"

namespace ecssd
{

/**
 * Background re-layout policy: when the DRAM row cache's decayed
 * observed-frequency counters show the channel traffic diverging
 * from what the layout's hot-degree predictor promised, an FTL-level
 * migration task re-homes the hottest mis-placed page groups onto
 * the under-loaded channels, under an IO-budget share of device
 * time.  Disabled by default: a disabled config is byte-identical
 * to a build without the subsystem.
 */
struct RelayoutConfig
{
    bool enabled = false;
    /** Divergence (1 - observed channel balance) that triggers a
     *  migration pass; below it relayoutStep() only measures. */
    double divergenceThreshold = 0.25;
    /** Max flash pages migrated per relayoutStep() call. */
    unsigned pageBudget = 64;
    /** Device-time share the migration task may consume: its flash
     *  busy time is stretched by 1/fraction, exactly like the staged
     *  redeploy's staging. */
    double ioBudgetFraction = 0.2;
};

/** Lifetime counters of the background re-layout task. */
struct RelayoutStats
{
    /** relayoutStep() calls that ran the divergence check. */
    std::uint64_t passes = 0;
    /** Passes that crossed the threshold and migrated. */
    std::uint64_t migrationPasses = 0;
    /** Page groups re-homed onto another channel. */
    std::uint64_t rowsMigrated = 0;
    /** Flash pages moved for those groups. */
    std::uint64_t pagesMoved = 0;
    /** Divergence measured by the most recent pass. */
    double lastDivergence = 0.0;
    /** Observed channel balance after the most recent pass
     *  (mean/max, 1.0 = perfectly balanced). */
    double recoveredBalance = 1.0;
};

/** Architecture knobs of one ECSSD configuration. */
struct EcssdOptions
{
    circuit::FpMacKind fpKind = circuit::FpMacKind::AlignmentFree;
    layout::LayoutKind layoutKind =
        layout::LayoutKind::LearningAdaptive;
    accel::Int4Placement int4Placement = accel::Int4Placement::Dram;
    bool overlapStages = true;
    bool screening = true;
    /** On-flash weight precision (CFP16 halves flash traffic). */
    accel::WeightPrecision weightPrecision =
        accel::WeightPrecision::Cfp32;
    /** Hot-degree predictor noise for trace-tier runs. */
    double predictorNoise = 0.25;
    /**
     * Host-compute worker threads (functional tier and scale-out
     * fan-out).  Wall-clock only: results and simulated time are
     * bit-identical for any value (see sim::ThreadPool).
     */
    unsigned threads = 1;
    std::uint64_t seed = 1;
    ssdsim::SsdConfig ssd = ssdsim::SsdConfig{};
    /** DRAM hot-row candidate cache (capacityBytes = 0: disabled,
     *  bit-identical to a cache-less build). */
    accel::CacheConfig cache;
    /**
     * Hard ceiling on transient host bytes during a weight deploy
     * (EcssdApi::weightDeploy): enforced by an accounting allocator,
     * fatal (E_DEPLOY_BUDGET) on overdraft.  0 = unlimited.  Every
     * deploy honours it.
     */
    std::uint64_t deployHostBudgetBytes = 0;
    /** Background re-layout policy (disabled by default). */
    RelayoutConfig relayout;

    /**
     * Validate the option set, dying fatally (sim::FatalError) on an
     * inconsistent configuration — the EcssdOptions twin of
     * SsdConfig::validate().  With a @p spec the capacity checks run
     * too: the INT4 screener plus the hot-row cache must fit the SSD
     * DRAM.  Also validates the embedded SsdConfig.
     */
    void validate(const xclass::BenchmarkSpec *spec = nullptr) const;

    /** The full ECSSD design point (all techniques on). */
    static EcssdOptions
    full()
    {
        return EcssdOptions{};
    }

    /**
     * The Fig 8 starting baseline: naive FP MAC, sequential storing,
     * homogeneous data layout.
     */
    static EcssdOptions
    startingBaseline()
    {
        EcssdOptions options;
        options.fpKind = circuit::FpMacKind::Naive;
        options.layoutKind = layout::LayoutKind::Sequential;
        options.int4Placement = accel::Int4Placement::Flash;
        return options;
    }
};

/** Human-readable one-line description of an option set. */
std::string describe(const EcssdOptions &options);

/** DRAM the INT4 screener of @p spec claims on a device configured
 *  by @p options (0 when the screener is not DRAM-resident). */
std::uint64_t screenerDramBytes(const EcssdOptions &options,
                                const xclass::BenchmarkSpec &spec);

/**
 * Analytic weight-deployment (preparation) time of @p spec on a
 * device with @p config: the 4-bit matrix streams into DRAM, the
 * 32-bit matrix programs into flash with all channels in parallel.
 * Free-standing so redeploy planners can price a version *before*
 * building a system for it.  Fatal when the INT4 screener does not
 * fit the SSD DRAM.
 */
sim::Tick estimateDeployTime(const xclass::BenchmarkSpec &spec,
                             const ssdsim::SsdConfig &config);

/**
 * One ECSSD instance bound to a workload.
 *
 * Owns the SSD device, layout, trace generator, and pipeline, and
 * exposes paper-style experiment entry points.
 */
class EcssdSystem
{
  public:
    EcssdSystem(const xclass::BenchmarkSpec &spec,
                const EcssdOptions &options);

    const xclass::BenchmarkSpec &spec() const { return spec_; }
    const EcssdOptions &options() const { return options_; }
    ssdsim::SsdDevice &ssd() { return *ssd_; }
    accel::InferencePipeline &pipeline() { return *pipeline_; }
    const layout::LayoutStrategy &strategy() const
    {
        return *strategy_;
    }

    /** The host-compute pool (options.threads workers; never null —
     *  a 1-thread pool runs everything inline). */
    sim::ThreadPool &threadPool() { return *threadPool_; }

    /**
     * Run @p batches trace-driven inference batches and aggregate
     * timing.  Timelines reset first, so calls are independent.
     */
    accel::RunResult runInference(unsigned batches);

    /** Run with an external candidate source (functional tier). */
    accel::RunResult runInferenceWith(accel::CandidateSource &source,
                                      unsigned batches);

    /**
     * Energy breakdown of a completed run: flash/DRAM/link activity
     * plus accelerator dynamic and device background power.
     *
     * @pre @p result came from the most recent runInference*() call
     *      on this system (the device counters must match).
     */
    circuit::EnergyBreakdown estimateRunEnergy(
        const accel::RunResult &result) const;

    /**
     * Analytic estimate of the weight-deployment (preparation) time:
     * the 4-bit matrix streams into DRAM, the 32-bit matrix programs
     * into flash with all channels in parallel.
     */
    sim::Tick deployTimeEstimate() const;

    /**
     * SMART-style health snapshot of the underlying device at tick
     * @p now.  @p now is wall-clock device lifetime, not a per-batch
     * tick: retention ages are measured against it, so serving layers
     * pass their cumulative service time.
     */
    ssdsim::HealthReport
    health(sim::Tick now) const
    {
        ssdsim::HealthReport report = ssd_->health(now);
        report.deployEpoch = deployEpoch_;
        report.weightVersion = weightVersion_;
        return report;
    }

    /**
     * Stamp the serving identity a versioned layer (EcssdApi, the
     * server, the fleet) gave this system.  Surfaces in health() and,
     * when the version is nonzero, in publishMetrics() — unversioned
     * systems keep their metrics JSON byte-identical.
     */
    void
    setDeployVersion(std::uint64_t epoch, std::uint64_t version)
    {
        deployEpoch_ = epoch;
        weightVersion_ = version;
    }

    std::uint64_t deployEpoch() const { return deployEpoch_; }
    std::uint64_t weightVersion() const { return weightVersion_; }

    /**
     * One background re-layout pass at tick @p now: measure how far
     * the DRAM row cache's observed channel traffic has diverged
     * from the layout's balanced prediction, and — past the
     * configured threshold — migrate the hottest mis-placed page
     * groups from over- to under-loaded channels through the FTL
     * (cache coherence via the relocation listener), at most
     * pageBudget pages, time-stretched by the IO-budget share.
     *
     * No-op (returns @p now) when re-layout is disabled, the layout
     * is not learning-adaptive, or the cache is absent.
     *
     * @return Completion tick of the budgeted pass.
     */
    sim::Tick relayoutStep(sim::Tick now);

    const RelayoutStats &relayoutStats() const
    {
        return relayoutStats_;
    }

    /**
     * Snapshot re-layout state ("relayout.*" gauges) into
     * @p registry; no-op until a first relayoutStep() actually ran,
     * so never-relayouting runs keep their metrics byte-identical.
     */
    void publishRelayoutMetrics(sim::MetricsRegistry &registry) const;

    /**
     * Attach (or detach, with nullptr) observability sinks to the
     * pipeline and device.  The tracer sees pipeline phase spans with
     * nested flash busy intervals; the registry sees live
     * "pipeline.*" counters/histograms.  Device-side snapshots are
     * published explicitly via publishMetrics().
     */
    void attachObservability(sim::MetricsRegistry *metrics,
                             sim::SpanTracer *spans);

    /**
     * Snapshot device-side state ("flash.*", "ftl.*", "ssd.*") and
     * the run-level aggregates of @p result ("run.*") into
     * @p registry.
     */
    void publishMetrics(sim::MetricsRegistry &registry,
                        const accel::RunResult &result) const;

  private:
    xclass::BenchmarkSpec spec_;
    EcssdOptions options_;
    std::unique_ptr<sim::ThreadPool> threadPool_;
    std::unique_ptr<ssdsim::SsdDevice> ssd_;
    std::unique_ptr<accel::TraceSource> trace_;
    std::unique_ptr<layout::LayoutStrategy> strategy_;
    /** The strategy downcast when it is mutable (learning-adaptive):
     *  the re-layout task's mutation handle; null otherwise. */
    layout::LearningAdaptiveLayout *adaptive_ = nullptr;
    std::unique_ptr<accel::InferencePipeline> pipeline_;
    RelayoutStats relayoutStats_;
    /** Serving identity (0/0 until a versioned layer stamps it). */
    std::uint64_t deployEpoch_ = 0;
    std::uint64_t weightVersion_ = 0;
};

} // namespace ecssd

#endif // ECSSD_ECSSD_SYSTEM_HH
