/**
 * @file
 * The host-facing ECSSD software library (Table 1).
 *
 * The API mirrors the paper's Python-style calls:
 *
 *   Preparation:  ecssdEnable/ecssdDisable, preAlign, weightDeploy
 *   Transmission: INT4_input_send, CFP32_input_send, Get_results
 *                 (InferenceSession::sendInt4, sendCfp32, results)
 *   Computation:  INT4_screen, CFP32_classify
 *                 (InferenceSession::screen, classify),
 *                 filterThreshold
 *
 * Calls are functional (they compute real predictions through the
 * bit-accurate datapaths) and timed (the device-side work drives the
 * simulated SSD's timelines, so every inference has a latency).
 *
 * Query state lives in an explicit InferenceSession: beginInference()
 * hands out a session whose sendInt4 / sendCfp32 / screen / classify
 * / results calls return a Status instead of dying, so hosts can
 * probe, retry, or interleave queries.
 *
 * Weight versions are first-class: weightDeploy() remains the
 * stop-the-world path (every outstanding session turns stale), while
 * redeployBegin()/redeployAdvance() run the staged online redeploy of
 * redeploy.hh — the new version stages, warms, and validates in the
 * background, the deploy epoch flips atomically, and old-epoch
 * sessions keep serving on the draining version until the bounded
 * drain deadline.
 */

#ifndef ECSSD_ECSSD_API_HH
#define ECSSD_ECSSD_API_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ecssd/redeploy.hh"
#include "ecssd/status.hh"
#include "ecssd/streaming_deploy.hh"
#include "ecssd/system.hh"
#include "ecssd/tenant.hh"
#include "numeric/cfp32.hh"
#include "xclass/screening.hh"

namespace ecssd
{

/** Working mode of the device (Section 4.1). */
enum class Mode
{
    Ssd,
    Accelerator,
};

class EcssdApi;

/**
 * One query's state machine, held explicitly.
 *
 * Obtained from EcssdApi::beginInference().  Every call validates the
 * sequence and reports misuse through its Status return value; the
 * session never aborts.  A session is bound to the weight deployment
 * (deploy epoch) it was created under: a stop-the-world
 * weightDeploy() turns it stale immediately, while a staged online
 * redeploy lets it finish on the old version during the bounded drain
 * window — Status::StaleSession only after the drain closes.
 *
 * Sessions are move-only: the API tracks how many sessions are open
 * per epoch so a drain can complete the moment the last old-epoch
 * session closes.
 */
class InferenceSession
{
  public:
    InferenceSession(InferenceSession &&other) noexcept;
    InferenceSession &operator=(InferenceSession &&other) noexcept;
    ~InferenceSession();

    /** Send the 4-bit projected input (INT4_input_send).  Starts a
     *  fresh query: stale candidates/scores of this session are
     *  dropped. */
    Status sendInt4(std::span<const float> feature);

    /** Send the pre-aligned 32-bit input (CFP32_input_send). */
    Status sendCfp32(std::span<const float> feature);

    /** Run low-precision screening + filtering (INT4_screen). */
    Status screen();

    /** Run candidate-only full-precision classification
     *  (CFP32_classify); drives the device timing model. */
    Status classify();

    /**
     * Fetch the final top-k prediction (Get_results).
     *
     * @param k Result count.
     * @param[out] out The prediction, valid only on Status::Ok.
     */
    Status results(std::size_t k,
                   xclass::ApproximateClassifier::Prediction &out);

    /** Candidates selected by this session's last screen(). */
    std::size_t candidateCount() const { return candidates_.size(); }

    /** Device latency of this session's last classify(), in ticks. */
    sim::Tick latency() const { return latency_; }

    /** Deploy epoch this session is bound to. */
    std::uint64_t epoch() const { return epoch_; }

  private:
    friend class EcssdApi;

    explicit InferenceSession(EcssdApi &api);

    /** Mode / deployment / epoch guard shared by every call. */
    Status check() const;

    EcssdApi *api_;
    /** Deployment epoch this session was created under. */
    std::uint64_t epoch_;

    std::vector<float> feature_;
    bool int4Sent_ = false;
    bool cfp32Sent_ = false;
    bool classified_ = false;
    std::vector<std::uint64_t> candidates_;
    std::vector<double> scores_;
    sim::Tick latency_ = 0;
};

/** The ECSSD host library bound to one device. */
class EcssdApi
{
  public:
    /**
     * @param options Device configuration; screening/layout knobs
     *        apply to accelerator mode.
     */
    explicit EcssdApi(const EcssdOptions &options = EcssdOptions{});

    ~EcssdApi();

    // --- Preparation --------------------------------------------------

    /** Switch to accelerator mode (ECSSD_enable). */
    void ecssdEnable() { mode_ = Mode::Accelerator; }

    /** Switch to SSD mode (ECSSD_disable). */
    void ecssdDisable() { mode_ = Mode::Ssd; }

    Mode mode() const { return mode_; }

    /**
     * Host-side pre-alignment of one FP32 vector into CFP32
     * (Pre_align).  Static: runs on the host, not the device.
     */
    static numeric::Cfp32Vector
    preAlign(std::span<const float> values)
    {
        return numeric::Cfp32Vector::preAlign(values);
    }

    /**
     * Deploy a classification layer (Weight_deploy): builds the INT4
     * screener, pre-aligns and places the FP32 rows per the device's
     * layout strategy, and loads both into the device.  Stop the
     * world: invalidates every outstanding InferenceSession (and any
     * DRAM-cached rows of the previous layer), and aborts any staged
     * redeploy in flight.  For a swap that serves through the
     * transition, use redeployBegin().
     *
     * The learning-adaptive placement streams out of core: rows go
     * quantize -> hot-degree score -> budget-sized sorted runs
     * spilled through the device's flash -> k-way merge, so peak
     * transient host bytes stay under
     * EcssdOptions::deployHostBudgetBytes (enforced, E_DEPLOY_BUDGET
     * on overdraft; 0 = one in-memory run, no spill).  The returned
     * time is the stream's (spill + max(merge, channel programs));
     * outcome details: streamingDeploy().  Other layouts have no
     * hotness sort to stream and return estimateDeployTime().
     * Panics when the INT4 screener does not fit the device DRAM.
     *
     * @param weights L x D FP32 weights (kept by reference; must
     *        outlive the API object).
     * @param spec Benchmark parameters.
     * @param trained_projection Optional learned K x D projection
     *        for the screener (see xclass::Screener).
     * @return Simulated deployment time.
     */
    sim::Tick weightDeploy(
        const numeric::FloatMatrix &weights,
        const xclass::BenchmarkSpec &spec,
        const numeric::FloatMatrix *trained_projection = nullptr);

    /** Same as weightDeploy(). */
    sim::Tick
    weightDeployStreaming(
        const numeric::FloatMatrix &weights,
        const xclass::BenchmarkSpec &spec,
        const numeric::FloatMatrix *trained_projection = nullptr)
    {
        return weightDeploy(weights, spec, trained_projection);
    }

    /** The most recent deploy's streaming outcome (its layout is
     *  released); nullptr before the first deploy and after a
     *  deploy of a layout that does not stream. */
    const StreamingDeployResult *
    streamingDeploy() const
    {
        return lastStreaming_ ? &*lastStreaming_ : nullptr;
    }

    /** Set the screening threshold (Filter_threshold). */
    void filterThreshold(double threshold);

    /** Calibrate the threshold on sample queries (host-side). */
    void calibrateThreshold(
        const std::vector<std::vector<float>> &queries);

    // --- Staged online redeploy -----------------------------------

    /**
     * Begin a zero-downtime hot swap to @p weights: stage the new
     * version under the configured IO budget, warm and validate it
     * with recorded recent queries, flip the deploy epoch, and drain
     * old-epoch sessions — all driven incrementally by
     * redeployAdvance() (or to completion by redeployRun()) while
     * live sessions keep serving.
     *
     * Guards report through the return Status: WrongMode before
     * ecssdEnable(), NotDeployed before a first weightDeploy(),
     * RedeployActive while another redeploy is in flight,
     * DimensionMismatch when @p weights do not match @p spec.  A
     * redeploy that cannot even reserve its staging capacity still
     * returns Ok — it begins and immediately rolls back
     * (RollbackReason::DramPressure), observable via
     * redeployStatus().
     *
     * @param weights The new L x D layer (kept by reference; must
     *        outlive the redeploy).
     * @param spec The new version's benchmark parameters.
     * @param config Staging/validation/drain policy.
     * @param trained_projection Optional learned projection.
     */
    Status redeployBegin(
        const numeric::FloatMatrix &weights,
        const xclass::BenchmarkSpec &spec,
        const RedeployConfig &config = RedeployConfig{},
        const numeric::FloatMatrix *trained_projection = nullptr);

    /**
     * Drive the active redeploy one step: one budgeted staging
     * chunk, one warm-up query, one validation query, the epoch
     * flip, or one drain poll — whichever the current phase needs.
     * Returns NoRedeploy once the redeploy is terminal (or none was
     * begun); Ok otherwise.
     */
    Status redeployAdvance();

    /**
     * Abort the active redeploy.  Legal before the flip (rolls back
     * with RollbackReason::Aborted, staged capacity released);
     * returns RedeployActive after the flip (the swap is already
     * serving; it completes through the drain), NoRedeploy when
     * nothing is in flight.
     */
    Status redeployAbort();

    /** Snapshot of the current (or last) redeploy.  Also polls the
     *  drain clock, so a deadline expiry is observed here too. */
    RedeployStatus redeployStatus();

    /**
     * Drive the active redeploy to its terminal phase.
     *
     * @return Background time the staging consumed (0 when no
     *         redeploy was active).
     */
    sim::Tick redeployRun();

    /** Current deploy epoch (bumped by weightDeploy and by every
     *  committed flip). */
    std::uint64_t deployEpoch() const { return deployEpoch_; }

    /** Monotone id of the weight version currently serving (0 before
     *  the first deployment). */
    std::uint64_t weightVersion() const { return live_.versionId; }

    // --- Sessions -------------------------------------------------

    /**
     * Start an explicit inference session bound to the current
     * deploy epoch.  Its calls report misuse via Status instead of
     * aborting; see InferenceSession for the staleness contract.
     */
    InferenceSession beginInference() { return InferenceSession(*this); }

    // --- Tenants --------------------------------------------------
    //
    // A production device serves several extreme-classification
    // models at once; each is a *tenant* with its own DRAM partition
    // (INT4 screener residency plus a hot-row cache byte quota
    // carved out of it), its own deploy epoch and redeploy state
    // machine, and its own metric/span namespace "tenant.<name>.*".
    // Every tenant-less call above operates on the implicit *default
    // tenant* — the device exactly as single-tenant code knows it —
    // so configs that never create a tenant stay byte-identical.

    /**
     * Admit one tenant: checks the partition ledger (the partitions
     * of all tenants must fit the device DRAM), carves the tenant's
     * engine — a DRAM partition sized to its dramBytes and a private
     * row cache sized to its cacheQuotaBytes, so the tenant can
     * never evict another tenant's rows past its quota — and enables
     * accelerator mode on it.
     *
     * @param config Partition/quota/SLO declaration.
     * @param[out] status Ok, or TenantQuotaExceeded when the
     *        partition does not fit (optional).
     * @return The admitted tenant; invalid on failure.
     */
    TenantHandle createTenant(const TenantConfig &config,
                              Status *status = nullptr);

    /** The tenant admission/partition ledger (empty when the device
     *  is single-tenant). */
    const TenantRegistry &
    tenantRegistry() const
    {
        return tenantRegistry_;
    }

    /**
     * Deploy a classification layer for one tenant (the tenant twin
     * of weightDeploy(), under the same deployHostBudgetBytes).  The
     * tenant's INT4 screener plus its cache quota must fit its DRAM
     * partition: TenantQuotaExceeded without touching the device
     * otherwise; UnknownTenant for a handle that names no admitted
     * tenant.
     *
     * @param[out] deploy_time Simulated deployment time, valid only
     *        on Ok.
     */
    Status weightDeploy(
        TenantHandle tenant, const numeric::FloatMatrix &weights,
        const xclass::BenchmarkSpec &spec, sim::Tick &deploy_time,
        const numeric::FloatMatrix *trained_projection = nullptr);

    /**
     * Start an inference session on one tenant's engine, bound to
     * *that tenant's* deploy epoch: the tenant's own weightDeploy()
     * turns it stale; other tenants' deployments never do.
     *
     * @param[out] status UnknownTenant for a bad handle (optional).
     * @return The session, or nullopt on failure.
     */
    std::optional<InferenceSession> beginInference(
        TenantHandle tenant, Status *status = nullptr);

    /** Begin a staged online redeploy on one tenant's engine (the
     *  tenant twin of redeployBegin(), with the tenant weight
     *  deploy's quota guards). */
    Status redeployBegin(
        TenantHandle tenant, const numeric::FloatMatrix &weights,
        const xclass::BenchmarkSpec &spec,
        const RedeployConfig &config = RedeployConfig{},
        const numeric::FloatMatrix *trained_projection = nullptr);

    /** Advance one tenant's active redeploy one step. */
    Status redeployAdvance(TenantHandle tenant);

    /**
     * Drive one tenant's active redeploy to its terminal phase.
     *
     * @param[out] background_time Staging background time, valid
     *        only on Ok.
     */
    Status redeployRun(TenantHandle tenant,
                       sim::Tick &background_time);

    /**
     * One tenant's current deploy epoch.
     *
     * @param[out] epoch Valid only on Ok.
     */
    Status deployEpoch(TenantHandle tenant,
                       std::uint64_t &epoch) const;

    /**
     * One tenant's engine: a full EcssdApi bound to the tenant's
     * DRAM partition and cache quota (nullptr for unknown handles).
     * The serving layer builds per-tenant servers over this; tests
     * reach the tenant's system()/rowCache through it.
     */
    EcssdApi *tenantEngine(TenantHandle tenant);

    /**
     * Snapshot the tenant layer into @p registry: the partition
     * ledger ("tenant.count", "tenant.committed_bytes", per-tenant
     * partition/quota/deploy gauges) plus each tenant's deploy epoch,
     * weight version, and service time under its namespace.  No-op
     * while no tenant is admitted, so single-tenant metric dumps stay
     * byte-identical.
     */
    void publishTenantMetrics(sim::MetricsRegistry &registry);

    // --- SSD mode -------------------------------------------------

    /** Write one logical page in SSD mode; returns completion tick. */
    sim::Tick ssdWrite(ssdsim::LogicalPage lpa);

    /** Read one logical page in SSD mode; returns completion tick. */
    sim::Tick ssdRead(ssdsim::LogicalPage lpa);

    // --- Introspection -------------------------------------------

    /** Accelerator-mode system (valid after weightDeploy). */
    EcssdSystem &system() { return *live_.system; }

    /** SSD-mode system (valid after the first ssdWrite). */
    EcssdSystem &ssdSystem() { return *ssdMode_; }

    /**
     * Attach (or detach, with nullptr) observability sinks: forwarded
     * to the live system (pipeline/device instrumentation) and to the
     * redeploy machine ("redeploy.<phase>" spans, redeploy.commits /
     * redeploy.rollbacks counters, redeploy.phase gauge).  Survives
     * epoch flips — the new live version is re-instrumented at the
     * flip.
     */
    void attachObservability(sim::MetricsRegistry *metrics,
                             sim::SpanTracer *spans);

    /** Snapshot redeploy state ("redeploy.*" gauges) into
     *  @p registry; no-op when no redeploy was ever begun, keeping
     *  metrics of never-redeploying runs byte-identical. */
    void publishRedeployMetrics(sim::MetricsRegistry &registry);

    /** Snapshot the most recent streaming deploy ("deploy.*"
     *  gauges: wall-time, peak/budget host bytes, spill volume)
     *  into @p registry; no-op while streamingDeploy() is null. */
    void publishDeployMetrics(sim::MetricsRegistry &registry);

    /**
     * Snapshot the live screener's tuned kernel plan ("kernel.*"
     * gauges: ISA level, row chunk, query tile, measured ns/row)
     * into @p registry; no-op before the first weightDeploy().
     * Explicit — never part of publishMetrics() — because the
     * ns/row gauge is wall-clock and would break byte-identical
     * metric goldens across machines and ISA levels.
     */
    void publishKernelMetrics(sim::MetricsRegistry &registry);

    /** Cumulative service time of this API (classify latencies plus
     *  background redeploy work); the clock drain deadlines are
     *  measured against. */
    sim::Tick serviceTime() const { return serviceClock_; }

  private:
    friend class InferenceSession;

    /** Sessions screen by the deployed threshold, with the
     *  top-ratio guard band (screenCandidates()). */
    static constexpr xclass::FilterMode kScreenMode =
        xclass::FilterMode::Threshold;

    /** One admitted tenant's backing engine: a private EcssdApi over
     *  a DRAM partition of this device, plus the persistent scoped
     *  metrics view its instrumentation writes through. */
    struct TenantEngine
    {
        std::string name;
        /** "tenant.<name>." — metric and span prefix. */
        std::string ns;
        /** Scoped view over the user's registry (null until
         *  attachObservability provides one).  Declared before the
         *  engine so it outlives the engine's teardown. */
        std::unique_ptr<sim::MetricsRegistry> metricsView;
        std::unique_ptr<EcssdApi> api;
        /** Weight version the registry ledger last charged for
         *  (0 = none): syncTenantCharge() re-charges on change. */
        std::uint64_t chargedVersion = 0;
    };

    void requireAccelerator(const char *api) const;
    void requireDeployed(const char *api) const;

    /** The tenant's engine, reporting UnknownTenant into @p status
     *  (when given) for a bad handle; nullptr on failure. */
    EcssdApi *resolveTenant(TenantHandle tenant, Status *status);

    /** Pre-check a tenant deploy: @p spec's INT4 screener plus the
     *  tenant's cache quota must fit its DRAM partition. */
    Status tenantDeployFits(TenantHandle tenant,
                            const xclass::BenchmarkSpec &spec) const;

    /** Mirror the tenant engine's serving screener residency into
     *  the partition ledger once per weight version. */
    void syncTenantCharge(TenantHandle tenant);

    /** The version serving @p epoch: the live one, or the draining
     *  one while its drain window is open; nullptr once stale. */
    DeployedVersion *resolve(std::uint64_t epoch);

    /** Session-count bookkeeping (InferenceSession ctor/dtor/move). */
    void sessionOpened(std::uint64_t epoch);
    void sessionClosed(std::uint64_t epoch);

    /** Open sessions bound to @p epoch. */
    std::uint64_t openSessions(std::uint64_t epoch) const;

    /** Flip the epoch: staged becomes live, live starts draining. */
    void flipEpoch();

    /** Check the drain: commit when the last old session closed,
     *  commit-or-rollback when the deadline expired. */
    void pollDrain();

    /** Commit: reclaim the draining version's capacity. */
    void commitRedeploy();

    EcssdOptions options_;
    Mode mode_ = Mode::Ssd;
    /**
     * SSD-mode system.  Kept separately so block data written in SSD
     * mode survives accelerator deployments: the weights occupy a
     * reserved address range, not the user's logical space.
     */
    std::unique_ptr<EcssdSystem> ssdMode_;

    /** The serving version (accelerator mode). */
    DeployedVersion live_;
    /** The previous version, serving old-epoch sessions during a
     *  drain; reclaimed at commit. */
    std::unique_ptr<DeployedVersion> draining_;
    /** The staged-redeploy driver (and its recent-query ring). */
    RedeployDriver redeploy_{kScreenMode};
    /** Service tick of the last epoch flip (drain start). */
    sim::Tick flippedAt_ = 0;
    /** Drain duration so far (frozen at the terminal phase). */
    sim::Tick drainElapsed_ = 0;

    /** The currently-serving epoch (what new sessions bind to). */
    std::uint64_t deployEpoch_ = 0;
    /**
     * Monotone epoch source.  Separate from deployEpoch_: a post-flip
     * rollback restores deployEpoch_ to the old value, but the burned
     * epoch is never reissued — sessions bound to a rolled-back
     * version must stay stale forever.
     */
    std::uint64_t epochCounter_ = 0;
    /** Monotone weight-version id source. */
    std::uint64_t versionCounter_ = 0;
    /** Open InferenceSessions per epoch. */
    std::map<std::uint64_t, std::uint64_t> openSessions_;
    /** Cumulative service clock (classify latencies + redeploy
     *  background work); drains are deadlined against it. */
    sim::Tick serviceClock_ = 0;
    /** Optional observability sinks (null = uninstrumented). */
    sim::MetricsRegistry *metrics_ = nullptr;
    sim::SpanTracer *spans_ = nullptr;
    /** Most recent deploy's streaming outcome (layout released). */
    std::optional<StreamingDeployResult> lastStreaming_;
    /** Tenant admission/partition ledger (budget: the device DRAM). */
    TenantRegistry tenantRegistry_;
    /** Admitted tenants' engines, id-ordered (deterministic). */
    std::map<TenantId, TenantEngine> tenantEngines_;
    /** Set on engines created by createTenant: an engine hosts no
     *  tenants of its own (one level of partitioning). */
    bool isTenantEngine_ = false;
    /** Span-name prefix this engine stamps while its device-side
     *  work runs ("" for the default tenant: tracer untouched). */
    std::string spanNamespace_;
};

} // namespace ecssd

#endif // ECSSD_ECSSD_API_HH
