#include "api.hh"

#include <algorithm>

#include "numeric/kernels.hh"
#include "sim/logging.hh"
#include "xclass/metrics.hh"

namespace ecssd
{

const char *
toString(Status status)
{
    switch (status) {
    case Status::Ok:
        return "ok";
    case Status::Degraded:
        return "degraded";
    case Status::TimedOut:
        return "timed-out";
    case Status::Shed:
        return "shed";
    case Status::WrongMode:
        return "wrong-mode";
    case Status::NotDeployed:
        return "not-deployed";
    case Status::MissingInput:
        return "missing-input";
    case Status::NotScreened:
        return "not-screened";
    case Status::NotClassified:
        return "not-classified";
    case Status::DimensionMismatch:
        return "dimension-mismatch";
    case Status::StaleSession:
        return "stale-session";
    case Status::RedeployActive:
        return "redeploy-active";
    case Status::NoRedeploy:
        return "no-redeploy";
    case Status::UnknownTenant:
        return "unknown-tenant";
    case Status::TenantQuotaExceeded:
        return "tenant-quota-exceeded";
    }
    return "?";
}

// --- InferenceSession ------------------------------------------------

InferenceSession::InferenceSession(EcssdApi &api)
    : api_(&api), epoch_(api.deployEpoch_)
{
    api_->sessionOpened(epoch_);
}

InferenceSession::InferenceSession(InferenceSession &&other) noexcept
    : api_(other.api_), epoch_(other.epoch_),
      feature_(std::move(other.feature_)),
      int4Sent_(other.int4Sent_), cfp32Sent_(other.cfp32Sent_),
      classified_(other.classified_),
      candidates_(std::move(other.candidates_)),
      scores_(std::move(other.scores_)), latency_(other.latency_)
{
    // The open-session registration moves with the state.
    other.api_ = nullptr;
}

InferenceSession &
InferenceSession::operator=(InferenceSession &&other) noexcept
{
    if (this != &other) {
        if (api_)
            api_->sessionClosed(epoch_);
        api_ = other.api_;
        epoch_ = other.epoch_;
        feature_ = std::move(other.feature_);
        int4Sent_ = other.int4Sent_;
        cfp32Sent_ = other.cfp32Sent_;
        classified_ = other.classified_;
        candidates_ = std::move(other.candidates_);
        scores_ = std::move(other.scores_);
        latency_ = other.latency_;
        other.api_ = nullptr;
    }
    return *this;
}

InferenceSession::~InferenceSession()
{
    if (api_)
        api_->sessionClosed(epoch_);
}

Status
InferenceSession::check() const
{
    if (api_->mode_ != Mode::Accelerator)
        return Status::WrongMode;
    if (!api_->live_.deployed())
        return Status::NotDeployed;
    if (!api_->resolve(epoch_))
        return Status::StaleSession;
    return Status::Ok;
}

Status
InferenceSession::sendInt4(std::span<const float> feature)
{
    if (const Status guard = check(); guard != Status::Ok)
        return guard;
    if (feature.size() != api_->resolve(epoch_)->spec.hiddenDim)
        return Status::DimensionMismatch;
    feature_.assign(feature.begin(), feature.end());
    int4Sent_ = true;
    // A new query starts here: drop the previous query's functional
    // state so a failed or repeated sequence can never serve stale
    // candidates or scores.
    candidates_.clear();
    scores_.clear();
    classified_ = false;
    // Feed the recent-query ring the next hot swap warms and
    // validates with.
    api_->redeploy_.recordQuery(feature_);
    return Status::Ok;
}

Status
InferenceSession::sendCfp32(std::span<const float> feature)
{
    if (const Status guard = check(); guard != Status::Ok)
        return guard;
    if (feature.size() != api_->resolve(epoch_)->spec.hiddenDim)
        return Status::DimensionMismatch;
    if (!int4Sent_ || feature_.size() != feature.size()
        || !std::equal(feature.begin(), feature.end(),
                       feature_.begin())) {
        feature_.assign(feature.begin(), feature.end());
    }
    cfp32Sent_ = true;
    classified_ = false;
    return Status::Ok;
}

Status
InferenceSession::screen()
{
    if (const Status guard = check(); guard != Status::Ok)
        return guard;
    if (!int4Sent_)
        return Status::MissingInput;
    // Screening restarts the candidate phase: any scores of a
    // previous classify() are stale from this point on.
    scores_.clear();
    classified_ = false;
    candidates_ = screenCandidates(api_->resolve(epoch_)->screener(),
                                   feature_, EcssdApi::kScreenMode);
    return Status::Ok;
}

Status
InferenceSession::classify()
{
    // The drain clock may have expired since the last call; settle
    // it first so the staleness answer below is current.
    api_->pollDrain();
    if (const Status guard = check(); guard != Status::Ok)
        return guard;
    if (!cfp32Sent_)
        return Status::MissingInput;
    if (candidates_.empty())
        return Status::NotScreened;

    DeployedVersion &version = *api_->resolve(epoch_);
    scores_ = version.classifier->candidateClassifier().scores(
        feature_, candidates_,
        xclass::CandidateClassifier::Datapath::Cfp32AlignmentFree);
    classified_ = true;

    // Device-side timing of the whole screened inference, on the
    // version this session is bound to (an old-epoch session keeps
    // running on the draining device).  A tenant engine stamps its
    // namespace onto every span this run opens.
    const sim::SpanPrefixScope prefixed(api_->spans_,
                                        api_->spanNamespace_);
    version.system->ssd().resetTimelines();
    accel::BatchTiming timing =
        version.system->pipeline().runBatch(candidates_, 0);
    latency_ = timing.latency();
    api_->serviceClock_ += latency_;
    api_->pollDrain();
    return Status::Ok;
}

Status
InferenceSession::results(
    std::size_t k, xclass::ApproximateClassifier::Prediction &out)
{
    if (const Status guard = check(); guard != Status::Ok)
        return guard;
    if (!classified_)
        return Status::NotClassified;

    out = {};
    out.candidateCount = candidates_.size();
    const std::vector<std::uint64_t> best = xclass::topKIndices(
        std::span<const double>(scores_), k);
    for (const std::uint64_t local : best) {
        out.topCategories.push_back(candidates_[local]);
        out.topScores.push_back(scores_[local]);
    }
    return Status::Ok;
}

// --- EcssdApi --------------------------------------------------------

EcssdApi::EcssdApi(const EcssdOptions &options)
    : options_(options), tenantRegistry_(options.ssd.dramBytes)
{
    // Pin the host-compute ISA up front so a bad request (option or
    // ECSSD_ISA) dies at construction, not mid-deploy.
    numeric::applyIsaRequest(options_.isa);
    // Admit the configured tenants; the builder/validate() already
    // checked each config and the partition sum, so a failure here
    // is a construction-time error, not a caller probe.
    for (const TenantConfig &tenant : options_.tenants) {
        Status status = Status::Ok;
        createTenant(tenant, &status);
        if (status != Status::Ok)
            sim::fatal("tenant '", tenant.name,
                       "' admission failed: ", toString(status));
    }
}

EcssdApi::~EcssdApi() = default;

void
EcssdApi::requireAccelerator(const char *api) const
{
    if (mode_ != Mode::Accelerator)
        sim::fatal(api, " requires accelerator mode; call "
                        "ecssdEnable() first");
}

void
EcssdApi::requireDeployed(const char *api) const
{
    if (!live_.deployed())
        sim::fatal(api, " requires deployed weights; call "
                        "weightDeploy() first");
}

DeployedVersion *
EcssdApi::resolve(std::uint64_t epoch)
{
    if (live_.deployed() && epoch == live_.epoch)
        return &live_;
    if (draining_ && draining_->deployed()
        && epoch == draining_->epoch)
        return draining_.get();
    return nullptr;
}

void
EcssdApi::sessionOpened(std::uint64_t epoch)
{
    ++openSessions_[epoch];
}

void
EcssdApi::sessionClosed(std::uint64_t epoch)
{
    const auto it = openSessions_.find(epoch);
    ECSSD_ASSERT(it != openSessions_.end() && it->second > 0,
                 "session close without a matching open");
    if (--it->second == 0)
        openSessions_.erase(it);
    // The last old-epoch session closing is what completes a drain.
    pollDrain();
}

std::uint64_t
EcssdApi::openSessions(std::uint64_t epoch) const
{
    const auto it = openSessions_.find(epoch);
    return it == openSessions_.end() ? 0 : it->second;
}

sim::Tick
EcssdApi::weightDeploy(const numeric::FloatMatrix &weights,
                       const xclass::BenchmarkSpec &spec,
                       const numeric::FloatMatrix *trained_projection)
{
    requireAccelerator("weightDeploy");
    ECSSD_ASSERT(weights.rows() == spec.categories
                     && weights.cols() == spec.hiddenDim,
                 "weights do not match the benchmark spec");
    ECSSD_ASSERT(spec.int4WeightBytes() <= options_.ssd.dramBytes,
                 "INT4 screener does not fit the SSD DRAM; "
                 "scale out (Section 7.1)");

    // Stop the world: a staged redeploy in flight is superseded (the
    // pre-flip path releases its staging capacity), and any draining
    // version is reclaimed immediately.
    if (redeploy_.machine().preFlip())
        redeploy_.rollback(live_, RollbackReason::Aborted, serviceClock_);
    else if (redeploy_.machine().active())
        redeploy_.machine().rollback(RollbackReason::Aborted,
                                     serviceClock_);
    draining_.reset();

    // Re-resolve the ISA request (ECSSD_ISA may have changed since
    // construction) before the screener captures its kernel plan.
    numeric::applyIsaRequest(options_.isa);

    // The timed system comes up before the placement streams: run
    // spills and merge reads go through its live FTL, so staging GC
    // and wear are real, not assumed.
    DeployedVersion version =
        buildVersion(weights, spec, options_, trained_projection);
    sim::Tick deploy_time = 0;
    if (options_.layoutKind == layout::LayoutKind::LearningAdaptive) {
        // Hot degrees come from the INT4 row masses (Section 5.3),
        // sorted out of core under the host budget.
        StreamingDeployConfig stream_config;
        stream_config.hostBudgetBytes = options_.deployHostBudgetBytes;
        stream_config.rowBytes =
            options_.weightPrecision == accel::WeightPrecision::Cfp16
            ? spec.hiddenDim * 2ULL
            : spec.rowBytes();
        stream_config.seed = options_.seed;
        stream_config.trainedProjection = trained_projection;
        const MatrixRowSource source(weights);
        lastStreaming_ = streamingWeightDeploy(
            source, spec.shrunkDim(), options_.ssd.channels,
            options_.ssd, stream_config, &version.system->ssd());
        // The device places page groups itself (EcssdSystem); the
        // streamed placement has no reader.
        lastStreaming_->layout.reset();
        deploy_time = lastStreaming_->deployTime;
    } else {
        lastStreaming_.reset();
        deploy_time = version.system->deployTimeEstimate();
    }

    // A new deployment invalidates every outstanding session; the
    // rebuilt system starts with an empty DRAM hot-row cache (the old
    // layer's rows are gone).
    version.epoch = ++epochCounter_;
    version.versionId = ++versionCounter_;
    deployEpoch_ = version.epoch;
    version.system->setDeployVersion(version.epoch,
                                     version.versionId);
    version.system->attachObservability(metrics_, spans_);
    live_ = std::move(version);
    return deploy_time;
}

void
EcssdApi::filterThreshold(double threshold)
{
    requireDeployed("filterThreshold");
    live_.screener().setThreshold(threshold);
}

void
EcssdApi::calibrateThreshold(
    const std::vector<std::vector<float>> &queries)
{
    requireDeployed("calibrateThreshold");
    live_.screener().calibrate(queries);
}

// --- Staged online redeploy ------------------------------------------

Status
EcssdApi::redeployBegin(const numeric::FloatMatrix &weights,
                        const xclass::BenchmarkSpec &spec,
                        const RedeployConfig &config,
                        const numeric::FloatMatrix *trained_projection)
{
    if (mode_ != Mode::Accelerator)
        return Status::WrongMode;
    if (!live_.deployed())
        return Status::NotDeployed;
    if (redeploy_.machine().active())
        return Status::RedeployActive;
    if (weights.rows() != spec.categories
        || weights.cols() != spec.hiddenDim)
        return Status::DimensionMismatch;
    flippedAt_ = 0;
    drainElapsed_ = 0;
    redeploy_.begin(live_, weights, spec, trained_projection, config,
                    options_, nullptr, versionCounter_ + 1,
                    serviceClock_);
    return Status::Ok;
}

Status
EcssdApi::redeployAdvance()
{
    if (!redeploy_.machine().active())
        return Status::NoRedeploy;
    const sim::SpanPrefixScope prefixed(spans_, spanNamespace_);
    if (redeploy_.machine().phase() == RedeployPhase::Draining) {
        // The background reclaim daemon's poll: service time passes
        // even when no request happens to arrive, so a drain always
        // reaches its deadline.
        serviceClock_ += redeploy_.config().drainPollInterval;
        pollDrain();
        return Status::Ok;
    }
    redeploy_.step(live_, serviceClock_);
    if (redeploy_.machine().phase() == RedeployPhase::Flipping)
        flipEpoch();
    return Status::Ok;
}

Status
EcssdApi::redeployAbort()
{
    if (!redeploy_.machine().active())
        return Status::NoRedeploy;
    if (!redeploy_.machine().preFlip())
        return Status::RedeployActive;
    redeploy_.rollback(live_, RollbackReason::Aborted, serviceClock_);
    return Status::Ok;
}

RedeployStatus
EcssdApi::redeployStatus()
{
    pollDrain();
    RedeployStatus status = redeploy_.status();
    status.inFlightOldSessions =
        flippedAt_ > 0 || status.phase == RedeployPhase::Draining
        ? openSessions(status.oldEpoch)
        : 0;
    status.drainElapsed = drainElapsed_;
    return status;
}

sim::Tick
EcssdApi::redeployRun()
{
    if (!redeploy_.machine().active())
        return 0;
    while (redeploy_.machine().active())
        redeployAdvance();
    return redeploy_.status().stagingTime;
}

void
EcssdApi::flipEpoch()
{
    draining_ = std::make_unique<DeployedVersion>(std::move(live_));
    live_ = redeploy_.flip(*draining_, ++epochCounter_);
    versionCounter_ = live_.versionId;
    deployEpoch_ = live_.epoch;
    live_.system->setDeployVersion(live_.epoch, live_.versionId);
    live_.system->attachObservability(metrics_, spans_);
    flippedAt_ = serviceClock_;

    redeploy_.machine().advanceTo(RedeployPhase::Draining,
                                  serviceClock_);
    pollDrain();
}

void
EcssdApi::pollDrain()
{
    if (redeploy_.machine().phase() != RedeployPhase::Draining)
        return;
    drainElapsed_ = serviceClock_ - flippedAt_;
    if (!draining_ || openSessions(draining_->epoch) == 0) {
        commitRedeploy();
        return;
    }
    const RedeployConfig &config = redeploy_.config();
    if (drainElapsed_ < config.drainDeadline)
        return;
    if (!config.drainTimeoutRollsBack) {
        commitRedeploy();
        return;
    }
    // The strict policy restores the old version as live.  Sessions
    // bound to the rolled-back epoch turn stale; old-epoch sessions
    // resume seamlessly — no request ever fails.
    live_ = std::move(*draining_);
    draining_.reset();
    deployEpoch_ = live_.epoch;
    live_.system->attachObservability(metrics_, spans_);
    redeploy_.machine().rollback(RollbackReason::DrainTimeout,
                                 serviceClock_);
}

void
EcssdApi::commitRedeploy()
{
    redeploy_.machine().advanceTo(RedeployPhase::Committed,
                                  serviceClock_);
    // Reclaim the old version's capacity (its device, DRAM
    // residency, and cache go with it); any session still bound to
    // the old epoch is stale from here on.
    draining_.reset();
}

void
EcssdApi::attachObservability(sim::MetricsRegistry *metrics,
                              sim::SpanTracer *spans)
{
    metrics_ = metrics;
    spans_ = spans;
    if (live_.system)
        live_.system->attachObservability(metrics, spans);
    redeploy_.machine().attachObservability(metrics, spans);
    // Tenant engines observe through per-tenant scoped views, so
    // every counter/gauge/histogram they record lands in the user's
    // registry under "tenant.<name>."; spans share the user's tracer
    // and are prefixed at emission (sim::SpanPrefixScope).  Re-attach
    // before dropping the old view: the engine must never hold a
    // dangling registry pointer.
    for (auto &[id, engine] : tenantEngines_) {
        std::unique_ptr<sim::MetricsRegistry> view;
        if (metrics)
            view = std::make_unique<sim::MetricsRegistry>(
                *metrics, engine.ns);
        engine.api->attachObservability(view.get(), spans);
        engine.metricsView = std::move(view);
    }
}

void
EcssdApi::publishRedeployMetrics(sim::MetricsRegistry &registry)
{
    const RedeployMachine &machine = redeploy_.machine();
    if (machine.phase() == RedeployPhase::Idle)
        return;
    const RedeployStatus status = redeployStatus();
    registry.gaugeSet("redeploy.phase",
                      static_cast<double>(status.phase));
    registry.gaugeSet("redeploy.staged_bytes",
                      static_cast<double>(status.stagedBytes));
    registry.gaugeSet("redeploy.total_bytes",
                      static_cast<double>(status.totalBytes));
    registry.gaugeSet("redeploy.validation_recall",
                      status.validationRecall);
    registry.gaugeSet("redeploy.staging_ms",
                      sim::tickToMs(status.stagingTime));
    registry.gaugeSet("redeploy.drain_ms",
                      sim::tickToMs(status.drainElapsed));
    registry.gaugeSet("redeploy.committed",
                      static_cast<double>(machine.commits()));
    registry.gaugeSet("redeploy.rolled_back",
                      static_cast<double>(machine.rollbacks()));
}

void
EcssdApi::publishDeployMetrics(sim::MetricsRegistry &registry)
{
    if (!lastStreaming_)
        return;
    const StreamingDeployResult &outcome = *lastStreaming_;
    registry.gaugeSet("deploy.streaming_ms",
                      sim::tickToMs(outcome.deployTime));
    registry.gaugeSet("deploy.host_peak_bytes",
                      static_cast<double>(outcome.hostPeakBytes));
    registry.gaugeSet("deploy.host_budget_bytes",
                      static_cast<double>(outcome.hostBudgetBytes));
    registry.gaugeSet("deploy.runs_spilled",
                      static_cast<double>(outcome.runsSpilled));
    registry.gaugeSet("deploy.spill_pages_written",
                      static_cast<double>(outcome.spillPagesWritten));
    registry.gaugeSet("deploy.spill_pages_read",
                      static_cast<double>(outcome.spillPagesRead));
    registry.gaugeSet("deploy.rows_placed",
                      static_cast<double>(outcome.rowsPlaced));
}

void
EcssdApi::publishKernelMetrics(sim::MetricsRegistry &registry)
{
    if (!live_.deployed())
        return;
    const numeric::KernelPlan &plan = live_.screener().kernelPlan();
    registry.gaugeSet("kernel.isa",
                      static_cast<double>(static_cast<int>(plan.isa)));
    registry.gaugeSet("kernel.rows", static_cast<double>(plan.rows));
    registry.gaugeSet("kernel.cols", static_cast<double>(plan.cols));
    registry.gaugeSet("kernel.row_chunk",
                      static_cast<double>(plan.rowChunk));
    registry.gaugeSet("kernel.query_tile",
                      static_cast<double>(plan.queryTile));
    registry.gaugeSet("kernel.ns_per_row", plan.nsPerRow);
    registry.gaugeSet("kernel.candidates",
                      static_cast<double>(plan.candidates.size()));
}

// --- Tenants ---------------------------------------------------------

TenantHandle
EcssdApi::createTenant(const TenantConfig &config, Status *status)
{
    if (isTenantEngine_)
        sim::fatal("createTenant on a tenant engine: tenants do not "
                   "nest (one level of DRAM partitioning)");
    TenantHandle handle;
    const Status admitted = tenantRegistry_.admit(config, handle);
    if (status)
        *status = admitted;
    if (admitted != Status::Ok)
        return TenantHandle{};

    // The tenant's engine is a full device stack over its partition:
    // the DRAM budget is cut to the partition and the row cache is
    // sized to the byte quota, so quota isolation is mechanical —
    // this tenant's cache *cannot* hold a byte past its quota, and
    // its screener residency is reserve()-checked against its own
    // partition, never the neighbours'.
    TenantEngine engine;
    engine.name = config.name;
    engine.ns = config.metricNamespace();
    engine.api = std::make_unique<EcssdApi>(*tenantOptions(options_, config));
    engine.api->isTenantEngine_ = true;
    engine.api->spanNamespace_ = engine.ns;
    // Tenant work is accelerator-mode by definition.
    engine.api->ecssdEnable();
    if (metrics_)
        engine.metricsView = std::make_unique<sim::MetricsRegistry>(
            *metrics_, engine.ns);
    engine.api->attachObservability(engine.metricsView.get(),
                                    spans_);
    tenantEngines_.emplace(handle.id(), std::move(engine));
    return handle;
}

EcssdApi *
EcssdApi::resolveTenant(TenantHandle tenant, Status *status)
{
    const auto it = tenant.valid()
        ? tenantEngines_.find(tenant.id())
        : tenantEngines_.end();
    if (it == tenantEngines_.end()) {
        if (status)
            *status = Status::UnknownTenant;
        return nullptr;
    }
    if (status)
        *status = Status::Ok;
    return it->second.api.get();
}

EcssdApi *
EcssdApi::tenantEngine(TenantHandle tenant)
{
    return resolveTenant(tenant, nullptr);
}

Status
EcssdApi::tenantDeployFits(TenantHandle tenant,
                           const xclass::BenchmarkSpec &spec) const
{
    const TenantRegistry::Entry *entry =
        tenantRegistry_.entry(tenant);
    if (!entry)
        return Status::UnknownTenant;
    return tenantOptions(options_, entry->config, &spec)
        ? Status::Ok
        : Status::TenantQuotaExceeded;
}

void
EcssdApi::syncTenantCharge(TenantHandle tenant)
{
    TenantEngine &engine = tenantEngines_.at(tenant.id());
    const EcssdApi &api = *engine.api;
    if (!api.live_.deployed()
        || api.live_.versionId == engine.chargedVersion)
        return;
    tenantRegistry_.chargeScreener(
        tenant, screenerDramBytes(options_, api.live_.spec));
    engine.chargedVersion = api.live_.versionId;
}

Status
EcssdApi::weightDeploy(TenantHandle tenant,
                       const numeric::FloatMatrix &weights,
                       const xclass::BenchmarkSpec &spec,
                       sim::Tick &deploy_time,
                       const numeric::FloatMatrix *trained_projection)
{
    Status status = Status::Ok;
    EcssdApi *engine = resolveTenant(tenant, &status);
    if (!engine)
        return status;
    if (const Status fit = tenantDeployFits(tenant, spec);
        fit != Status::Ok)
        return fit;
    deploy_time =
        engine->weightDeploy(weights, spec, trained_projection);
    syncTenantCharge(tenant);
    return Status::Ok;
}

std::optional<InferenceSession>
EcssdApi::beginInference(TenantHandle tenant, Status *status)
{
    EcssdApi *engine = resolveTenant(tenant, status);
    if (!engine)
        return std::nullopt;
    return std::optional<InferenceSession>(engine->beginInference());
}

Status
EcssdApi::redeployBegin(TenantHandle tenant,
                        const numeric::FloatMatrix &weights,
                        const xclass::BenchmarkSpec &spec,
                        const RedeployConfig &config,
                        const numeric::FloatMatrix *trained_projection)
{
    Status status = Status::Ok;
    EcssdApi *engine = resolveTenant(tenant, &status);
    if (!engine)
        return status;
    if (const Status fit = tenantDeployFits(tenant, spec);
        fit != Status::Ok)
        return fit;
    return engine->redeployBegin(weights, spec, config,
                                 trained_projection);
}

Status
EcssdApi::redeployAdvance(TenantHandle tenant)
{
    Status status = Status::Ok;
    EcssdApi *engine = resolveTenant(tenant, &status);
    if (!engine)
        return status;
    const Status advanced = engine->redeployAdvance();
    syncTenantCharge(tenant);
    return advanced;
}

Status
EcssdApi::redeployRun(TenantHandle tenant,
                      sim::Tick &background_time)
{
    Status status = Status::Ok;
    EcssdApi *engine = resolveTenant(tenant, &status);
    if (!engine)
        return status;
    background_time = engine->redeployRun();
    syncTenantCharge(tenant);
    return Status::Ok;
}

Status
EcssdApi::deployEpoch(TenantHandle tenant,
                      std::uint64_t &epoch) const
{
    const TenantRegistry::Entry *entry =
        tenantRegistry_.entry(tenant);
    if (!entry)
        return Status::UnknownTenant;
    epoch = tenantEngines_.at(tenant.id()).api->deployEpoch();
    return Status::Ok;
}

void
EcssdApi::publishTenantMetrics(sim::MetricsRegistry &registry)
{
    if (tenantEngines_.empty())
        return;
    tenantRegistry_.publishMetrics(registry);
    for (auto &[id, engine] : tenantEngines_) {
        sim::MetricsRegistry view(registry, engine.ns);
        EcssdApi &api = *engine.api;
        view.gaugeSet("deploy_epoch",
                      static_cast<double>(api.deployEpoch()));
        view.gaugeSet("weight_version",
                      static_cast<double>(api.weightVersion()));
        view.gaugeSet("service_time_ms",
                      sim::tickToMs(api.serviceTime()));
        api.publishRedeployMetrics(view);
        api.publishDeployMetrics(view);
    }
}

// --- SSD mode --------------------------------------------------------

sim::Tick
EcssdApi::ssdWrite(ssdsim::LogicalPage lpa)
{
    if (mode_ != Mode::Ssd)
        sim::fatal("ssdWrite requires SSD mode");
    if (!ssdMode_)
        ssdMode_ = std::make_unique<EcssdSystem>(
            xclass::BenchmarkSpec{"ssd-mode", 2, 8}, options_);
    sim::Tick done = 0;
    ssdMode_->ssd().hostWrite(lpa,
                              [&done](sim::Tick t) { done = t; });
    ssdMode_->ssd().queue().run();
    return done;
}

sim::Tick
EcssdApi::ssdRead(ssdsim::LogicalPage lpa)
{
    if (mode_ != Mode::Ssd)
        sim::fatal("ssdRead requires SSD mode");
    if (!ssdMode_)
        sim::fatal("ssdRead of empty device");
    sim::Tick done = 0;
    ssdMode_->ssd().hostRead(lpa,
                             [&done](sim::Tick t) { done = t; });
    ssdMode_->ssd().queue().run();
    return done;
}

} // namespace ecssd
