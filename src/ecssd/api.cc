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

namespace
{

/**
 * RAII span-name prefix for one tenant engine's device-side work:
 * every span a pipeline/redeploy call opens while the scope is alive
 * carries the tenant namespace.  A null tracer or empty prefix (the
 * default tenant) touches nothing, so single-tenant span dumps stay
 * byte-identical.
 */
class SpanPrefixScope
{
  public:
    SpanPrefixScope(sim::SpanTracer *tracer,
                    const std::string &prefix)
        : tracer_(prefix.empty() ? nullptr : tracer)
    {
        if (tracer_) {
            saved_ = tracer_->namePrefix();
            tracer_->setNamePrefix(prefix);
        }
    }

    ~SpanPrefixScope()
    {
        if (tracer_)
            tracer_->setNamePrefix(saved_);
    }

    SpanPrefixScope(const SpanPrefixScope &) = delete;
    SpanPrefixScope &operator=(const SpanPrefixScope &) = delete;

  private:
    sim::SpanTracer *tracer_;
    std::string saved_;
};

/** Recent-query ring capacity (warm-up / validation material). */
constexpr std::size_t kRecentQueryCapacity = 32;

/** Staged probe programs run per staging advance step. */
constexpr unsigned kProbesPerStep = 4;

/**
 * The deployed screening policy: threshold filtering with the
 * top-ratio guard band when the threshold passes nothing (the same
 * fallback InferenceSession::screen() serves with).
 */
std::vector<std::uint64_t>
screenWithFallback(xclass::Screener &screener,
                   std::span<const float> feature)
{
    std::vector<std::uint64_t> rows =
        screener.screen(feature, xclass::FilterMode::Threshold);
    if (rows.empty())
        rows = screener.screen(feature, xclass::FilterMode::TopRatio);
    return rows;
}

/**
 * Shadow-scoring recall of @p staged against @p live on one query:
 * the fraction of the live screener's candidates the staged screener
 * also selects.  1.0 when the live screener selects nothing (there
 * is nothing to miss).
 */
double
screenerRecall(xclass::Screener &live, xclass::Screener &staged,
               std::span<const float> query)
{
    const std::vector<std::uint64_t> live_rows =
        screenWithFallback(live, query);
    if (live_rows.empty())
        return 1.0;
    const std::vector<std::uint64_t> staged_rows =
        screenWithFallback(staged, query);
    std::vector<std::uint64_t> common;
    std::set_intersection(live_rows.begin(), live_rows.end(),
                          staged_rows.begin(), staged_rows.end(),
                          std::back_inserter(common));
    return static_cast<double>(common.size())
        / static_cast<double>(live_rows.size());
}

} // namespace

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
    const EcssdApi::DeployedVersion &version =
        *api_->resolve(epoch_);
    if (feature.size() != version.spec->hiddenDim)
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
    api_->recordQuery(feature_);
    return Status::Ok;
}

Status
InferenceSession::sendCfp32(std::span<const float> feature)
{
    if (const Status guard = check(); guard != Status::Ok)
        return guard;
    const EcssdApi::DeployedVersion &version =
        *api_->resolve(epoch_);
    if (feature.size() != version.spec->hiddenDim)
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
    EcssdApi::DeployedVersion &version = *api_->resolve(epoch_);
    // Screening restarts the candidate phase: any scores of a
    // previous classify() are stale from this point on.
    scores_.clear();
    classified_ = false;
    candidates_ = version.screener->screen(
        feature_, xclass::FilterMode::Threshold);
    // A threshold that filters nothing would stall the FP32 stage;
    // fall back to top-ratio selection as the deployed system's
    // guard band.
    if (candidates_.empty())
        candidates_ = version.screener->screen(
            feature_, xclass::FilterMode::TopRatio);
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

    EcssdApi::DeployedVersion &version = *api_->resolve(epoch_);
    scores_ = version.classifier->scores(
        feature_, candidates_,
        xclass::CandidateClassifier::Datapath::Cfp32AlignmentFree);
    classified_ = true;

    // Device-side timing of the whole screened inference, on the
    // version this session is bound to (an old-epoch session keeps
    // running on the draining device).  A tenant engine stamps its
    // namespace onto every span this run opens.
    const SpanPrefixScope prefixed(api_->spans_,
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

EcssdApi::DeployedVersion *
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

void
EcssdApi::recordQuery(const std::vector<float> &feature)
{
    if (recentQueries_.size() < kRecentQueryCapacity) {
        recentQueries_.push_back(feature);
        return;
    }
    recentQueries_[recentCursor_] = feature;
    recentCursor_ = (recentCursor_ + 1) % kRecentQueryCapacity;
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
    if (redeploy_ && redeploy_->machine.active()) {
        if (redeploy_->machine.preFlip()) {
            rollbackRedeploy(RollbackReason::Aborted);
        } else {
            redeploy_->machine.rollback(RollbackReason::Aborted,
                                        serviceClock_);
            ++redeployRollbacks_;
        }
    }
    draining_.reset();

    // Re-resolve the ISA request (ECSSD_ISA may have changed since
    // construction) before the screener captures its kernel plan.
    numeric::applyIsaRequest(options_.isa);

    // The timed system comes up before the placement streams: run
    // spills and merge reads go through its live FTL, so staging GC
    // and wear are real, not assumed.
    DeployedVersion version =
        buildVersion(weights, spec, trained_projection);
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
    live_.screener->setThreshold(threshold);
}

void
EcssdApi::calibrateThreshold(
    const std::vector<std::vector<float>> &queries)
{
    requireDeployed("calibrateThreshold");
    live_.screener->calibrate(queries);
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
    if (redeploy_ && redeploy_->machine.active())
        return Status::RedeployActive;
    if (weights.rows() != spec.categories
        || weights.cols() != spec.hiddenDim)
        return Status::DimensionMismatch;
    config.validate();

    redeploy_ = std::make_unique<StagedRedeploy>();
    StagedRedeploy &r = *redeploy_;
    r.config = config;
    r.weights = &weights;
    r.spec = spec;
    r.projection = trained_projection;
    r.oldEpoch = live_.epoch;
    r.version.versionId = versionCounter_ + 1;
    r.machine.attachObservability(metrics_, spans_);
    r.machine.begin(serviceClock_);

    // The staged INT4 screener claims the live device's leftover
    // DRAM for the duration of the swap; not fitting is the graceful
    // DramPressure rollback, not an abort.
    if (options_.int4Placement == accel::Int4Placement::Dram) {
        const std::uint64_t staged_bytes = spec.int4WeightBytes();
        if (!live_.system->ssd().dram().tryReserve(staged_bytes)) {
            rollbackRedeploy(RollbackReason::DramPressure);
            return Status::Ok;
        }
        r.stagedReserveBytes = staged_bytes;
    }

    // Price the staging: the stop-the-world deploy time of the new
    // footprint, stretched by the IO-budget fraction.
    sim::Tick full_time = 0;
    try {
        full_time = estimateDeployTime(spec, options_.ssd);
    } catch (const sim::FatalError &) {
        rollbackRedeploy(RollbackReason::DramPressure);
        return Status::Ok;
    } catch (const sim::PanicError &) {
        // The INT4 footprint overruns the device DRAM entirely
        // (ECSSD_ASSERT in the estimate): same graceful outcome.
        rollbackRedeploy(RollbackReason::DramPressure);
        return Status::Ok;
    }
    r.ledger.reset(spec.int4WeightBytes() + spec.fp32WeightBytes(),
                   full_time, config.ioBudgetFraction,
                   config.stepBytes);

    // Probe targets: the top of the live device's logical space (the
    // staging area's flash).  Real programs + verify-reads there
    // surface the media faults foreground traffic would see.
    ssdsim::Ftl &ftl = live_.system->ssd().ftl();
    const std::uint64_t probes = std::min<std::uint64_t>(
        config.stagingProbePages, ftl.logicalPages());
    for (std::uint64_t i = 0; i < probes; ++i)
        r.probePages.push_back(ftl.logicalPages() - 1 - i);
    return Status::Ok;
}

Status
EcssdApi::redeployAdvance()
{
    if (!redeploy_ || !redeploy_->machine.active())
        return Status::NoRedeploy;
    const SpanPrefixScope prefixed(spans_, spanNamespace_);
    StagedRedeploy &r = *redeploy_;

    switch (r.machine.phase()) {
    case RedeployPhase::Staging: {
        // Staging stops the moment the device latches read-only —
        // a read-only device can never accept the staged version.
        if (live_.system->ssd().ftl().readOnly()) {
            rollbackRedeploy(RollbackReason::DeviceReadOnly);
            return Status::Ok;
        }
        RollbackReason reason = RollbackReason::None;
        if (!stageProbePages(live_.system->ssd().ftl(), r.probePages,
                             r.probeCursor, kProbesPerStep,
                             serviceClock_, reason)) {
            rollbackRedeploy(reason);
            return Status::Ok;
        }
        // One budgeted chunk of background program time.
        serviceClock_ += r.ledger.step();
        if (!r.ledger.done())
            return Status::Ok;
        // Finish the probe tail before declaring staging complete.
        if (!stageProbePages(
                live_.system->ssd().ftl(), r.probePages,
                r.probeCursor,
                static_cast<unsigned>(r.probePages.size()),
                serviceClock_, reason)) {
            rollbackRedeploy(reason);
            return Status::Ok;
        }
        try {
            buildStagedVersion();
        } catch (const sim::FatalError &) {
            // The staged configuration is infeasible on this device
            // (screener/cache residency): roll back, keep serving.
            rollbackRedeploy(RollbackReason::DramPressure);
            return Status::Ok;
        } catch (const sim::PanicError &) {
            rollbackRedeploy(RollbackReason::DramPressure);
            return Status::Ok;
        }
        r.machine.advanceTo(RedeployPhase::Warming, serviceClock_);
        return Status::Ok;
    }
    case RedeployPhase::Warming:
        if (r.warmed < r.config.warmupQueries
            && r.warmed < recentQueries_.size()) {
            warmOneQuery();
        } else {
            r.machine.advanceTo(RedeployPhase::Validating,
                                serviceClock_);
        }
        return Status::Ok;
    case RedeployPhase::Validating: {
        const std::size_t target = std::min<std::size_t>(
            r.config.validationQueries, recentQueries_.size());
        if (r.validated < target) {
            validateOneQuery();
            return Status::Ok;
        }
        r.recall = r.validated > 0
            ? r.recallSum / static_cast<double>(r.validated)
            : 1.0;
        if (r.recall >= r.config.minValidationRecall)
            flipEpoch();
        else
            rollbackRedeploy(RollbackReason::ValidationRecall);
        return Status::Ok;
    }
    case RedeployPhase::Draining:
        // The background reclaim daemon's poll: service time passes
        // even when no request happens to arrive, so a drain always
        // reaches its deadline.
        serviceClock_ += r.config.drainPollInterval;
        pollDrain();
        return Status::Ok;
    default:
        return Status::NoRedeploy;
    }
}

Status
EcssdApi::redeployAbort()
{
    if (!redeploy_ || !redeploy_->machine.active())
        return Status::NoRedeploy;
    if (!redeploy_->machine.preFlip())
        return Status::RedeployActive;
    rollbackRedeploy(RollbackReason::Aborted);
    return Status::Ok;
}

RedeployStatus
EcssdApi::redeployStatus()
{
    pollDrain();
    RedeployStatus status;
    if (!redeploy_)
        return status;
    const StagedRedeploy &r = *redeploy_;
    status.phase = r.machine.phase();
    status.reason = r.machine.reason();
    status.stagedBytes = r.ledger.stagedBytes();
    status.totalBytes = r.ledger.totalBytes();
    status.validationRecall = r.recall;
    status.oldEpoch = r.oldEpoch;
    status.newEpoch = r.newEpoch;
    status.weightVersion = r.version.versionId;
    status.inFlightOldSessions =
        r.flippedAt > 0 || r.machine.phase() == RedeployPhase::Draining
        ? openSessions(r.oldEpoch)
        : 0;
    status.stagingTime = r.ledger.elapsed();
    status.drainElapsed = r.drainElapsed;
    return status;
}

sim::Tick
EcssdApi::redeployRun()
{
    if (!redeploy_ || !redeploy_->machine.active())
        return 0;
    while (redeploy_ && redeploy_->machine.active())
        redeployAdvance();
    return redeploy_ ? redeploy_->ledger.elapsed() : 0;
}

EcssdApi::DeployedVersion
EcssdApi::buildVersion(const numeric::FloatMatrix &weights,
                       const xclass::BenchmarkSpec &spec,
                       const numeric::FloatMatrix *trained_projection)
    const
{
    DeployedVersion version;
    version.weights = &weights;
    version.spec = spec;
    version.screener = std::make_unique<xclass::Screener>(
        weights, spec, options_.seed, trained_projection);
    version.classifier =
        std::make_unique<xclass::CandidateClassifier>(weights);
    version.system = std::make_unique<EcssdSystem>(spec, options_);
    return version;
}

void
EcssdApi::buildStagedVersion()
{
    StagedRedeploy &r = *redeploy_;
    DeployedVersion version =
        buildVersion(*r.weights, r.spec, r.projection);
    version.versionId = r.version.versionId;
    // The staged screener inherits the live screening policy so the
    // shadow-scoring compares weights, not thresholds.
    version.screener->setThreshold(live_.screener->threshold());
    r.version = std::move(version);
}

void
EcssdApi::warmOneQuery()
{
    StagedRedeploy &r = *redeploy_;
    const std::vector<float> &query = recentQueries_[r.warmed];
    ++r.warmed;
    // A query recorded under a different input width cannot replay.
    if (query.size() != r.spec.hiddenDim)
        return;
    const std::vector<std::uint64_t> rows =
        screenWithFallback(*r.version.screener, query);
    // Pre-fill the staged version's DRAM hot-row cache with the rows
    // this query would fetch, so the flip lands warm.
    r.version.system->pipeline().warmRows(rows, 0);
}

void
EcssdApi::validateOneQuery()
{
    StagedRedeploy &r = *redeploy_;
    const std::vector<float> &query = recentQueries_[r.validated];
    ++r.validated;
    if (query.size() != r.spec.hiddenDim
        || query.size() != live_.spec->hiddenDim) {
        // Not comparable across the swap; count it as full recall
        // rather than penalizing an input-width migration.
        r.recallSum += 1.0;
        return;
    }
    r.recallSum +=
        screenerRecall(*live_.screener, *r.version.screener, query);
}

void
EcssdApi::flipEpoch()
{
    StagedRedeploy &r = *redeploy_;
    r.machine.advanceTo(RedeployPhase::Flipping, serviceClock_);

    // The staging claims on the old device end here: the staged
    // version owns its own device from now on, and the old device
    // only has to serve its draining sessions.
    if (r.stagedReserveBytes > 0) {
        live_.system->ssd().dram().release(r.stagedReserveBytes);
        r.stagedReserveBytes = 0;
    }
    for (unsigned i = 0; i < r.probeCursor; ++i)
        live_.system->ssd().ftl().trim(r.probePages[i]);

    draining_ = std::make_unique<DeployedVersion>(std::move(live_));
    live_ = std::move(r.version);
    live_.epoch = ++epochCounter_;
    versionCounter_ = live_.versionId;
    deployEpoch_ = live_.epoch;
    r.newEpoch = live_.epoch;
    live_.system->setDeployVersion(live_.epoch, live_.versionId);
    live_.system->attachObservability(metrics_, spans_);
    r.flippedAt = serviceClock_;

    r.machine.advanceTo(RedeployPhase::Draining, serviceClock_);
    pollDrain();
}

void
EcssdApi::pollDrain()
{
    if (!redeploy_
        || redeploy_->machine.phase() != RedeployPhase::Draining)
        return;
    StagedRedeploy &r = *redeploy_;
    r.drainElapsed = serviceClock_ - r.flippedAt;
    if (!draining_ || openSessions(r.oldEpoch) == 0) {
        commitRedeploy();
        return;
    }
    if (r.drainElapsed >= r.config.drainDeadline) {
        if (r.config.drainTimeoutRollsBack)
            rollbackRedeploy(RollbackReason::DrainTimeout);
        else
            commitRedeploy();
    }
}

void
EcssdApi::commitRedeploy()
{
    StagedRedeploy &r = *redeploy_;
    r.machine.advanceTo(RedeployPhase::Committed, serviceClock_);
    ++redeployCommits_;
    // Reclaim the old version's capacity (its device, DRAM
    // residency, and cache go with it); any session still bound to
    // the old epoch is stale from here on.
    draining_.reset();
}

void
EcssdApi::rollbackRedeploy(RollbackReason reason)
{
    StagedRedeploy &r = *redeploy_;
    if (r.machine.preFlip()) {
        // Release the staging claims on the live device.
        if (r.stagedReserveBytes > 0) {
            live_.system->ssd().dram().release(r.stagedReserveBytes);
            r.stagedReserveBytes = 0;
        }
        for (unsigned i = 0; i < r.probeCursor; ++i)
            live_.system->ssd().ftl().trim(r.probePages[i]);
        r.version = DeployedVersion{};
    } else if (draining_) {
        // Post-flip: restore the old version as live.  Sessions
        // bound to the rolled-back epoch turn stale; old-epoch
        // sessions resume seamlessly — no request ever fails.
        r.drainElapsed = serviceClock_ - r.flippedAt;
        r.version = std::move(live_);
        live_ = std::move(*draining_);
        draining_.reset();
        deployEpoch_ = live_.epoch;
        live_.system->attachObservability(metrics_, spans_);
        // The staging probes live on the restored device; drop them.
        for (unsigned i = 0; i < r.probeCursor; ++i)
            live_.system->ssd().ftl().trim(r.probePages[i]);
    }
    r.machine.rollback(reason, serviceClock_);
    ++redeployRollbacks_;
}

void
EcssdApi::attachObservability(sim::MetricsRegistry *metrics,
                              sim::SpanTracer *spans)
{
    metrics_ = metrics;
    spans_ = spans;
    if (live_.system)
        live_.system->attachObservability(metrics, spans);
    if (redeploy_)
        redeploy_->machine.attachObservability(metrics, spans);
    // Tenant engines observe through per-tenant scoped views, so
    // every counter/gauge/histogram they record lands in the user's
    // registry under "tenant.<name>."; spans share the user's tracer
    // and are prefixed at emission (SpanPrefixScope).  Re-attach
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
    if (!redeploy_)
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
                      static_cast<double>(redeployCommits_));
    registry.gaugeSet("redeploy.rolled_back",
                      static_cast<double>(redeployRollbacks_));
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
    const numeric::KernelPlan &plan = live_.screener->kernelPlan();
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
    EcssdOptions engine_options = options_;
    engine_options.ssd.dramBytes = config.dramBytes;
    engine_options.cache.capacityBytes = config.cacheQuotaBytes;
    engine_options.tenants.clear();

    TenantEngine engine;
    engine.name = config.name;
    engine.ns = config.metricNamespace();
    engine.api = std::make_unique<EcssdApi>(engine_options);
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
    const std::uint64_t screener_bytes =
        options_.int4Placement == accel::Int4Placement::Dram
        ? spec.int4WeightBytes()
        : 0;
    if (screener_bytes + entry->config.cacheQuotaBytes
        > entry->config.dramBytes)
        return Status::TenantQuotaExceeded;
    return Status::Ok;
}

void
EcssdApi::syncTenantCharge(TenantHandle tenant)
{
    TenantEngine &engine = tenantEngines_.at(tenant.id());
    const EcssdApi &api = *engine.api;
    if (!api.live_.deployed()
        || api.live_.versionId == engine.chargedVersion)
        return;
    const std::uint64_t screener_bytes =
        options_.int4Placement == accel::Int4Placement::Dram
        ? api.live_.spec->int4WeightBytes()
        : 0;
    tenantRegistry_.chargeScreener(tenant, screener_bytes);
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
