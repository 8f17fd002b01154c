#include "api.hh"

#include <algorithm>

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
    case Status::TenantQuotaExceeded:
        return "tenant-quota-exceeded";
    }
    return "?";
}

// --- InferenceSession ------------------------------------------------

InferenceSession::InferenceSession(EcssdApi &api)
    : api_(&api), epoch_(api.live_.epoch)
{
}

Status
InferenceSession::check() const
{
    if (api_->mode_ != Mode::Accelerator)
        return Status::WrongMode;
    if (!api_->live_.deployed())
        return Status::NotDeployed;
    if (epoch_ != api_->live_.epoch)
        return Status::StaleSession;
    return Status::Ok;
}

Status
InferenceSession::sendInt4(std::span<const float> feature)
{
    if (const Status guard = check(); guard != Status::Ok)
        return guard;
    if (feature.size() != api_->live_.spec.hiddenDim)
        return Status::DimensionMismatch;
    feature_.assign(feature.begin(), feature.end());
    int4Sent_ = true;
    // A new query starts here: drop the previous query's functional
    // state so a failed or repeated sequence can never serve stale
    // candidates or scores.
    candidates_.clear();
    scores_.clear();
    classified_ = false;
    return Status::Ok;
}

Status
InferenceSession::sendCfp32(std::span<const float> feature)
{
    if (const Status guard = check(); guard != Status::Ok)
        return guard;
    if (feature.size() != api_->live_.spec.hiddenDim)
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
    candidates_ = screenCandidates(api_->live_.screener(), feature_,
                                   EcssdApi::kScreenMode);
    return Status::Ok;
}

Status
InferenceSession::classify()
{
    if (const Status guard = check(); guard != Status::Ok)
        return guard;
    if (!cfp32Sent_)
        return Status::MissingInput;
    if (candidates_.empty())
        return Status::NotScreened;

    DeployedVersion &version = api_->live_;
    scores_ = version.classifier->candidateClassifier().scores(
        feature_, candidates_,
        xclass::CandidateClassifier::Datapath::Cfp32AlignmentFree);
    classified_ = true;

    // Device-side timing of the whole screened inference.
    version.system->ssd().resetTimelines();
    accel::BatchTiming timing =
        version.system->pipeline().runBatch(candidates_, 0);
    latency_ = timing.latency();
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

EcssdApi::EcssdApi(const EcssdOptions &options) : options_(options)
{
}

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
            accel::storedRowBytes(spec, options_.weightPrecision);
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
    version.epoch = live_.epoch + 1;
    version.versionId = live_.versionId + 1;
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

void
EcssdApi::attachObservability(sim::MetricsRegistry *metrics,
                              sim::SpanTracer *spans)
{
    metrics_ = metrics;
    spans_ = spans;
    if (live_.system)
        live_.system->attachObservability(metrics, spans);
}

// --- SSD mode --------------------------------------------------------

sim::Tick
EcssdApi::ssdWrite(ssdsim::LogicalPage lpa)
{
    if (mode_ != Mode::Ssd)
        sim::fatal("ssdWrite requires SSD mode");
    if (!ssdMode_)
        ssdMode_ = std::make_unique<ssdsim::SsdDevice>(options_.ssd);
    ssdClock_ = ssdMode_->hostWrite(lpa, ssdClock_);
    return ssdClock_;
}

sim::Tick
EcssdApi::ssdRead(ssdsim::LogicalPage lpa)
{
    if (mode_ != Mode::Ssd)
        sim::fatal("ssdRead requires SSD mode");
    if (!ssdMode_)
        sim::fatal("ssdRead of empty device");
    ssdClock_ = ssdMode_->hostRead(lpa, ssdClock_);
    return ssdClock_;
}

} // namespace ecssd
