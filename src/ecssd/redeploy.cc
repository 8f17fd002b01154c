#include "ecssd/redeploy.hh"

#include <algorithm>
#include <iterator>

#include "sim/logging.hh"

namespace ecssd
{

const char *
toString(RedeployPhase phase)
{
    switch (phase) {
      case RedeployPhase::Idle: return "Idle";
      case RedeployPhase::Staging: return "Staging";
      case RedeployPhase::Warming: return "Warming";
      case RedeployPhase::Validating: return "Validating";
      case RedeployPhase::Committed: return "Committed";
      case RedeployPhase::RolledBack: return "RolledBack";
    }
    return "?";
}

const char *
toString(RollbackReason reason)
{
    switch (reason) {
      case RollbackReason::None: return "None";
      case RollbackReason::ValidationRecall: return "ValidationRecall";
      case RollbackReason::StagedMediaFault: return "StagedMediaFault";
      case RollbackReason::DeviceReadOnly: return "DeviceReadOnly";
      case RollbackReason::DramPressure: return "DramPressure";
    }
    return "?";
}

void
RedeployConfig::validate() const
{
    if (ioBudgetFraction <= 0.0 || ioBudgetFraction > 1.0)
        sim::fatal("redeploy ioBudgetFraction must be in (0, 1], got ",
                   ioBudgetFraction);
    if (stepBytes == 0)
        sim::fatal("redeploy stepBytes must be positive");
    if (minValidationRecall < 0.0 || minValidationRecall > 1.0)
        sim::fatal("redeploy minValidationRecall must be in [0, 1], "
                   "got ", minValidationRecall);
}

// ---------------------------------------------------------------------
// Deployed versions and the serving screen policy
// ---------------------------------------------------------------------

DeployedVersion
buildVersion(const numeric::FloatMatrix &weights,
             const xclass::BenchmarkSpec &spec, const EcssdOptions &options,
             const numeric::FloatMatrix *trained_projection,
             sim::ThreadPool *pool)
{
    DeployedVersion version;
    version.spec = spec;
    version.classifier = std::make_unique<xclass::ApproximateClassifier>(
        weights, spec, options.seed, trained_projection, pool);
    version.system = std::make_unique<EcssdSystem>(spec, options);
    return version;
}

std::vector<std::uint64_t>
screenCandidates(const xclass::Screener &screener,
                 std::span<const float> feature, xclass::FilterMode mode)
{
    std::vector<std::uint64_t> rows = screener.screen(feature, mode);
    if (rows.empty() && mode != xclass::FilterMode::TopRatio)
        rows = screener.screen(feature, xclass::FilterMode::TopRatio);
    return rows;
}

// ---------------------------------------------------------------------
// RedeployDriver
// ---------------------------------------------------------------------

namespace
{

/** Recent-query ring capacity (warm-up / validation material). */
constexpr std::size_t kRecentQueryCapacity = 32;

/** The warm-up and the shadow scoring screen as the server serves. */
constexpr xclass::FilterMode kScreenMode = xclass::FilterMode::TopRatio;

/** Staged probe programs run per staging step. */
constexpr unsigned kProbesPerStep = 4;

/**
 * Program + verify-read one batch of staged probe pages through
 * @p ftl.  The probes exercise the real flash path so staging
 * surfaces the same faults foreground traffic would: an
 * uncorrectable verify-read or a read-only rejection aborts the
 * staging with the corresponding rollback reason.
 *
 * @param cursor Resume position into @p pages (advanced).
 * @param budget Probes to run this step.
 * @param[out] reason Set on failure; untouched on success.
 * @return False when staging must roll back.
 */
bool
stageProbePages(ssdsim::Ftl &ftl,
                const std::vector<ssdsim::LogicalPage> &pages,
                unsigned &cursor, unsigned budget, sim::Tick now,
                RollbackReason &reason)
{
    for (unsigned n = 0; n < budget && cursor < pages.size();
         ++n, ++cursor) {
        const ssdsim::LogicalPage lpa = pages[cursor];
        bool rejected = false;
        const sim::Tick programmed = ftl.write(lpa, now, &rejected);
        if (rejected) {
            reason = RollbackReason::DeviceReadOnly;
            return false;
        }
        bool uncorrectable = false;
        ftl.read(lpa, programmed, &uncorrectable);
        if (uncorrectable) {
            reason = RollbackReason::StagedMediaFault;
            return false;
        }
    }
    return true;
}

/**
 * Shadow-scoring recall of @p staged against @p live on one query:
 * the fraction of the live screener's candidates the staged screener
 * also selects.  1.0 when the live screener selects nothing (there
 * is nothing to miss).
 */
double
screenerRecall(const xclass::Screener &live,
               const xclass::Screener &staged,
               std::span<const float> query, xclass::FilterMode mode)
{
    const std::vector<std::uint64_t> live_rows =
        screenCandidates(live, query, mode);
    if (live_rows.empty())
        return 1.0;
    const std::vector<std::uint64_t> staged_rows =
        screenCandidates(staged, query, mode);
    std::vector<std::uint64_t> common;
    std::set_intersection(live_rows.begin(), live_rows.end(),
                          staged_rows.begin(), staged_rows.end(),
                          std::back_inserter(common));
    return static_cast<double>(common.size())
        / static_cast<double>(live_rows.size());
}

/** Run @p build; false when it finds the configuration infeasible
 *  on this device (a fatal error or a capacity panic). */
template <typename Build>
bool
fitsDevice(Build &&build)
{
    try {
        build();
        return true;
    } catch (const sim::FatalError &) {
        return false;
    } catch (const sim::PanicError &) {
        return false;
    }
}

} // namespace

void
RedeployDriver::attachObservability(sim::SpanTracer *spans)
{
    spans_ = spans;
    // An in-flight phase span belongs to the old tracer; forget it
    // rather than closing it on a stranger.
    spanOpen_ = false;
}

void
RedeployDriver::enterPhase(RedeployPhase next, sim::Tick now)
{
    if (spans_ && spanOpen_) {
        spans_->end(openSpan_, std::max(now, phaseEnteredAt_));
        spanOpen_ = false;
    }
    phase_ = next;
    phaseEnteredAt_ = now;
    if (spans_ && active()) {
        openSpan_ = spans_->begin(
            std::string("redeploy.") + toString(phase_), now);
        spanOpen_ = true;
    }
}

void
RedeployDriver::recordQuery(std::span<const float> feature)
{
    if (recentQueries_.size() < kRecentQueryCapacity) {
        recentQueries_.emplace_back(feature.begin(), feature.end());
        return;
    }
    recentQueries_[recentCursor_].assign(feature.begin(), feature.end());
    recentCursor_ = (recentCursor_ + 1) % kRecentQueryCapacity;
}

void
RedeployDriver::begin(DeployedVersion &live,
                      const numeric::FloatMatrix &weights,
                      const xclass::BenchmarkSpec &spec,
                      const numeric::FloatMatrix *trained_projection,
                      const RedeployConfig &config,
                      const EcssdOptions &options, sim::ThreadPool *pool,
                      std::uint64_t version_id, sim::Tick now)
{
    if (active())
        sim::panic("redeploy begin() while a redeploy is active (",
                   toString(phase_), ")");
    config.validate();
    config_ = config;
    options_ = options;
    pool_ = pool;
    weights_ = &weights;
    projection_ = trained_projection;
    staged_.spec = spec;
    totalBytes_ = 0;
    stagedBytes_ = 0;
    fullTime_ = 0;
    stagingTime_ = 0;
    probePages_.clear();
    warmed_ = 0;
    validated_ = 0;
    recallSum_ = 0.0;
    recall_ = 1.0;
    oldEpoch_ = live.epoch;
    newEpoch_ = 0;
    versionId_ = version_id;
    reason_ = RollbackReason::None;
    enterPhase(RedeployPhase::Staging, now);

    // The staged INT4 screener claims the live device's leftover
    // DRAM for the duration of the swap; not fitting is the graceful
    // DramPressure rollback, not an abort.
    const std::uint64_t staged_bytes = screenerDramBytes(options, spec);
    if (!live.system->ssd().dram().tryReserve(staged_bytes)) {
        rollback(live, RollbackReason::DramPressure, now);
        return;
    }
    stagedReserveBytes_ = staged_bytes;

    // Price the staging: the stop-the-world deploy time of the new
    // footprint, stretched by the IO-budget fraction.  A footprint
    // the device cannot hold at all is the same DramPressure.
    if (!fitsDevice([&] {
            fullTime_ = estimateDeployTime(spec, options.ssd);
        })) {
        rollback(live, RollbackReason::DramPressure, now);
        return;
    }
    totalBytes_ = spec.int4WeightBytes() + spec.fp32WeightBytes();

    // Probe targets: the top of the live device's logical space (the
    // staging area's flash).  Real programs + verify-reads there
    // surface the media faults foreground traffic would see.
    const ssdsim::Ftl &ftl = live.system->ssd().ftl();
    const std::uint64_t probes = std::min<std::uint64_t>(
        config.stagingProbePages, ftl.logicalPages());
    for (std::uint64_t i = 0; i < probes; ++i)
        probePages_.push_back(ftl.logicalPages() - 1 - i);
}

void
RedeployDriver::step(DeployedVersion &live, sim::Tick &clock)
{
    switch (phase_) {
    case RedeployPhase::Staging:
        stage(live, clock);
        return;
    case RedeployPhase::Warming:
        if (warmed_ < config_.warmupQueries
            && warmed_ < recentQueries_.size()) {
            const std::vector<float> &query = recentQueries_[warmed_++];
            // A query recorded under a different input width cannot
            // replay.  The rest pre-fill the staged version's DRAM
            // hot-row cache with the rows they would fetch, so the
            // flip lands warm.
            if (query.size() == staged_.spec.hiddenDim) {
                staged_.system->pipeline().warmRows(
                    screenCandidates(staged_.screener(), query,
                                     kScreenMode),
                    0);
            }
        } else {
            enterPhase(RedeployPhase::Validating, clock);
        }
        return;
    case RedeployPhase::Validating: {
        const std::size_t target = std::min<std::size_t>(
            config_.validationQueries, recentQueries_.size());
        if (validated_ < target) {
            const std::vector<float> &query =
                recentQueries_[validated_++];
            // A query not comparable across the swap counts as full
            // recall rather than penalizing an input-width migration.
            recallSum_ += query.size() == staged_.spec.hiddenDim
                    && query.size() == live.spec.hiddenDim
                ? screenerRecall(live.screener(), staged_.screener(),
                                 query, kScreenMode)
                : 1.0;
            return;
        }
        recall_ = validated_ > 0
            ? recallSum_ / static_cast<double>(validated_)
            : 1.0;
        if (recall_ >= config_.minValidationRecall)
            flip(live, clock);
        else
            rollback(live, RollbackReason::ValidationRecall, clock);
        return;
    }
    default:
        sim::panic("redeploy step() with no active redeploy (",
                   toString(phase_), ")");
    }
}

void
RedeployDriver::stage(DeployedVersion &live, sim::Tick &clock)
{
    // Staging stops the moment the device latches read-only — a
    // read-only device can never accept the staged version.
    if (live.system->ssd().ftl().readOnly()) {
        rollback(live, RollbackReason::DeviceReadOnly, clock);
        return;
    }
    if (!probe(live, kProbesPerStep, clock))
        return;
    // One budgeted chunk of background program time: the chunk's
    // share of the stop-the-world time, stretched by the inverse of
    // the bandwidth fraction granted to staging.
    if (stagedBytes_ < totalBytes_) {
        const std::uint64_t chunk =
            std::min(config_.stepBytes, totalBytes_ - stagedBytes_);
        stagedBytes_ += chunk;
        const double share = static_cast<double>(chunk)
            / static_cast<double>(totalBytes_);
        const sim::Tick cost = static_cast<sim::Tick>(
            static_cast<double>(fullTime_) * share
            / config_.ioBudgetFraction);
        stagingTime_ += cost;
        clock += cost;
    }
    // Finish the probe tail before declaring staging complete.
    if (stagedBytes_ < totalBytes_
        || !probe(live, static_cast<unsigned>(probePages_.size()),
                  clock))
        return;
    if (!fitsDevice([&] {
            staged_ = buildVersion(*weights_, staged_.spec, options_,
                                   projection_, pool_);
        })) {
        // The staged configuration is infeasible on this device
        // (screener/cache residency): roll back, keep serving.
        rollback(live, RollbackReason::DramPressure, clock);
        return;
    }
    // The staged screener inherits the live screening policy so the
    // shadow scoring compares weights, not thresholds.
    staged_.screener().setThreshold(live.screener().threshold());
    enterPhase(RedeployPhase::Warming, clock);
}

bool
RedeployDriver::probe(DeployedVersion &live, unsigned budget,
                      sim::Tick now)
{
    RollbackReason reason = RollbackReason::None;
    if (stageProbePages(live.system->ssd().ftl(), probePages_,
                        probeCursor_, budget, now, reason))
        return true;
    rollback(live, reason, now);
    return false;
}

void
RedeployDriver::flip(DeployedVersion &live, sim::Tick now)
{
    // The staging claims on the old device end here: the staged
    // version owns its own device from now on, and replacing @p live
    // reclaims the old device and classifier.
    releaseClaims(live);
    newEpoch_ = live.epoch + 1;
    staged_.epoch = newEpoch_;
    staged_.versionId = versionId_;
    staged_.system->setDeployVersion(newEpoch_, versionId_);
    live = std::move(staged_);
    enterPhase(RedeployPhase::Committed, now);
    ++commits_;
}

void
RedeployDriver::rollback(DeployedVersion &live, RollbackReason reason,
                         sim::Tick now)
{
    releaseClaims(live);
    staged_ = DeployedVersion{};
    reason_ = reason;
    enterPhase(RedeployPhase::RolledBack, now);
    ++rollbacks_;
}

void
RedeployDriver::releaseClaims(DeployedVersion &live)
{
    live.system->ssd().dram().release(stagedReserveBytes_);
    stagedReserveBytes_ = 0;
    for (unsigned i = 0; i < probeCursor_; ++i)
        live.system->ssd().ftl().trim(probePages_[i]);
    probeCursor_ = 0;
}

RedeployStatus
RedeployDriver::status() const
{
    RedeployStatus status;
    status.phase = phase_;
    status.reason = reason_;
    status.stagedBytes = stagedBytes_;
    status.totalBytes = totalBytes_;
    status.validationRecall = recall_;
    status.oldEpoch = oldEpoch_;
    status.newEpoch = newEpoch_;
    status.weightVersion = versionId_;
    status.stagingTime = stagingTime_;
    return status;
}

} // namespace ecssd
