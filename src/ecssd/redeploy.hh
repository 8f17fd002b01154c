/**
 * @file
 * Zero-downtime weight hot-swap: the staged online-redeploy driver
 * InferenceServer runs.
 *
 * A redeploy serves traffic *through* the swap instead of around it:
 *
 *   Idle -> Staging -> Warming -> Validating -> Committed | RolledBack
 *
 *  - Staging: the new version's INT4 screener + FP32/CFP16 rows
 *    program into spare flash capacity and leftover DRAM under an
 *    explicit IO budget (staging yields to foreground reads).  The
 *    staged screener reserves its DRAM on the live device up front,
 *    and a few probe pages program and verify-read through the live
 *    FTL so staging meets the media faults foreground traffic
 *    would.
 *  - Warming: the staged screener and row cache replay a recorded
 *    sample of recent queries so the flip lands on a warm version.
 *  - Validating: a shadow-scoring pass compares the staged
 *    screener's candidates against the live version on the same
 *    queries; recall below the configured floor rolls back, and a
 *    passing one flips the deploy epoch and commits.  The server
 *    flips at a batch boundary, where no request is bound to the old
 *    version, so nothing drains.
 *
 * Any failure (validation below threshold, uncorrectable reads on
 * staged pages, the end-of-life read-only latch, DRAM pressure) rolls
 * back to the old version with zero failed requests: the owner keeps
 * the old version serving until Committed.
 */

#ifndef ECSSD_ECSSD_REDEPLOY_HH
#define ECSSD_ECSSD_REDEPLOY_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ecssd/system.hh"
#include "sim/trace.hh"
#include "sim/types.hh"
#include "ssdsim/ftl.hh"
#include "xclass/screening.hh"

namespace ecssd
{

/** Phase of one staged online redeploy. */
enum class RedeployPhase
{
    Idle,
    /** Budgeted programs of the new version into spare capacity. */
    Staging,
    /** Replaying recorded queries through the staged version. */
    Warming,
    /** Shadow-scoring the staged screener against the live one. */
    Validating,
    /** Terminal: the new version serves, old capacity reclaimed. */
    Committed,
    /** Terminal: the old version serves, staged capacity released. */
    RolledBack,
};

/** Why a redeploy rolled back. */
enum class RollbackReason
{
    None,
    /** Shadow-scoring recall fell below the configured floor. */
    ValidationRecall,
    /** A staged page verify-read came back uncorrectable. */
    StagedMediaFault,
    /** The device latched read-only (end of life) mid-staging. */
    DeviceReadOnly,
    /** The new version does not fit the DRAM left after current
     *  residency. */
    DramPressure,
};

const char *toString(RedeployPhase phase);
const char *toString(RollbackReason reason);

/** Policy knobs of one staged redeploy. */
struct RedeployConfig
{
    /**
     * Fraction of the deploy-path bandwidth the staging programs may
     * take; the rest stays with foreground reads.  Staging a version
     * that takes T to deploy stop-the-world takes T / fraction here.
     */
    double ioBudgetFraction = 0.25;
    /** Bytes staged per advance step (the budget granule). */
    std::uint64_t stepBytes = 8ULL << 20;
    /** Recorded recent queries replayed to warm the staged version. */
    unsigned warmupQueries = 4;
    /** Recorded recent queries shadow-scored for validation. */
    unsigned validationQueries = 4;
    /** Minimum staged-vs-live screener recall; below it: rollback. */
    double minValidationRecall = 0.9;
    /** Staged pages actually programmed + verify-read through the
     *  FTL (the rest of the footprint is accounted analytically).
     *  The probe reads surface real media faults on staged pages. */
    unsigned stagingProbePages = 16;

    /** Die fatally (sim::FatalError) on a nonsensical config. */
    void validate() const;
};

/** Point-in-time snapshot of one redeploy, for operators/tests. */
struct RedeployStatus
{
    RedeployPhase phase = RedeployPhase::Idle;
    RollbackReason reason = RollbackReason::None;
    /** Bytes staged so far / total footprint of the new version. */
    std::uint64_t stagedBytes = 0;
    std::uint64_t totalBytes = 0;
    /** Mean staged-vs-live screener recall of the validation pass. */
    double validationRecall = 1.0;
    /** Epochs on either side of the flip. */
    std::uint64_t oldEpoch = 0;
    std::uint64_t newEpoch = 0;
    /** Monotone id of the weight version being (or last) deployed. */
    std::uint64_t weightVersion = 0;
    /** Background ticks consumed by the budgeted staging so far. */
    sim::Tick stagingTime = 0;
};

/**
 * One weight generation as a serving owner (EcssdApi,
 * InferenceServer) holds it: the functional model (INT4 screener +
 * FP32 re-rank), its timed system, and the deploy epoch and version
 * id it serves under.
 */
struct DeployedVersion
{
    xclass::BenchmarkSpec spec;
    std::unique_ptr<xclass::ApproximateClassifier> classifier;
    std::unique_ptr<EcssdSystem> system;
    std::uint64_t epoch = 0;
    std::uint64_t versionId = 0;

    bool deployed() const { return static_cast<bool>(classifier); }
    xclass::Screener &screener() const { return classifier->screener(); }
};

/**
 * Build one version's classifier and timed system (epoch and version
 * id stay 0).  Throws sim::FatalError on an infeasible configuration.
 *
 * @param pool Optional host-compute pool for the classifier.
 */
DeployedVersion buildVersion(const numeric::FloatMatrix &weights,
                             const xclass::BenchmarkSpec &spec,
                             const EcssdOptions &options,
                             const numeric::FloatMatrix *trained_projection,
                             sim::ThreadPool *pool = nullptr);

/**
 * Screen @p feature under an owner's serving policy: @p mode's
 * selection, with the top-ratio selection as the guard band when a
 * threshold passes nothing (an empty candidate set would stall the
 * FP32 stage).
 */
std::vector<std::uint64_t> screenCandidates(
    const xclass::Screener &screener, std::span<const float> feature,
    xclass::FilterMode mode);

/**
 * The staged-redeploy driver.  InferenceServer keeps one for its
 * whole lifetime.  It holds everything a swap carries — the phase,
 * the staging ledger (bytes staged, background time spent), the
 * staged screener's DRAM reservation and the probe pages on the live
 * device, the staged version, the warm-up and validation cursors,
 * the recall — plus the ring of recent queries the warm-up and
 * validation replay, and it traces the swap (one "redeploy.<phase>"
 * span per active phase); its statistics leave through the owner's
 * snapshot (status(), commits(), rollbacks()).  The warm-up and the
 * shadow scoring screen the way the server serves, by top ratio.
 * Every begun redeploy ends in exactly one of Committed / RolledBack.
 *
 * The owner supplies its live version and its clock; a passing
 * validation step flips @p live to the staged version itself.
 */
class RedeployDriver
{
  public:
    RedeployPhase phase() const { return phase_; }

    /** True from begin() until a terminal phase. */
    bool
    active() const
    {
        return phase_ != RedeployPhase::Idle
            && phase_ != RedeployPhase::Committed
            && phase_ != RedeployPhase::RolledBack;
    }

    /** Completed redeploys through this driver. */
    std::uint64_t commits() const { return commits_; }
    std::uint64_t rollbacks() const { return rollbacks_; }

    /** Attach (or detach, with nullptr) the tracer that sees one
     *  "redeploy.<phase>" span per active phase. */
    void attachObservability(sim::SpanTracer *spans);

    /** Record one served query (warm-up and validation material). */
    void recordQuery(std::span<const float> feature);

    /**
     * Begin a redeploy from @p live at tick @p now: reserve the
     * staged screener's DRAM on the live device, price the budgeted
     * staging, and pick the probe pages.  A staged copy that cannot
     * fit rolls back at once (RollbackReason::DramPressure).  Dies
     * (sim::PanicError) while a redeploy is active.
     *
     * @param options Device configuration of the staged version.
     * @param pool Host-compute pool of the staged classifier.
     * @param version_id Id the staged version will serve under.
     */
    void begin(DeployedVersion &live, const numeric::FloatMatrix &weights,
               const xclass::BenchmarkSpec &spec,
               const numeric::FloatMatrix *trained_projection,
               const RedeployConfig &config, const EcssdOptions &options,
               sim::ThreadPool *pool, std::uint64_t version_id,
               sim::Tick now);

    /**
     * Run one step of the active redeploy: a staging step (read-only
     * check, probe pages, one budgeted chunk, and the build once
     * every byte is staged), one warm-up query, or one validation
     * query.  @p clock advances by the background time the step
     * consumed.  Failures roll back.  A passing validation flips:
     * the staging claims on @p live are released, the staged version
     * replaces @p live under the next deploy epoch, and the redeploy
     * commits.
     */
    void step(DeployedVersion &live, sim::Tick &clock);

    /** Snapshot of the current (or last) redeploy. */
    RedeployStatus status() const;

  private:
    /** Close the open phase span and enter @p next at @p now. */
    void enterPhase(RedeployPhase next, sim::Tick now);

    /** Run @p budget probe pages at @p now; rolls back on a fault. */
    bool probe(DeployedVersion &live, unsigned budget, sim::Tick now);

    /** One Staging step. */
    void stage(DeployedVersion &live, sim::Tick &clock);

    /** Replace @p live with the staged version and commit. */
    void flip(DeployedVersion &live, sim::Tick now);

    /** Roll back before the flip: release the staging claims on
     *  @p live and drop the staged version. */
    void rollback(DeployedVersion &live, RollbackReason reason,
                  sim::Tick now);

    /** Give back the DRAM reservation and probe pages on @p live. */
    void releaseClaims(DeployedVersion &live);

    RedeployPhase phase_ = RedeployPhase::Idle;
    RollbackReason reason_ = RollbackReason::None;
    std::uint64_t commits_ = 0;
    std::uint64_t rollbacks_ = 0;
    sim::SpanTracer *spans_ = nullptr;
    sim::Tick phaseEnteredAt_ = 0;
    sim::SpanId openSpan_ = 0;
    bool spanOpen_ = false;

    RedeployConfig config_;
    EcssdOptions options_;
    sim::ThreadPool *pool_ = nullptr;
    const numeric::FloatMatrix *weights_ = nullptr;
    const numeric::FloatMatrix *projection_ = nullptr;
    /** The version being staged (built once every byte is staged). */
    DeployedVersion staged_;
    /** Staging ledger: footprint of the new version (INT4 + FP32),
     *  bytes staged so far, the footprint's stop-the-world deploy
     *  time, and the background ticks the budgeted staging took. */
    std::uint64_t totalBytes_ = 0;
    std::uint64_t stagedBytes_ = 0;
    sim::Tick fullTime_ = 0;
    sim::Tick stagingTime_ = 0;
    /** Staging-area probe pages programmed through the live FTL. */
    std::vector<ssdsim::LogicalPage> probePages_;
    unsigned probeCursor_ = 0;
    /** DRAM reserved on the live device for the staged INT4. */
    std::uint64_t stagedReserveBytes_ = 0;
    unsigned warmed_ = 0;
    unsigned validated_ = 0;
    double recallSum_ = 0.0;
    double recall_ = 1.0;
    std::uint64_t oldEpoch_ = 0;
    std::uint64_t newEpoch_ = 0;
    std::uint64_t versionId_ = 0;
    /** Recent query features (ring, newest-overwrites-oldest). */
    std::vector<std::vector<float>> recentQueries_;
    std::size_t recentCursor_ = 0;
};

} // namespace ecssd

#endif // ECSSD_ECSSD_REDEPLOY_HH
