/**
 * @file
 * A host-side serving layer over one ECSSD: applications enqueue
 * query features, the server groups them into device batches
 * (Section 4.5 processes a batch of inputs per tile sweep), runs the
 * functional screening + classification, and reports per-request
 * latency statistics.
 *
 * Overload control: queue-delay admission (Gold evicts queued
 * BestEffort work before it is shed), the brownout ladder and a
 * batch-wait window for partial batches.  A candidate row whose FP32
 * page comes back uncorrectable keeps its INT4 screener score, so a
 * dying device still answers every request (as Degraded).
 *
 * Zero-downtime weight hot swap: beginRedeploy() stages a new weight
 * version alongside the serving one; the staged-redeploy driver
 * (redeploy.hh; the server is its one owner) advances one step
 * between served batches, so staging IO yields to foreground
 * requests.  The version flip happens at a batch boundary — the
 * server serves requests synchronously, so no request is ever in
 * flight across the flip and nothing drains.  DRAM
 * pressure, a staged media fault, a read-only device or a validation
 * failure rolls back automatically; the old version keeps serving and
 * no request fails.  This is the swap `ecssd-sim --redeploy-at` and
 * paper_tables' redeploy.GNMT-E32K-2048.* keys drive.
 */

#ifndef ECSSD_ECSSD_SERVER_HH
#define ECSSD_ECSSD_SERVER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "ecssd/api.hh"
#include "ecssd/redeploy.hh"
#include "ecssd/system.hh"
#include "sim/stats.hh"
#include "sim/traffic.hh"
#include "xclass/screening.hh"

namespace ecssd
{

/**
 * Brownout ladder rung: how far serving quality is degraded to keep
 * goodput up under overload.  Ordered from healthy to desperate;
 * the controller moves one rung at a time with hysteresis.
 */
enum class BrownoutLevel
{
    /** Normal screen + full-precision re-rank. */
    Full = 0,
    /** Candidate set capped to a fraction of the usual TopRatio
     *  budget: less flash traffic per request, bounded recall
     *  loss. */
    ReducedCandidates = 1,
    /** Serve top-k straight from the INT4 screener scores: no FP32
     *  fetch at all, screener-level recall. */
    ScreenerOnly = 2,
    /** Reject new BestEffort arrivals at admission (Gold is still
     *  admitted); already-admitted requests are served ScreenerOnly,
     *  never dropped. */
    Shed = 3,
};

const char *toString(BrownoutLevel level);

/** Hysteresis-guarded brownout controller parameters. */
struct BrownoutConfig
{
    /** Worst batch sojourn (queueing + service) above which the
     *  ladder degrades one level.  0 disables the whole ladder. */
    sim::Tick enterDelay = 0;
    /** Sojourn at or below this is "healthy"; between exit and
     *  enter the level holds (the hysteresis band). */
    sim::Tick exitDelay = 0;
    /** Healthy dwell required before recovering one level (the
     *  guard that prevents enter/exit flapping). */
    sim::Tick recoveryGuard = 0;
    /** Candidate budget at ReducedCandidates, as a fraction of the
     *  normal TopRatio candidate count. */
    double reducedCandidateFraction = 0.5;

    bool enabled() const { return enterDelay != 0; }

    /** Die fatally (sim::FatalError) on inconsistent thresholds. */
    void validate() const;
};

/** Serving-policy knobs of the InferenceServer. */
struct ServerConfig
{
    /**
     * Queue-delay admission target (CoDel-flavored): a BestEffort
     * arrival whose estimated sojourn — queue depth times the
     * measured per-request service EWMA — exceeds this is shed at
     * admission, bounding queueing delay instead of queue length.
     * Gold arrivals get twice the target and first try to evict a
     * queued BestEffort.  0 disables delay-based admission.
     */
    sim::Tick admissionTargetDelay = 0;
    /**
     * Dynamic batching: how long a partial batch may wait for more
     * arrivals, counted from its oldest member's arrival.  0 keeps
     * the eager closed-loop behaviour: serve whatever has arrived.
     */
    sim::Tick batchMaxWait = 0;
    /** Brownout ladder (disabled by default). */
    BrownoutConfig brownout;

    /** Die fatally (sim::FatalError) on inconsistent knobs. */
    void validate() const;
};

/** Fault/health counters of one server instance. */
struct ServerStats
{
    std::uint64_t acceptedRequests = 0;
    /** Arrivals rejected at admission (delay target, brownout shed,
     *  or eviction), by any cause. */
    std::uint64_t shedRequests = 0;
    /** Responses carrying screener-degraded rows. */
    std::uint64_t degradedResponses = 0;
    std::uint64_t okResponses = 0;
    /** Candidate rows served from the INT4 screener score. */
    std::uint64_t degradedRows = 0;

    // --- Overload control ------------------------------------------
    /** Shed arrivals by class (shedGold + shedBestEffort ==
     *  shedRequests). */
    std::uint64_t shedGold = 0;
    std::uint64_t shedBestEffort = 0;
    /** Sheds decided by the queue-delay admission target. */
    std::uint64_t admissionSheds = 0;
    /** Sheds decided by the brownout Shed rung. */
    std::uint64_t brownoutSheds = 0;
    /** Queued BestEffort requests evicted (shed) to admit a Gold
     *  arrival past the admission target. */
    std::uint64_t evictedBestEffort = 0;
    /** Highest pending-queue depth ever observed. */
    std::uint64_t queueDepthHwm = 0;
    /** Brownout ladder transitions (both directions). */
    std::uint64_t brownoutTransitions = 0;
    /** Responses served at each ladder rung. */
    std::uint64_t servedFull = 0;
    std::uint64_t servedReducedCandidates = 0;
    std::uint64_t servedScreenerOnly = 0;
};

/** The batching inference server. */
class InferenceServer
{
  public:
    using RequestId = std::uint64_t;

    /** One finished request. */
    struct Response
    {
        /** How the request left the server: the unified ecssd::Status
         *  vocabulary (Response::Status::Ok etc. keep compiling; the
         *  server only ever emits Ok / Degraded / Shed). */
        using Status = ecssd::Status;

        RequestId id = 0;
        xclass::ApproximateClassifier::Prediction prediction;
        /** Device-time completion of the request's batch. */
        sim::Tick completedAt = 0;
        Status status = Status::Ok;
        /** Priority class the request was admitted under. */
        sim::RequestClass cls = sim::RequestClass::Gold;
        /** Brownout rung the request was served at (Full outside
         *  brownout; meaningless for shed requests). */
        BrownoutLevel servedAt = BrownoutLevel::Full;
    };

    /**
     * @param weights The deployed L x D layer (must outlive the
     *        server).
     * @param spec Benchmark parameters.
     * @param options Device configuration.
     * @param trained_projection Optional learned projection.
     * @param server_config Serving-policy knobs (admission target,
     *        batch wait, brownout ladder).
     */
    InferenceServer(const numeric::FloatMatrix &weights,
                    const xclass::BenchmarkSpec &spec,
                    const EcssdOptions &options = EcssdOptions::full(),
                    const numeric::FloatMatrix *trained_projection =
                        nullptr,
                    const ServerConfig &server_config =
                        ServerConfig{});

    /** Queue one query arriving now; returns its request id. */
    RequestId enqueue(std::vector<float> feature);

    /** Queue one query with an explicit arrival time.  @p cls is
     *  the priority class admission control sheds by; the Gold
     *  default preserves the single-class behaviour. */
    RequestId enqueueAt(
        std::vector<float> feature, sim::Tick arrival,
        sim::RequestClass cls = sim::RequestClass::Gold);

    /** Pending (not yet processed) request count. */
    std::size_t pending() const { return pending_.size(); }

    /**
     * Process every pending request in device batches.
     *
     * @param k Top-k size per request.
     * @return Responses in completion order (shed requests
     *         included, with their terminal status).
     */
    std::vector<Response> processAll(std::size_t k);

    /**
     * Open-loop serving driven by a TrafficEngine: @p count arrivals
     * are drawn from @p engine (Poisson / diurnal / bursty, Zipf
     * user sessions, priority classes) and served under the full
     * overload-control stack — delay-based admission, class-aware
     * shedding, the batch-wait window, and the brownout ladder.
     * After the stream ends the server drains: the queue empties,
     * any in-flight hot swap terminates, and the brownout ladder
     * recovers to Full, so every run ends in steady state.
     *
     * @param engine Arrival source (consumed; byte-identical per
     *        seed and thread count).
     * @param count Arrivals to draw.
     * @param queries Query pool; each arrival's querySeed selects
     *        one deterministically.
     * @param k Top-k per request.
     * @return One terminal Response per arrival (served or shed —
     *         exactly once each).
     */
    std::vector<Response> runTraffic(
        sim::TrafficEngine &engine, std::uint64_t count,
        const std::vector<std::vector<float>> &queries,
        std::size_t k);

    /** Current brownout ladder rung (Full when disabled). */
    BrownoutLevel brownoutLevel() const { return level_; }

    /** Device time spent at @p level so far (the current rung's
     *  open interval included). */
    sim::Tick brownoutDwell(BrownoutLevel level) const;

    /** Per-request latency samples (milliseconds; served requests
     *  only). */
    const sim::Distribution &latencyMs() const { return latencyMs_; }

    /** Latency quantiles (milliseconds). */
    const sim::Percentiles &latencyPercentiles() const
    {
        return latencyPercentiles_;
    }

    /** Total simulated device time consumed so far. */
    sim::Tick deviceTime() const { return deviceClock_; }

    /**
     * Advance the device clock to at least @p at (never backwards).
     * The multi-tenant scheduler time-multiplexes several servers on
     * one physical device: each tenant's server aligns to the shared
     * device clock before its quantum, so tenants observe a common
     * timeline instead of private ones.
     */
    void
    alignDeviceClock(sim::Tick at)
    {
        if (at > deviceClock_)
            deviceClock_ = at;
    }

    /**
     * Serve one scheduler quantum: the oldest <= batch-size pending
     * requests as a single device batch, plus any terminal responses
     * produced outside it (admission sheds).  Empty when nothing was
     * pending and nothing terminal accumulated.
     */
    std::vector<Response> serveBatch(std::size_t k);

    /** Fault/health counters. */
    const ServerStats &serverStats() const { return stats_; }

    /** The serving-policy knobs this server runs with. */
    const ServerConfig &serverConfig() const { return config_; }

    /** Device health at the server's cumulative device time. */
    ssdsim::HealthReport health() const
    {
        return live_.system->health(deviceClock_);
    }

    // --- Weight hot swap ------------------------------------------

    /**
     * Begin a staged hot swap to @p weights.  The swap advances one
     * driver step per served batch (staging chunks between
     * batches, so the IO budget yields to foreground requests) and
     * flips at a batch boundary; processAll()/runTraffic() finish
     * any in-flight swap after the queue empties.
     *
     * Returns RedeployActive while a swap is in flight and
     * DimensionMismatch when @p weights do not match @p spec or
     * @p spec changes the input width (queued requests could no
     * longer be served).  A swap whose staged screener cannot fit
     * the device DRAM next to the serving one returns Ok and
     * immediately rolls back (RollbackReason::DramPressure) —
     * observable via redeployStatus().
     *
     * @param weights The new L x D layer (must outlive the swap).
     * @param spec The new version's benchmark parameters.
     * @param config Staging/validation policy.
     * @param trained_projection Optional learned projection.
     */
    Status beginRedeploy(
        const numeric::FloatMatrix &weights,
        const xclass::BenchmarkSpec &spec,
        const RedeployConfig &config = RedeployConfig{},
        const numeric::FloatMatrix *trained_projection = nullptr);

    /** Advance the in-flight swap one step without serving a batch
     *  (an idle server's background daemon tick).  NoRedeploy once
     *  the swap is terminal or none was begun. */
    Status redeployAdvance();

    /** Snapshot of the current (or last) hot swap. */
    RedeployStatus redeployStatus() const { return redeploy_.status(); }

    /** True while a hot swap is between begin and terminal. */
    bool redeployActive() const { return redeploy_.active(); }

    /** Deploy epoch of the serving version (bumped per flip). */
    std::uint64_t deployEpoch() const { return live_.epoch; }

    /** Monotone id of the serving weight version. */
    std::uint64_t weightVersion() const { return live_.versionId; }

    /**
     * Attach (or detach, with nullptr) observability sinks: both go
     * to the serving system (live pipeline counters and spans, flash
     * busy intervals) and to every version a hot swap flips in; the
     * tracer also sees the swap's phase spans.  The server records
     * no statistic of its own live: publishMetrics() is the one way
     * its statistics leave.  Recording never alters serving
     * behaviour or timing.
     */
    void attachObservability(sim::MetricsRegistry *metrics,
                             sim::SpanTracer *spans);

    /**
     * Snapshot the server into @p registry as "server.*" gauges:
     * every ServerStats count, the brownout rung and per-rung dwell,
     * the exact latency quantiles (latency_p50/p95/p99/p999_ms), the
     * device time, the serving identity and the hot-swap record
     * (redeploy_phase, commits, rollbacks, staged bytes, staging
     * time, validation recall).  Every name is published on every
     * call.
     */
    void publishMetrics(sim::MetricsRegistry &registry) const;

  private:
    struct PendingRequest
    {
        RequestId id;
        std::vector<float> feature;
        sim::Tick enqueuedAt;
        sim::RequestClass cls = sim::RequestClass::Gold;
    };

    /** Emit the terminal Shed response for a rejected arrival. */
    void shedRequest(RequestId id, sim::Tick arrival,
                     sim::RequestClass cls);

    /** Shed the youngest queued BestEffort request to admit a Gold
     *  arrival; false when none is queued. */
    bool evictYoungestBestEffort();

    /** Rung the next batch is served at: the ladder level, with the
     *  Shed rung serving its queue ScreenerOnly. */
    BrownoutLevel servingLevel() const;

    /** Feed one served batch's worst sojourn to the brownout
     *  controller (hysteresis + recovery guard). */
    void noteBatchSojourn(sim::Tick oldest_enqueue,
                          sim::Tick finished);

    /** Move the ladder to @p level at @p now, accounting dwell. */
    void setBrownoutLevel(BrownoutLevel level, sim::Tick now);

    /** One idle recovery step: with an empty queue and no traffic,
     *  dwell out the guard and climb one rung toward Full. */
    void idleRecoverStep();

    /** When a partial batch stops waiting for more arrivals: its
     *  oldest member's arrival plus batchMaxWait.  maxTick when the
     *  queue is empty. */
    sim::Tick batchCloseAt() const;

    /** Advance the in-flight swap one step (between batches); a
     *  passing validation flips and commits at once. */
    void stepRedeploy();

    /** Full and ReducedCandidates requests screen by top ratio. */
    static constexpr xclass::FilterMode kScreenMode =
        xclass::FilterMode::TopRatio;

    /** Gold arrivals shed only past this multiple of the admission
     *  target (and first try to evict a queued BestEffort). */
    static constexpr double kGoldAdmissionMultiplier = 2.0;

    EcssdOptions options_;
    ServerConfig config_;
    /** Host-compute pool shared by the functional classifiers
     *  (options.threads workers); declared before live_ and
     *  redeploy_ so it outlives every parallel consumer. */
    std::unique_ptr<sim::ThreadPool> threadPool_;
    /** The serving version. */
    DeployedVersion live_;
    /** The hot-swap driver (and its recent-request ring). */
    RedeployDriver redeploy_;
    std::deque<PendingRequest> pending_;
    /** Terminal responses produced outside a served batch (shed at
     *  admission); drained by processAll / runTraffic /
     *  serveBatch. */
    std::vector<Response> unservedResponses_;
    /** Serve the oldest <= batchSize pending requests once. */
    std::vector<Response> serveOneBatch(std::size_t k);

    /** Terminal drain of processAll() and runTraffic(): finish any
     *  in-flight swap, recover the ladder to Full, and append the
     *  unserved terminal responses to @p responses. */
    void finishDrain(std::vector<Response> &responses);

    RequestId nextId_ = 1;
    sim::Tick deviceClock_ = 0;
    sim::Distribution latencyMs_;
    sim::Percentiles latencyPercentiles_;
    ServerStats stats_;
    // --- Overload-control state ------------------------------------
    /** Current brownout rung. */
    BrownoutLevel level_ = BrownoutLevel::Full;
    /** When the ladder entered the current rung. */
    sim::Tick levelSince_ = 0;
    /** Closed dwell per rung (current rung's open interval is added
     *  by brownoutDwell()). */
    sim::Tick levelDwell_[4] = {0, 0, 0, 0};
    /** Start of the current healthy streak; maxTick = none. */
    sim::Tick healthySince_ = sim::maxTick;
    /** EWMA of per-request device service time (ticks);
     *  admission's sojourn estimate. */
    sim::Tick ewmaServiceTick_ = 0;
    /** Optional observability sinks (null = uninstrumented); kept so
     *  an epoch flip can re-instrument the new system. */
    sim::MetricsRegistry *metrics_ = nullptr;
    sim::SpanTracer *spans_ = nullptr;
};

} // namespace ecssd

#endif // ECSSD_ECSSD_SERVER_HH
