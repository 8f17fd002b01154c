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
 * weightDeploy() is stop the world: every outstanding session turns
 * stale.  Serving through a weight swap is the serving layer's job
 * (InferenceServer::beginRedeploy, server.hh), and several models on
 * one device are MultiTenantServer's (multi_tenant.hh).
 */

#ifndef ECSSD_ECSSD_API_HH
#define ECSSD_ECSSD_API_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ecssd/redeploy.hh"
#include "ecssd/status.hh"
#include "ecssd/streaming_deploy.hh"
#include "ecssd/system.hh"
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
 * (deploy epoch) it was created under: the next weightDeploy() turns
 * it stale (Status::StaleSession).
 */
class InferenceSession
{
  public:
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
     * DRAM-cached rows of the previous layer).
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

    /** Current deploy epoch (bumped by every weightDeploy). */
    std::uint64_t deployEpoch() const { return live_.epoch; }

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

    // --- SSD mode -------------------------------------------------

    /** Write one logical page in SSD mode; returns completion tick. */
    sim::Tick ssdWrite(ssdsim::LogicalPage lpa);

    /** Read one logical page in SSD mode; returns completion tick. */
    sim::Tick ssdRead(ssdsim::LogicalPage lpa);

    // --- Introspection -------------------------------------------

    /** Accelerator-mode system (valid after weightDeploy). */
    EcssdSystem &system() { return *live_.system; }

    /** SSD-mode device (valid after the first ssdWrite). */
    ssdsim::SsdDevice &ssdDevice() { return *ssdMode_; }

    /**
     * Attach (or detach, with nullptr) observability sinks: forwarded
     * to the live system (pipeline/device instrumentation).  Survives
     * redeployment — every weightDeploy() instruments its new
     * system.
     */
    void attachObservability(sim::MetricsRegistry *metrics,
                             sim::SpanTracer *spans);

  private:
    friend class InferenceSession;

    /** Sessions screen by the deployed threshold, with the
     *  top-ratio guard band (screenCandidates()). */
    static constexpr xclass::FilterMode kScreenMode =
        xclass::FilterMode::Threshold;

    void requireAccelerator(const char *api) const;
    void requireDeployed(const char *api) const;

    EcssdOptions options_;
    Mode mode_ = Mode::Ssd;
    /**
     * SSD-mode device, built from EcssdOptions::ssd.  Kept separately
     * so block data written in SSD mode survives accelerator
     * deployments: the weights occupy a reserved address range, not
     * the user's logical space.
     */
    std::unique_ptr<ssdsim::SsdDevice> ssdMode_;
    /** SSD mode's clock: each command issues at the previous one's
     *  completion. */
    sim::Tick ssdClock_ = 0;

    /** The serving version (accelerator mode). */
    DeployedVersion live_;
    /** Optional observability sinks (null = uninstrumented). */
    sim::MetricsRegistry *metrics_ = nullptr;
    sim::SpanTracer *spans_ = nullptr;
    /** Most recent deploy's streaming outcome (layout released). */
    std::optional<StreamingDeployResult> lastStreaming_;
};

} // namespace ecssd

#endif // ECSSD_ECSSD_API_HH
