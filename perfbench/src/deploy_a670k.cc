/**
 * @file
 * deploy-a670k-d64: the Table 1 lifecycle through EcssdApi on
 * XMLCNN-A670K at its full 670,091 categories with D cut to 64, on
 * one host thread: an out-of-core weightDeployStreaming under an
 * 8 MiB host budget (the hotness records must spill through the
 * FTL), calibrateThreshold on the session queries, then 64
 * sequential one-query sessions.
 *
 * The traced run spans every API call; the deploy's children come
 * from replaying Screener construction and streamingWeightDeploy on
 * the same rows, which must reproduce the API's deploy exactly.
 */

#include <memory>
#include <vector>

#include "bench.hh"
#include "device_tally.hh"
#include "ecssd/api.hh"
#include "ecssd/streaming_deploy.hh"
#include "xclass/metrics.hh"
#include "xclass/workload.hh"

namespace perfbench
{

namespace
{

using namespace ecssd;

constexpr std::size_t kTopK = 5;

class DeployA670kD64 : public Workload
{
  public:
    explicit DeployA670kD64(const RunConfig &config)
        : spec_(xclass::benchmarkByName("XMLCNN-A670K")),
          seed_(config.seed)
    {
        std::uint64_t budget = 8ULL << 20;
        if (config.scale == Scale::Small) {
            spec_ = xclass::scaledDown(spec_, 20000);
            budget = 256ULL << 10;
            sessions_ = 8;
        }
        // The functional tier caps L x D at 2^28, and synthesis cost
        // grows with D: cut D, keep every category.
        spec_.hiddenDim = 64;
        options_ = EcssdOptions::full();
        options_.seed = seed_;
        options_.threads = config.threads;
        options_.deployHostBudgetBytes = budget;
    }

    void
    setup(SpanLog *spans) override
    {
        {
            Scope scope(spans, "xclass.model_synth");
            model_ = std::make_unique<xclass::SyntheticModel>(spec_, seed_);
        }
        // One query per session.  The threshold is calibrated on the
        // same queries, so every seed screens 10% of L summed over the
        // sessions and only the per-query spread varies.
        sim::Rng rng(seed_ ^ 0xde910e5ULL);
        queries_.clear();
        for (std::size_t q = 0; q < sessions_; ++q)
            queries_.push_back(model_->sampleQuery(rng));
        api_ = std::make_unique<EcssdApi>(options_);
        api_->ecssdEnable();
        registry_ = std::make_unique<sim::MetricsRegistry>();
        api_->attachObservability(registry_.get(), nullptr);
    }

    void
    buildReferences() override
    {
        references_ = exactTopK(model_->weights(), queries_, kTopK);
    }

    void
    runUntraced() override
    {
        begin();
        deployTime_ = api_->weightDeployStreaming(
            model_->weights(), spec_, &model_->basis());
        afterDeploy();
        api_->calibrateThreshold(queries_);
        for (std::size_t s = 0; s < sessions_; ++s)
            runSession(s, nullptr);
    }

    void
    runTraced(SpanLog &spans) override
    {
        begin();
        int deploy_span = -1;
        {
            Scope scope(&spans, "ecssd.deploy");
            deploy_span = scope.index();
            deployTime_ = api_->weightDeployStreaming(
                model_->weights(), spec_, &model_->basis());
        }
        afterDeploy();
        replayDeploy(spans, deploy_span);
        {
            Scope scope(&spans, "ecssd.calibrate");
            api_->calibrateThreshold(queries_);
        }
        for (std::size_t s = 0; s < sessions_; ++s) {
            Scope session(&spans, "session", s);
            runSession(s, &spans);
        }
    }

    SimResult
    result() const override
    {
        SimResult out;
        std::vector<double> latencies;
        double recall_sum = 0.0;
        std::uint64_t candidates = 0;
        std::uint64_t ok = 0;
        Digest digest;
        for (std::size_t s = 0; s < outcomes_.size(); ++s) {
            const Outcome &outcome = outcomes_[s];
            latencies.push_back(sim::tickToMs(outcome.latency));
            recall_sum += xclass::recall(references_[s],
                                         outcome.prediction.topCategories);
            candidates += outcome.prediction.candidateCount;
            ok += outcome.allOk ? 1 : 0;
            digest.add(outcome.latency);
            digest.add(outcome.prediction.candidateCount);
            for (const std::uint64_t category :
                 outcome.prediction.topCategories)
                digest.add(category);
        }
        const auto sessions = static_cast<double>(outcomes_.size());
        out.values["sim_latency_p50_ms"] = quantile(latencies, 0.5);
        out.values["sim_latency_p99_ms"] = quantile(latencies, 0.99);
        out.values["sim_throughput_qps"] =
            sessions / sim::tickToSeconds(tally_->serviceTime());
        out.values["channel_utilization"] =
            tally_->channelUtilization(*registry_, options_.ssd);
        out.values["served_fraction"] = static_cast<double>(ok) / sessions;
        out.values["failed_fraction"] =
            (sessions - static_cast<double>(ok)) / sessions;
        out.values["recall_at_5"] = recall_sum / sessions;
        out.values["xclass.candidates_per_query"] =
            static_cast<double>(candidates) / sessions;
        out.values["sim_deploy_s"] = sim::tickToSeconds(deployTime_);
        out.values["deploy_host_peak_mb"] =
            static_cast<double>(deploy_.hostPeakBytes) / (1 << 20);
        out.values["ecssd.deploy_runs_spilled"] =
            static_cast<double>(deploy_.runsSpilled);
        out.values["ssdsim.spill_pages_written"] =
            static_cast<double>(deploy_.spillPagesWritten);
        out.values["ssdsim.spill_pages_read"] =
            static_cast<double>(deploy_.spillPagesRead);
        out.values["ssdsim.ftl_gc_runs"] =
            static_cast<double>(ftlAfterDeploy_.gcRuns);
        out.values["ssdsim.write_amplification"] =
            ftlAfterDeploy_.writeAmplification();
        tally_->report(*registry_, out.values);
        for (const char *name :
             {"sim_latency_p50_ms", "sim_latency_p99_ms",
              "sim_throughput_qps", "channel_utilization", "recall_at_5",
              "xclass.candidates_per_query"})
            out.samples[name] = outcomes_.size();
        digest.add(deployTime_);
        digest.add(deploy_.rowsPlaced);
        out.digest = digest.value();
        // Deploy + calibrate + one per session.
        out.attempted = 2 + outcomes_.size();
        out.failed = outcomes_.size() - ok + (deployTime_ == 0 ? 1 : 0);
        return out;
    }

    void
    checkOutputs(Report &report) const override
    {
        bool all_ok = outcomes_.size() == sessions_;
        double recall_sum = 0.0;
        for (std::size_t s = 0; s < outcomes_.size(); ++s) {
            all_ok = all_ok && outcomes_[s].allOk;
            recall_sum += xclass::recall(
                references_[s], outcomes_[s].prediction.topCategories);
        }
        report.check(all_ok, "deploy: every session call returns "
                             "Status::Ok");
        report.check(deployTime_ > 0 && deploy_.rowsPlaced == spec_.categories,
                     "deploy: the streaming deploy placed every row");
        report.check(deploy_.hostPeakBytes <= deploy_.hostBudgetBytes
                         && deploy_.hostBudgetBytes
                             == options_.deployHostBudgetBytes,
                     "deploy: host peak stays within the deploy budget");
        report.check(deploy_.runsSpilled >= 2,
                     "deploy: at least 2 runs spilled (out-of-core path)");
        report.check(recall_sum / static_cast<double>(sessions_) >= 0.95,
                     "deploy: session recall@5 >= 0.95 vs exact top-5");
    }

    void
    reportLayers(Report &report) const override
    {
        if (!replayed_)
            return;
        report.check(replayMatches_,
                     "deploy: replaying Screener + streamingWeightDeploy "
                     "reproduces the API's deploy");
    }

    void
    teardown() override
    {
        api_.reset();
        registry_.reset();
        model_.reset();
        tally_.reset();
        outcomes_.clear();
    }

  private:
    /** What one session produced. */
    struct Outcome
    {
        bool allOk = true;
        sim::Tick latency = 0;
        xclass::ApproximateClassifier::Prediction prediction;
    };

    /** Everything the deploy returned that the checks read. */
    struct DeployFacts
    {
        std::uint64_t hostPeakBytes = 0;
        std::uint64_t hostBudgetBytes = 0;
        std::uint64_t runsSpilled = 0;
        std::uint64_t spillPagesWritten = 0;
        std::uint64_t spillPagesRead = 0;
        std::uint64_t rowsPlaced = 0;

        static DeployFacts
        of(const StreamingDeployResult &result)
        {
            return {result.hostPeakBytes,   result.hostBudgetBytes,
                    result.runsSpilled,     result.spillPagesWritten,
                    result.spillPagesRead,  result.rowsPlaced};
        }

        bool
        operator==(const DeployFacts &other) const = default;
    };

    void
    begin()
    {
        outcomes_.clear();
        replayed_ = false;
        tally_ = std::make_unique<DeviceTally>(options_.ssd.channels);
    }

    void
    afterDeploy()
    {
        deploy_ = DeployFacts::of(*api_->streamingDeploy());
        ftlAfterDeploy_ = api_->system().ssd().ftl().stats();
    }

    void
    runSession(std::size_t index, SpanLog *spans)
    {
        const std::vector<float> &query = queries_[index];
        Outcome outcome;
        InferenceSession session = api_->beginInference();
        const auto ok = [&outcome](Status status) {
            outcome.allOk = outcome.allOk && status == Status::Ok;
        };
        ok(session.sendInt4(query));
        ok(session.sendCfp32(query));
        {
            Scope scope(spans, "ecssd.session_screen", index);
            ok(session.screen());
        }
        {
            Scope scope(spans, "ecssd.session_classify", index);
            ok(session.classify());
        }
        ok(session.results(kTopK, outcome.prediction));
        outcome.latency = session.latency();
        // classify() resets the device timelines before its batch, so
        // the device now holds exactly this session's counters.
        tally_->addWindow(api_->system().ssd(), outcome.latency);
        outcomes_.push_back(std::move(outcome));
    }

    /** The deploy's children: its two big steps, re-run alone. */
    void
    replayDeploy(SpanLog &spans, int parent)
    {
        ReplayScope replay(spans, parent);
        {
            Scope scope(&spans, "xclass.screener_build");
            const xclass::Screener screener(model_->weights(), spec_,
                                            options_.seed, &model_->basis());
        }
        std::unique_ptr<EcssdSystem> system;
        {
            Scope scope(&spans, "ecssd.system_build");
            system = std::make_unique<EcssdSystem>(spec_, options_);
        }
        StreamingDeployConfig config;
        config.hostBudgetBytes = options_.deployHostBudgetBytes;
        config.rowBytes = spec_.rowBytes();
        config.seed = options_.seed;
        config.trainedProjection = &model_->basis();
        const MatrixRowSource source(model_->weights());
        StreamingDeployResult result;
        {
            Scope scope(&spans, "ecssd.streaming_deploy");
            result = streamingWeightDeploy(source, spec_.shrunkDim(),
                                           options_.ssd.channels,
                                           options_.ssd, config,
                                           &system->ssd());
        }
        replayed_ = true;
        replayMatches_ = result.deployTime == deployTime_
            && DeployFacts::of(result) == deploy_;
    }

    xclass::BenchmarkSpec spec_;
    std::uint64_t seed_;
    std::size_t sessions_ = 64;
    EcssdOptions options_;

    std::unique_ptr<xclass::SyntheticModel> model_;
    std::vector<std::vector<float>> queries_;
    std::vector<std::vector<std::uint64_t>> references_;
    std::unique_ptr<sim::MetricsRegistry> registry_;
    std::unique_ptr<EcssdApi> api_;

    sim::Tick deployTime_ = 0;
    DeployFacts deploy_;
    ssdsim::FtlStats ftlAfterDeploy_;
    std::unique_ptr<DeviceTally> tally_;
    std::vector<Outcome> outcomes_;
    bool replayed_ = false;
    bool replayMatches_ = false;
};

} // namespace

std::unique_ptr<Workload>
makeDeployA670kD64(const RunConfig &config)
{
    return std::make_unique<DeployA670kD64>(config);
}

} // namespace perfbench
