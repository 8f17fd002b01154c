/**
 * @file
 * Table 1 API tests: mode discipline, the full inference call
 * sequence through an InferenceSession (misuse reported as a
 * Status), SSD-mode commands, and the deploy path.
 */

#include <gtest/gtest.h>

#include "ecssd/api.hh"
#include "sim/rng.hh"
#include "xclass/metrics.hh"

using namespace ecssd;

namespace
{

struct ApiFixture
{
    ApiFixture()
        : spec(makeSpec()), model(spec, 1)
    {
        options.ssd = ssdsim::smallTestConfig();
        options.ssd.channels = 8;
    }

    static xclass::BenchmarkSpec
    makeSpec()
    {
        xclass::BenchmarkSpec spec = xclass::scaledDown(
            xclass::benchmarkByName("GNMT-E32K"), 512);
        spec.hiddenDim = 128;
        return spec;
    }

    EcssdOptions options;
    xclass::BenchmarkSpec spec;
    xclass::SyntheticModel model;
};

} // namespace

TEST(EcssdApi, StartsInSsdMode)
{
    EcssdApi api;
    EXPECT_EQ(api.mode(), Mode::Ssd);
    api.ecssdEnable();
    EXPECT_EQ(api.mode(), Mode::Accelerator);
    api.ecssdDisable();
    EXPECT_EQ(api.mode(), Mode::Ssd);
}

TEST(EcssdApi, AcceleratorCallsRequireAcceleratorMode)
{
    ApiFixture f;
    EcssdApi api(f.options);
    EXPECT_THROW(api.weightDeploy(f.model.weights(), f.spec),
                 sim::FatalError);
    std::vector<float> feature(f.spec.hiddenDim, 1.0f);
    InferenceSession session = api.beginInference();
    xclass::ApproximateClassifier::Prediction prediction;
    EXPECT_EQ(session.sendInt4(feature), Status::WrongMode);
    EXPECT_EQ(session.screen(), Status::WrongMode);
    EXPECT_EQ(session.classify(), Status::WrongMode);
    EXPECT_EQ(session.results(5, prediction), Status::WrongMode);
}

TEST(EcssdApi, ComputeCallsRequireDeployedWeights)
{
    ApiFixture f;
    EcssdApi api(f.options);
    api.ecssdEnable();
    std::vector<float> feature(f.spec.hiddenDim, 1.0f);
    InferenceSession session = api.beginInference();
    EXPECT_EQ(session.sendInt4(feature), Status::NotDeployed);
    EXPECT_THROW(api.filterThreshold(0.0), sim::FatalError);
}

TEST(EcssdApi, FullInferenceSequence)
{
    ApiFixture f;
    EcssdApi api(f.options);
    api.ecssdEnable();
    const sim::Tick deploy =
        api.weightDeploy(f.model.weights(), f.spec);
    EXPECT_GT(deploy, 0u);

    sim::Rng rng(2);
    std::vector<std::vector<float>> calibration;
    for (int q = 0; q < 4; ++q)
        calibration.push_back(f.model.sampleQuery(rng));
    api.calibrateThreshold(calibration);

    const std::vector<float> query = f.model.sampleQuery(rng);
    InferenceSession session = api.beginInference();
    ASSERT_EQ(session.sendInt4(query), Status::Ok);
    ASSERT_EQ(session.sendCfp32(query), Status::Ok);
    ASSERT_EQ(session.screen(), Status::Ok);
    EXPECT_GT(session.candidateCount(), 0u);
    EXPECT_LT(session.candidateCount(), f.spec.categories);
    ASSERT_EQ(session.classify(), Status::Ok);
    EXPECT_GT(session.latency(), 0u);

    xclass::ApproximateClassifier::Prediction prediction;
    ASSERT_EQ(session.results(5, prediction), Status::Ok);
    EXPECT_EQ(prediction.topCategories.size(), 5u);
    EXPECT_EQ(prediction.candidateCount, session.candidateCount());
    // Scores are sorted descending.
    for (std::size_t i = 1; i < prediction.topScores.size(); ++i)
        EXPECT_GE(prediction.topScores[i - 1],
                  prediction.topScores[i]);
}

TEST(EcssdApi, PredictionMatchesDirectClassifier)
{
    ApiFixture f;
    EcssdApi api(f.options);
    api.ecssdEnable();
    api.weightDeploy(f.model.weights(), f.spec);

    sim::Rng rng(3);
    const std::vector<float> query = f.model.sampleQuery(rng);
    api.filterThreshold(-1e30); // pass everything: exact top-k
    InferenceSession session = api.beginInference();
    ASSERT_EQ(session.sendInt4(query), Status::Ok);
    ASSERT_EQ(session.sendCfp32(query), Status::Ok);
    ASSERT_EQ(session.screen(), Status::Ok);
    ASSERT_EQ(session.classify(), Status::Ok);
    xclass::ApproximateClassifier::Prediction api_pred;
    ASSERT_EQ(session.results(3, api_pred), Status::Ok);

    const xclass::ApproximateClassifier reference(
        f.model.weights(), f.spec, f.options.seed);
    const auto exact = reference.exact(query, 3);
    EXPECT_GE(xclass::recall(exact.topCategories,
                             api_pred.topCategories),
              0.66);
}

TEST(EcssdApi, UnboundedDeployTimeMatchesClosedForm)
{
    // With no host budget the placement sorts in one in-memory run;
    // for FP32 rows at even K the streamed time is the closed form
    // to the tick.
    xclass::BenchmarkSpec gnmt = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 4096);
    xclass::BenchmarkSpec a670k = xclass::scaledDown(
        xclass::benchmarkByName("XMLCNN-A670K"), 20000);
    a670k.hiddenDim = 64;
    for (const xclass::BenchmarkSpec &spec : {gnmt, a670k}) {
        ASSERT_EQ(spec.shrunkDim() % 2, 0u) << spec.name;
        const xclass::SyntheticModel model(spec, 1);
        const EcssdOptions options;
        EcssdApi api(options);
        api.ecssdEnable();
        EXPECT_EQ(api.weightDeploy(model.weights(), spec),
                  estimateDeployTime(spec, options.ssd))
            << spec.name;
        const StreamingDeployResult *outcome = api.streamingDeploy();
        ASSERT_NE(outcome, nullptr) << spec.name;
        EXPECT_EQ(outcome->runsSpilled, 0u) << spec.name;
        EXPECT_EQ(outcome->layout, nullptr) << spec.name;
    }
}

TEST(EcssdApi, DeployRefusesAScreenerLargerThanDram)
{
    ApiFixture f;
    f.options.ssd.dramBytes = f.spec.int4WeightBytes() / 2;
    struct Case
    {
        layout::LayoutKind layout;
        std::uint64_t budget;
    };
    for (const Case c :
         {Case{layout::LayoutKind::LearningAdaptive, 0},
          Case{layout::LayoutKind::LearningAdaptive, 256ULL << 10},
          Case{layout::LayoutKind::Uniform, 0}}) {
        EcssdOptions options = f.options;
        options.layoutKind = c.layout;
        options.deployHostBudgetBytes = c.budget;
        EcssdApi api(options);
        api.ecssdEnable();
        EXPECT_THROW(api.weightDeploy(f.model.weights(), f.spec),
                     sim::PanicError);
        EXPECT_THROW(
            api.weightDeployStreaming(f.model.weights(), f.spec),
            sim::PanicError);
        // Refused up front: nothing was deployed.
        EXPECT_EQ(api.weightVersion(), 0u);
        EXPECT_EQ(api.streamingDeploy(), nullptr);
    }
}

TEST(EcssdApi, DeployOutcomeDescribesTheLatestDeploy)
{
    const auto spec_of = [](std::uint64_t categories) {
        xclass::BenchmarkSpec spec = xclass::scaledDown(
            xclass::benchmarkByName("GNMT-E32K"), categories);
        spec.hiddenDim = 64;
        return spec;
    };
    const xclass::BenchmarkSpec large = spec_of(4096);
    const xclass::BenchmarkSpec small = spec_of(2048);
    const xclass::SyntheticModel large_model(large, 1);
    const xclass::SyntheticModel small_model(small, 2);

    EcssdOptions options;
    options.ssd = ssdsim::smallTestConfig();
    options.ssd.channels = 8;
    options.deployHostBudgetBytes = 64ULL << 10;
    EcssdApi api(options);
    api.ecssdEnable();

    api.weightDeployStreaming(large_model.weights(), large);
    ASSERT_NE(api.streamingDeploy(), nullptr);
    EXPECT_EQ(api.streamingDeploy()->rowsPlaced, 4096u);
    EXPECT_GE(api.streamingDeploy()->runsSpilled, 2u);

    const sim::Tick deploy =
        api.weightDeploy(small_model.weights(), small);
    const StreamingDeployResult *outcome = api.streamingDeploy();
    ASSERT_NE(outcome, nullptr);
    EXPECT_EQ(outcome->rowsPlaced, 2048u);
    EXPECT_EQ(outcome->deployTime, deploy);
}

TEST(EcssdApi, HealthReportCarriesServingIdentity)
{
    ApiFixture f;
    EcssdApi api(f.options);
    api.ecssdEnable();
    api.weightDeploy(f.model.weights(), f.spec);
    const ssdsim::HealthReport first = api.system().health(0);
    EXPECT_EQ(first.deployEpoch, 1u);
    EXPECT_EQ(first.weightVersion, 1u);

    // Every deploy stamps the next epoch and version into the report.
    api.weightDeploy(f.model.weights(), f.spec);
    const ssdsim::HealthReport second = api.system().health(0);
    EXPECT_EQ(second.deployEpoch, 2u);
    EXPECT_EQ(second.weightVersion, 2u);
    EXPECT_EQ(api.deployEpoch(), 2u);
    EXPECT_EQ(api.weightVersion(), 2u);
}

TEST(EcssdApi, SsdModeReadWrite)
{
    ApiFixture f;
    EcssdApi api(f.options);
    const sim::Tick wrote = api.ssdWrite(7);
    EXPECT_GT(wrote, 0u);
    // SSD mode's clock: each command issues at the previous one's
    // completion.
    const sim::Tick read = api.ssdRead(7);
    EXPECT_GT(read, wrote);
}

TEST(EcssdApi, SsdCallsRequireSsdMode)
{
    ApiFixture f;
    EcssdApi api(f.options);
    api.ecssdEnable();
    EXPECT_THROW(api.ssdWrite(0), sim::FatalError);
    EXPECT_THROW(api.ssdRead(0), sim::FatalError);
}

TEST(EcssdApi, PreAlignIsTheHostPrimitive)
{
    const std::vector<float> values{1.0f, 0.5f, -0.25f};
    const numeric::Cfp32Vector aligned = EcssdApi::preAlign(values);
    EXPECT_EQ(aligned.size(), 3u);
    EXPECT_FLOAT_EQ(aligned.toFloat(0), 1.0f);
}

TEST(EcssdApi, NewQueryDropsPreviousCandidates)
{
    // A fresh sendInt4 starts a new query: the previous query's
    // candidates must never be served for it.
    ApiFixture f;
    EcssdApi api(f.options);
    api.ecssdEnable();
    api.weightDeploy(f.model.weights(), f.spec);

    sim::Rng rng(5);
    const std::vector<float> first = f.model.sampleQuery(rng);
    InferenceSession session = api.beginInference();
    ASSERT_EQ(session.sendInt4(first), Status::Ok);
    ASSERT_EQ(session.sendCfp32(first), Status::Ok);
    ASSERT_EQ(session.screen(), Status::Ok);
    EXPECT_GT(session.candidateCount(), 0u);

    const std::vector<float> second = f.model.sampleQuery(rng);
    ASSERT_EQ(session.sendInt4(second), Status::Ok);
    EXPECT_EQ(session.candidateCount(), 0u);
    EXPECT_EQ(session.classify(), Status::NotScreened);
    ASSERT_EQ(session.screen(), Status::Ok);
    EXPECT_GT(session.candidateCount(), 0u);
}

// --- InferenceSession --------------------------------------------------

TEST(InferenceSession, ReportsModeAndDeploymentStatus)
{
    ApiFixture f;
    EcssdApi api(f.options);
    std::vector<float> feature(f.spec.hiddenDim, 1.0f);

    InferenceSession ssd_mode = api.beginInference();
    EXPECT_EQ(ssd_mode.sendInt4(feature), Status::WrongMode);

    api.ecssdEnable();
    InferenceSession undeployed = api.beginInference();
    EXPECT_EQ(undeployed.sendInt4(feature), Status::NotDeployed);
    EXPECT_EQ(undeployed.screen(), Status::NotDeployed);
}

TEST(InferenceSession, FullSequenceReturnsOk)
{
    ApiFixture f;
    EcssdApi api(f.options);
    api.ecssdEnable();
    api.weightDeploy(f.model.weights(), f.spec);

    sim::Rng rng(6);
    const std::vector<float> query = f.model.sampleQuery(rng);
    InferenceSession session = api.beginInference();
    EXPECT_EQ(session.sendInt4(query), Status::Ok);
    EXPECT_EQ(session.sendCfp32(query), Status::Ok);
    EXPECT_EQ(session.screen(), Status::Ok);
    EXPECT_GT(session.candidateCount(), 0u);
    EXPECT_EQ(session.classify(), Status::Ok);
    EXPECT_GT(session.latency(), 0u);

    xclass::ApproximateClassifier::Prediction prediction;
    EXPECT_EQ(session.results(3, prediction), Status::Ok);
    EXPECT_EQ(prediction.topCategories.size(), 3u);
    EXPECT_EQ(prediction.candidateCount, session.candidateCount());
}

TEST(InferenceSession, SequenceMisuseReturnsStatusNotDeath)
{
    ApiFixture f;
    EcssdApi api(f.options);
    api.ecssdEnable();
    api.weightDeploy(f.model.weights(), f.spec);

    sim::Rng rng(7);
    const std::vector<float> query = f.model.sampleQuery(rng);
    InferenceSession session = api.beginInference();
    xclass::ApproximateClassifier::Prediction prediction;

    EXPECT_EQ(session.screen(), Status::MissingInput);
    EXPECT_EQ(session.classify(), Status::MissingInput);
    EXPECT_EQ(session.results(1, prediction),
              Status::NotClassified);

    std::vector<float> wrong(f.spec.hiddenDim + 1, 1.0f);
    EXPECT_EQ(session.sendInt4(wrong), Status::DimensionMismatch);

    EXPECT_EQ(session.sendInt4(query), Status::Ok);
    // classify() needs the CFP32 input as well as the INT4 one.
    EXPECT_EQ(session.classify(), Status::MissingInput);
    EXPECT_EQ(session.sendCfp32(query), Status::Ok);
    // classify() before screen(): input present, candidates absent.
    EXPECT_EQ(session.classify(), Status::NotScreened);
    EXPECT_EQ(session.screen(), Status::Ok);
    EXPECT_EQ(session.classify(), Status::Ok);
    EXPECT_EQ(session.results(1, prediction), Status::Ok);
}

TEST(InferenceSession, RedeployTurnsSessionsStale)
{
    ApiFixture f;
    EcssdApi api(f.options);
    api.ecssdEnable();
    api.weightDeploy(f.model.weights(), f.spec);

    sim::Rng rng(8);
    const std::vector<float> query = f.model.sampleQuery(rng);
    InferenceSession old_session = api.beginInference();
    EXPECT_EQ(old_session.sendInt4(query), Status::Ok);

    api.weightDeploy(f.model.weights(), f.spec);
    EXPECT_EQ(old_session.sendInt4(query), Status::StaleSession);
    EXPECT_EQ(old_session.screen(), Status::StaleSession);

    InferenceSession fresh = api.beginInference();
    EXPECT_EQ(fresh.sendInt4(query), Status::Ok);
    EXPECT_EQ(fresh.screen(), Status::Ok);
}

TEST(InferenceSession, StatusNamesAreStable)
{
    EXPECT_STREQ(toString(Status::Ok), "ok");
    EXPECT_STREQ(toString(Status::NotScreened), "not-screened");
    EXPECT_STREQ(toString(Status::StaleSession), "stale-session");
}
