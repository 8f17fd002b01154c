/**
 * @file
 * Whole-stack integration: one scenario exercising SSD-mode block
 * I/O, a mode switch, a functional deployment, timed screened
 * inference, a switch back to SSD mode, energy accounting, and
 * scale-out — the path a downstream user walks.
 */

#include <gtest/gtest.h>

#include "ecssd/api.hh"
#include "ecssd/scale_out.hh"
#include "ecssd/server.hh"
#include "sim/rng.hh"
#include "xclass/metrics.hh"

using namespace ecssd;

TEST(Integration, FullUserJourney)
{
    // --- 1. Block storage in SSD mode --------------------------------
    EcssdApi api;
    sim::Tick last_write = 0;
    for (ssdsim::LogicalPage lpa = 0; lpa < 32; ++lpa) {
        const sim::Tick done = api.ssdWrite(lpa);
        EXPECT_GT(done, last_write);
        last_write = done;
    }
    EXPECT_GT(api.ssdRead(0), 0u);

    // --- 2. Deploy a classifier and run screened inference -----------
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 1024);
    spec.hiddenDim = 128;
    const xclass::SyntheticModel model(spec, 71);

    api.ecssdEnable();
    const sim::Tick deploy =
        api.weightDeploy(model.weights(), spec, &model.basis());
    EXPECT_GT(deploy, 0u);

    sim::Rng rng(72);
    std::vector<std::vector<float>> calibration;
    for (int q = 0; q < 4; ++q)
        calibration.push_back(model.sampleQuery(rng));
    api.calibrateThreshold(calibration);

    const std::vector<float> query = model.sampleQuery(rng);
    InferenceSession session = api.beginInference();
    ASSERT_EQ(session.sendInt4(query), Status::Ok);
    ASSERT_EQ(session.sendCfp32(query), Status::Ok);
    ASSERT_EQ(session.screen(), Status::Ok);
    ASSERT_EQ(session.classify(), Status::Ok);
    xclass::ApproximateClassifier::Prediction prediction;
    ASSERT_EQ(session.results(5, prediction), Status::Ok);
    ASSERT_EQ(prediction.topCategories.size(), 5u);
    EXPECT_GT(session.latency(), 0u);

    // The screened answer matches an exact search's top pick.
    const xclass::ApproximateClassifier reference(
        model.weights(), spec, 1, &model.basis());
    const auto exact = reference.exact(query, 5);
    EXPECT_GE(xclass::recall(exact.topCategories,
                             prediction.topCategories),
              0.6);

    // Block data written in SSD mode survives the deployment.
    api.ecssdDisable();
    EXPECT_GT(api.ssdRead(31), 0u);

    // --- 3. Timed run + energy on a trace-tier workload --------------
    const xclass::BenchmarkSpec big = xclass::scaledDown(
        xclass::benchmarkByName("XMLCNN-S10M"), 16384);
    EcssdSystem system(big, EcssdOptions::full());
    const accel::RunResult run = system.runInference(2);
    EXPECT_GT(run.channelUtilization, 0.4);
    const circuit::EnergyBreakdown energy =
        system.estimateRunEnergy(run);
    EXPECT_GT(energy.totalUj(), 0.0);

    // --- 4. Scale out when the model grows ---------------------------
    ScaleOutEcssd fleet(big, 2);
    const ScaleOutResult fleet_run = fleet.runInference(1);
    EXPECT_LT(fleet_run.totalTime, run.totalTime);
}
