/**
 * @file
 * Whole-stack integration: one scenario exercising SSD mode through
 * the NVMe front-end, a mode switch, a functional deployment, timed
 * screened inference, energy accounting, and scale-out — the path a
 * downstream user walks.
 */

#include <gtest/gtest.h>

#include "ecssd/api.hh"
#include "ecssd/scale_out.hh"
#include "ecssd/server.hh"
#include "sim/rng.hh"
#include "ssdsim/nvme.hh"
#include "xclass/metrics.hh"

using namespace ecssd;

TEST(Integration, FullUserJourney)
{
    // --- 1. Block storage via NVMe -----------------------------------
    sim::EventQueue queue;
    ssdsim::SsdDevice block_device(ssdsim::smallTestConfig(),
                                   queue);
    ssdsim::NvmeController nvme(block_device, 2, 16);
    for (std::uint64_t lpa = 0; lpa < 32; ++lpa)
        ASSERT_TRUE(nvme.submit(
            lpa % 2, ssdsim::NvmeCommand{ssdsim::NvmeOpcode::Write,
                                         lpa, 1, lpa}));
    nvme.drain();
    ASSERT_TRUE(nvme.submit(
        0, ssdsim::NvmeCommand{ssdsim::NvmeOpcode::Read, 0, 32,
                               999}));
    nvme.drain();
    const auto completions = nvme.pollCompletions(0);
    ASSERT_FALSE(completions.empty());
    EXPECT_TRUE(completions.back().success);

    // --- 2. Deploy a classifier and run screened inference -----------
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 1024);
    spec.hiddenDim = 128;
    const xclass::SyntheticModel model(spec, 71);

    EcssdApi api;
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
