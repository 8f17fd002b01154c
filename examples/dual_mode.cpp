/**
 * @file
 * Dual-mode demonstration (Section 4.1): the same device serves
 * block I/O in SSD mode and extreme classification in accelerator
 * mode, with the FTL (mapping, GC, wear) underneath both.
 */

#include <cstdio>

#include "ecssd/api.hh"
#include "sim/rng.hh"
#include "xclass/workload.hh"

using namespace ecssd;

int
main()
{
    EcssdOptions options;
    options.ssd = ssdsim::smallTestConfig();
    options.ssd.channels = 8;
    EcssdApi device(options);

    // --- SSD mode: ordinary block storage -------------------------
    std::printf("[SSD mode] writing 64 pages...\n");
    sim::Tick last_write = 0;
    for (ssdsim::LogicalPage lpa = 0; lpa < 64; ++lpa)
        last_write = device.ssdWrite(lpa);
    std::printf("[SSD mode] last write completed at %.2f us\n",
                sim::tickToUs(last_write));

    // Overwrite a hot range to exercise GC, then read back.
    for (int round = 0; round < 200; ++round)
        device.ssdWrite(round % 4);
    const sim::Tick read_done = device.ssdRead(3);
    const auto &ftl = device.ssdDevice().ftl();
    std::printf("[SSD mode] read lpa 3 at %.2f us; GC runs: %llu, "
                "write amplification: %.2f\n",
                sim::tickToUs(read_done),
                (unsigned long long)ftl.stats().gcRuns,
                ftl.stats().writeAmplification());

    // --- Accelerator mode: extreme classification ----------------
    std::printf("[accel mode] switching...\n");
    device.ecssdEnable();

    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("XMLCNN-S10M"), 2048);
    spec.hiddenDim = 128;
    const xclass::SyntheticModel model(spec, 31);
    device.weightDeploy(model.weights(), spec, &model.basis());

    sim::Rng rng(32);
    std::vector<std::vector<float>> calibration;
    for (int q = 0; q < 4; ++q)
        calibration.push_back(model.sampleQuery(rng));
    device.calibrateThreshold(calibration);

    const std::vector<float> query = model.sampleQuery(rng);
    InferenceSession session = device.beginInference();
    session.sendInt4(query);
    session.sendCfp32(query);
    session.screen();
    session.classify();
    xclass::ApproximateClassifier::Prediction top;
    session.results(3, top);
    std::printf("[accel mode] top-3:");
    for (const std::uint64_t cat : top.topCategories)
        std::printf(" %llu", (unsigned long long)cat);
    std::printf("  (%.3f ms device latency)\n",
                sim::tickToMs(session.latency()));

    // --- Back to SSD mode ------------------------------------------
    device.ecssdDisable();
    const sim::Tick again = device.ssdRead(3);
    std::printf("[SSD mode] data still readable at %.2f us\n",
                sim::tickToUs(again));
    return 0;
}
