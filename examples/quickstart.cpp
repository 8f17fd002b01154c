/**
 * @file
 * Quickstart: deploy a small classification layer on an ECSSD and
 * run one screened inference through an explicit InferenceSession
 * (the Status-reporting form of the Table 1 calls).
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>
#include <cstdlib>

#include "ecssd/api.hh"
#include "sim/rng.hh"
#include "xclass/workload.hh"

using namespace ecssd;

namespace
{

/** Die with the failing call's status instead of limping on. */
void
require(Status status, const char *call)
{
    if (status != Status::Ok) {
        std::fprintf(stderr, "%s failed: %s\n", call,
                     toString(status));
        std::exit(1);
    }
}

} // namespace

int
main()
{
    // A 4096-category, 256-dimensional classification layer -- tiny
    // by extreme-classification standards, instant to simulate.
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 4096);
    spec.hiddenDim = 256;

    std::printf("Generating a synthetic %llu x %u classifier...\n",
                (unsigned long long)spec.categories, spec.hiddenDim);
    const xclass::SyntheticModel model(spec, /*seed=*/1);

    // Bring up the device and deploy the weights: the INT4 screener
    // goes to the SSD DRAM, the CFP32 rows go to flash, placed by
    // the learning-based interleaving framework.
    EcssdApi device;
    device.ecssdEnable();
    const sim::Tick deploy_time =
        device.weightDeploy(model.weights(), spec, &model.basis());
    std::printf("Weight deployment: %.2f ms simulated\n",
                sim::tickToMs(deploy_time));

    // Train the screening threshold on a few calibration queries.
    sim::Rng rng(2);
    std::vector<std::vector<float>> calibration;
    for (int q = 0; q < 8; ++q)
        calibration.push_back(model.sampleQuery(rng));
    device.calibrateThreshold(calibration);

    // One inference, held in an explicit session: send the projected
    // INT4 input and the pre-aligned CFP32 input, screen, classify,
    // fetch results.  Each call reports misuse through its Status.
    const std::vector<float> query = model.sampleQuery(rng);
    InferenceSession session = device.beginInference();
    require(session.sendInt4(query), "sendInt4");
    require(session.sendCfp32(query), "sendCfp32");
    require(session.screen(), "screen");
    std::printf("Screener kept %zu / %llu categories (%.1f%%)\n",
                session.candidateCount(),
                (unsigned long long)spec.categories,
                100.0 * session.candidateCount()
                    / spec.categories);
    require(session.classify(), "classify");

    xclass::ApproximateClassifier::Prediction prediction;
    require(session.results(5, prediction), "results");
    std::printf("Top-5 categories:");
    for (std::size_t i = 0; i < prediction.topCategories.size();
         ++i)
        std::printf(" %llu (%.3f)",
                    (unsigned long long)prediction.topCategories[i],
                    prediction.topScores[i]);
    std::printf("\nDevice-side inference latency: %.3f ms\n",
                sim::tickToMs(session.latency()));
    return 0;
}
