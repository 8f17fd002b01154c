/**
 * @file
 * Energy model tests: composition, scaling, and end-to-end
 * efficiency sanity against the Section 7.3 numbers.
 */

#include <gtest/gtest.h>

#include "circuit/energy.hh"
#include "ecssd/system.hh"

using namespace ecssd;
using namespace ecssd::circuit;

namespace
{

AcceleratorEstimate
accelEstimate()
{
    return estimateAccelerator(AcceleratorConfig{});
}

} // namespace

TEST(Energy, ZeroActivityOnlyBackground)
{
    EnergyActivity activity;
    activity.elapsed = sim::milliseconds(1.0);
    const EnergyBreakdown e = estimateEnergy(activity, accelEstimate());
    EXPECT_EQ(e.flashUj, 0.0);
    EXPECT_EQ(e.dramUj, 0.0);
    EXPECT_EQ(e.hostLinkUj, 0.0);
    EXPECT_EQ(e.acceleratorUj, 0.0);
    EXPECT_GT(e.backgroundUj, 0.0);
    // 900 mW for 1 ms = 900 uJ.
    EXPECT_NEAR(e.backgroundUj, 900.0, 1.0);
}

TEST(Energy, FlashEnergyScalesWithPages)
{
    EnergyActivity one;
    one.flashPagesRead = 1;
    EnergyActivity many;
    many.flashPagesRead = 1000;
    const double e1 = estimateEnergy(one, accelEstimate()).flashUj;
    const double e1000 = estimateEnergy(many, accelEstimate()).flashUj;
    EXPECT_NEAR(e1000, 1000.0 * e1, 1e-9);
    // 60 pJ/bit * 32768 bits ~= 2 uJ per page.
    EXPECT_NEAR(e1, 1.97, 0.1);
}

TEST(Energy, ProgramCostsMoreThanRead)
{
    EnergyActivity read;
    read.flashPagesRead = 10;
    EnergyActivity program;
    program.flashPagesProgrammed = 10;
    EXPECT_GT(estimateEnergy(program, accelEstimate()).flashUj,
              estimateEnergy(read, accelEstimate()).flashUj);
}

TEST(Energy, AcceleratorEnergyTracksOccupancy)
{
    EnergyActivity activity;
    activity.fp32Flops = 51200000000ULL; // one second at peak
    activity.elapsed = sim::seconds(1.0);
    const EnergyBreakdown e = estimateEnergy(activity, accelEstimate());
    // One second of the FP32 array at 33.87 mW ~= 33.87 mJ.
    EXPECT_NEAR(e.acceleratorUj, 33860.0, 200.0);
}

TEST(Energy, GflopsPerWattIsFinite)
{
    EnergyActivity activity;
    activity.fp32Flops = 1000000000ULL;
    activity.elapsed = sim::milliseconds(100.0);
    activity.flashPagesRead = 10000;
    const EnergyBreakdown e = estimateEnergy(activity, accelEstimate());
    const double eff =
        e.gflopsPerWatt(activity.fp32Flops, activity.elapsed);
    EXPECT_GT(eff, 0.0);
    EXPECT_LT(eff, 100.0);
}

TEST(Energy, EndToEndRunEfficiencyIsPlausible)
{
    // Whole-device efficiency of a real screened run lands in the
    // single-digit GFLOPS/W band the paper reports (4.55 at the
    // device level).
    const xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("XMLCNN-S10M"), 65536);
    EcssdSystem system(spec, EcssdOptions::full());
    const accel::RunResult run = system.runInference(2);
    const EnergyBreakdown e = system.estimateRunEnergy(run);
    EXPECT_GT(e.totalUj(), 0.0);
    EXPECT_GT(e.flashUj, 0.0);
    EXPECT_GT(e.dramUj, 0.0);
    EXPECT_GT(e.hostLinkUj, 0.0);
    const double eff = e.gflopsPerWatt(
        run.batches[0].fp32Flops + run.batches[1].fp32Flops,
        run.totalTime);
    EXPECT_GT(eff, 0.2);
    EXPECT_LT(eff, 50.0);
}

TEST(Energy, ScreeningSavesEnergy)
{
    const xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("XMLCNN-S10M"), 32768);
    EcssdSystem screened(spec, EcssdOptions::full());
    EcssdOptions dense_options = EcssdOptions::full();
    dense_options.screening = false;
    EcssdSystem dense(spec, dense_options);

    const accel::RunResult fast = screened.runInference(1);
    const double fast_uj =
        screened.estimateRunEnergy(fast).totalUj();
    const accel::RunResult slow = dense.runInference(1);
    const double slow_uj = dense.estimateRunEnergy(slow).totalUj();
    EXPECT_LT(fast_uj, slow_uj / 2.0);
}
