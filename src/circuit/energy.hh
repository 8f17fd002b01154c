/**
 * @file
 * End-to-end energy model of one inference run.
 *
 * Composes energy from the same sources the timing model tracks:
 * flash page reads/programs, DRAM traffic, host-link traffic, the
 * accelerator's dynamic compute energy (from the Table 4 power
 * numbers at the measured occupancy), and background/static power
 * over the elapsed time.  Constants are standard per-bit figures for
 * the technology classes the paper assumes and are documented where
 * defined.
 */

#ifndef ECSSD_CIRCUIT_ENERGY_HH
#define ECSSD_CIRCUIT_ENERGY_HH

#include <cstdint>

#include "circuit/accelerator_model.hh"
#include "sim/types.hh"

namespace ecssd
{
namespace circuit
{

/** Per-operation energy constants. */
struct EnergyParams
{
    /** NAND read energy per page bit (sense + transfer), pJ. */
    double flashReadPjPerBit = 60.0;
    /** NAND program energy per page bit, pJ. */
    double flashProgramPjPerBit = 180.0;
    /** SSD-internal DRAM access energy, pJ/bit. */
    double dramPjPerBit = 8.0;
    /** PCIe link energy, pJ/bit. */
    double hostLinkPjPerBit = 5.0;
    /**
     * Controller + peripheral static power (embedded cores, DRAM
     * refresh, clocking), mW; drawn for the whole elapsed time.
     */
    double backgroundPowerMw = 900.0;
    /** Page size used to convert page counts to bits. */
    unsigned pageBytes = 4096;
};

/** Work counts of a run (the pipeline's BatchTiming aggregates). */
struct EnergyActivity
{
    std::uint64_t flashPagesRead = 0;
    std::uint64_t flashPagesProgrammed = 0;
    std::uint64_t dramBytes = 0;
    std::uint64_t hostBytes = 0;
    std::uint64_t int4Ops = 0;
    std::uint64_t fp32Flops = 0;
    sim::Tick elapsed = 0;
};

/** Energy breakdown of a run, in microjoules. */
struct EnergyBreakdown
{
    double flashUj = 0.0;
    double dramUj = 0.0;
    double hostLinkUj = 0.0;
    double acceleratorUj = 0.0;
    double backgroundUj = 0.0;

    double
    totalUj() const
    {
        return flashUj + dramUj + hostLinkUj + acceleratorUj
            + backgroundUj;
    }

    /** Achieved FP32 energy efficiency, GFLOPS/W. */
    double gflopsPerWatt(std::uint64_t fp32_flops,
                         sim::Tick elapsed) const;
};

/**
 * Compose the energy of a run.
 *
 * @param activity Work counts.
 * @param accel The accelerator's area/power estimate (its dynamic
 *        power prorated by compute occupancy).
 * @param params Energy constants.
 */
EnergyBreakdown estimateEnergy(const EnergyActivity &activity,
                               const AcceleratorEstimate &accel,
                               const EnergyParams &params =
                                   EnergyParams{});

} // namespace circuit
} // namespace ecssd

#endif // ECSSD_CIRCUIT_ENERGY_HH
