#include "energy.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ecssd
{
namespace circuit
{

double
EnergyBreakdown::gflopsPerWatt(std::uint64_t fp32_flops,
                               sim::Tick elapsed) const
{
    const double seconds = sim::tickToSeconds(elapsed);
    if (seconds <= 0.0 || totalUj() <= 0.0)
        return 0.0;
    const double gflops =
        static_cast<double>(fp32_flops) / seconds / 1e9;
    const double watts = totalUj() * 1e-6 / seconds;
    return gflops / watts;
}

EnergyBreakdown
estimateEnergy(const EnergyActivity &activity,
               const AcceleratorEstimate &accel,
               const EnergyParams &params)
{
    EnergyBreakdown out;
    const double page_bits =
        static_cast<double>(params.pageBytes) * 8.0;

    out.flashUj = (static_cast<double>(activity.flashPagesRead)
                       * params.flashReadPjPerBit
                   + static_cast<double>(
                         activity.flashPagesProgrammed)
                       * params.flashProgramPjPerBit)
        * page_bits * 1e-6;

    out.dramUj = static_cast<double>(activity.dramBytes) * 8.0
        * params.dramPjPerBit * 1e-6;

    out.hostLinkUj = static_cast<double>(activity.hostBytes) * 8.0
        * params.hostLinkPjPerBit * 1e-6;

    // Accelerator dynamic energy: the MAC arrays burn their Table 4
    // power while occupied; occupancy = ops / peak rate.
    const double fp32_busy_s = accel.fp32PeakGflops > 0.0
        ? static_cast<double>(activity.fp32Flops)
            / (accel.fp32PeakGflops * 1e9)
        : 0.0;
    const double int4_busy_s = accel.int4PeakGops > 0.0
        ? static_cast<double>(activity.int4Ops)
            / (accel.int4PeakGops * 1e9)
        : 0.0;
    // Table 4 rows: [0] FP32 array, [1] INT4 array.
    ECSSD_ASSERT(accel.rows.size() >= 2,
                 "accelerator estimate missing MAC rows");
    out.acceleratorUj = accel.rows[0].powerMw * fp32_busy_s * 1e3
        + accel.rows[1].powerMw * int4_busy_s * 1e3;

    out.backgroundUj = params.backgroundPowerMw
        * sim::tickToSeconds(activity.elapsed) * 1e3;
    return out;
}

} // namespace circuit
} // namespace ecssd
