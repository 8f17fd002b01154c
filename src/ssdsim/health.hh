/**
 * @file
 * SMART-style device health telemetry.
 *
 * The FTL assembles a HealthReport from its wear bookkeeping plus the
 * flash array's media counters (the NVMe SMART / Health Information
 * log page analog); SsdDevice::health() and EcssdSystem::health()
 * re-export it, and the serving layers above use it to act *before*
 * data is lost — the scale-out fleet drains a degrading shard onto a
 * spare device instead of waiting for the reactive failover path.
 */

#ifndef ECSSD_SSDSIM_HEALTH_HH
#define ECSSD_SSDSIM_HEALTH_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace ecssd
{
namespace ssdsim
{

/** A point-in-time SMART-style health snapshot of one device. */
struct HealthReport
{
    /** Tick the report was captured at (retention ages are measured
     *  against this clock). */
    sim::Tick capturedAt = 0;

    // --- Wear -------------------------------------------------------
    /** Erase-count histogram: (erase count, blocks at that count),
     *  ascending; covers every block including retired ones. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
        eraseHistogram;
    std::uint64_t minEraseCount = 0;
    std::uint64_t maxEraseCount = 0;
    double meanEraseCount = 0.0;

    // --- Spares / end of life --------------------------------------
    /** Free (allocatable) blocks across every pool. */
    std::uint64_t spareBlocks = 0;
    /** Blocks retired after erase failures. */
    std::uint64_t badBlocks = 0;
    /** True once the device refuses writes (spares ran out). */
    bool readOnly = false;

    // --- Serving identity -------------------------------------------
    /** Deploy epoch the serving layer stamped on this device (0 when
     *  no versioned serving layer owns it).  Lets operators tell
     *  which weight generation a device is serving. */
    std::uint64_t deployEpoch = 0;
    /** Monotone weight-version id of the deployed model (0 = none or
     *  unversioned legacy deploy). */
    std::uint64_t weightVersion = 0;

    // --- Media-error trend -----------------------------------------
    /** Page reads the flash array has served (all paths). */
    std::uint64_t mediaReads = 0;
    /** Reads whose ECC failed after the full retry ladder. */
    std::uint64_t mediaUncorrectable = 0;
    /** Observed uncorrectable fraction of mediaReads. */
    double observedErrorRate = 0.0;
    /** Model-predicted uncorrectable rate of a mean-wear page whose
     *  data has aged since device deployment (tick 0). */
    double predictedErrorRate = 0.0;

    /**
     * Remaining-life estimate in [0, 1]: the minimum of the erase
     * budget left (mean erase count vs rated cycles), the
     * over-provisioned spares left (bad blocks vs the OP pool), and
     * the media-error headroom (predicted rate vs the configured
     * end-of-life rate).  Each term is monotone non-increasing over
     * a device's lifetime, so the estimate never recovers on its
     * own — only hardware replacement resets it.
     */
    double lifeRemaining = 1.0;
};

} // namespace ssdsim
} // namespace ecssd

#endif // ECSSD_SSDSIM_HEALTH_HH
