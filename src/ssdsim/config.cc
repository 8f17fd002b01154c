#include "config.hh"

#include "sim/logging.hh"

namespace ecssd
{
namespace ssdsim
{

namespace
{

void
requireRate(double value, const char *name)
{
    if (value < 0.0 || value > 1.0)
        sim::fatal("SsdConfig: ", name, " must be in [0, 1], got ",
                   value);
}

} // namespace

void
SsdConfig::validate() const
{
    // --- Geometry ---------------------------------------------------
    if (channels == 0)
        sim::fatal("SsdConfig: channels must be positive");
    if (diesPerChannel == 0)
        sim::fatal("SsdConfig: diesPerChannel must be positive");
    if (planesPerDie == 0)
        sim::fatal("SsdConfig: planesPerDie must be positive");
    if (blocksPerPlane == 0)
        sim::fatal("SsdConfig: blocksPerPlane must be positive");
    if (pagesPerBlock == 0)
        sim::fatal("SsdConfig: pagesPerBlock must be positive");
    if (pageBytes == 0)
        sim::fatal("SsdConfig: pageBytes must be positive");

    // --- Timing / bandwidth ----------------------------------------
    if (channelBandwidthGbps <= 0.0 || dramBandwidthGbps <= 0.0
        || hostLinkGbps <= 0.0)
        sim::fatal("SsdConfig: bandwidths must be positive "
                   "(channel ", channelBandwidthGbps, ", dram ",
                   dramBandwidthGbps, ", host ", hostLinkGbps,
                   " GB/s)");
    if (readLatencyUs < 0.0 || programLatencyUs < 0.0
        || eraseLatencyMs < 0.0 || dramAccessLatencyNs < 0.0
        || hostLinkLatencyUs < 0.0)
        sim::fatal("SsdConfig: latencies must be non-negative");

    // --- Fault rates ------------------------------------------------
    requireRate(readRetryRate, "readRetryRate");
    requireRate(eraseFailureRate, "eraseFailureRate");
    requireRate(uncorrectableReadRate, "uncorrectableReadRate");

    // --- FTL --------------------------------------------------------
    if (overProvisioning < 0.0 || overProvisioning >= 1.0)
        sim::fatal("SsdConfig: overProvisioning must be in [0, 1), "
                   "got ", overProvisioning);
    if (gcThreshold < 0.0 || gcThreshold >= 1.0)
        sim::fatal("SsdConfig: gcThreshold must be in [0, 1), got ",
                   gcThreshold);

    // --- Wear lifecycle --------------------------------------------
    if (wearErrorCoefficient < 0.0)
        sim::fatal("SsdConfig: wearErrorCoefficient must be "
                   "non-negative, got ", wearErrorCoefficient);
    if (retentionErrorCoefficient < 0.0)
        sim::fatal("SsdConfig: retentionErrorCoefficient must be "
                   "non-negative, got ", retentionErrorCoefficient);
    if (wearExponent < 0.0)
        sim::fatal("SsdConfig: wearExponent must be non-negative, "
                   "got ", wearExponent);
    if (wearRatedCycles <= 0.0)
        sim::fatal("SsdConfig: wearRatedCycles must be positive, "
                   "got ", wearRatedCycles);

    // --- End of life -----------------------------------------------
    if (eolSpareBlocks >= blocksPerPlane)
        sim::fatal("SsdConfig: eolSpareBlocks (", eolSpareBlocks,
                   ") must be below blocksPerPlane (", blocksPerPlane,
                   "); the device would be born read-only");
    if (eolMediaErrorRate <= 0.0 || eolMediaErrorRate > 1.0)
        sim::fatal("SsdConfig: eolMediaErrorRate must be in (0, 1], "
                   "got ", eolMediaErrorRate);
}

} // namespace ssdsim
} // namespace ecssd
