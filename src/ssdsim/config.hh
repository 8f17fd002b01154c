/**
 * @file
 * SSD configuration (Table 2 of the paper is the default).
 */

#ifndef ECSSD_SSDSIM_CONFIG_HH
#define ECSSD_SSDSIM_CONFIG_HH

#include <cmath>
#include <cstdint>

#include "sim/types.hh"

namespace ecssd
{
namespace ssdsim
{

/**
 * Static geometry and timing of the simulated SSD.
 *
 * Defaults reproduce the paper's Table 2 medium-end configuration:
 * 8 channels x 1 GB/s NVDDR3, 4 KB pages, 4 TB flash, 16 GB DRAM at
 * 12.8 GB/s, 4 MB data buffer, PCIe 3.0 x4 host interface.
 */
struct SsdConfig
{
    // --- Flash geometry -------------------------------------------------
    // 8 x 16 x 2 x 8192 x 512 x 4096 B = 4 TiB.  Sixteen dies per
    // channel give tR / dies = 3.1 us < 4.1 us page transfer, so a
    // *die-balanced* read stream saturates the 1 GB/s channel bus
    // (the paper's bandwidth assumption); an unbalanced stream is
    // die-sense-bound, which is where the interleaving strategies
    // differ.
    unsigned channels = 8;
    unsigned diesPerChannel = 16;
    unsigned planesPerDie = 2;
    unsigned blocksPerPlane = 8192;
    unsigned pagesPerBlock = 512;
    unsigned pageBytes = 4096;

    // --- Flash timing ----------------------------------------------------
    /** NVDDR3 channel bus bandwidth, GB/s. */
    double channelBandwidthGbps = 1.0;
    /** Die-internal page sense latency (tR). */
    double readLatencyUs = 50.0;
    /** Page program latency (tPROG). */
    double programLatencyUs = 200.0;
    /** Block erase latency (tBERS). */
    double eraseLatencyMs = 1.5;
    /**
     * Allow the planes of one die to sense concurrently.  Real
     * multi-plane reads carry block-alignment constraints that
     * random candidate reads rarely satisfy, so the conservative
     * default serializes sensing per die; the ablation bench
     * quantifies the upside of relaxing it.
     */
    bool multiPlaneRead = false;
    /**
     * Fraction of page reads that need a read-retry (voltage
     * re-calibration) costing one extra tR.  Models media wear /
     * read-disturb; 0 disables injection.
     */
    double readRetryRate = 0.0;
    /**
     * Fraction of block erases that fail and retire the block (bad
     * block growth).  0 disables injection.
     */
    double eraseFailureRate = 0.0;
    /**
     * Fraction of page reads whose ECC cannot recover the data even
     * after the full retry ladder.  The read still occupies the die
     * and bus (the failure is discovered after the transfer, when
     * the controller decodes the codeword) plus one extra tR for the
     * exhausted retry ladder; callers receive the failure through
     * readPage's out-parameter.  0 disables injection.
     *
     * With the wear-lifecycle model enabled (below), this is the
     * *beginning-of-life* rate that the erase-count and retention
     * terms add to.
     */
    double uncorrectableReadRate = 0.0;

    // --- Wear lifecycle ---------------------------------------------
    /**
     * Uncorrectable-rate contribution of block wear: a block with
     * erase count E adds
     *   wearErrorCoefficient * (E / wearRatedCycles)^wearExponent
     * to the per-read uncorrectable probability.  0 disables the
     * term (and keeps the simulation bit-identical to a build
     * without the wear model).
     */
    double wearErrorCoefficient = 0.0;
    /** Shape of the wear curve (raw BER grows superlinearly in P/E
     *  cycles on real NAND). */
    double wearExponent = 2.0;
    /** P/E cycles at which the wear term equals the coefficient
     *  (the media's rated endurance). */
    double wearRatedCycles = 3000.0;
    /**
     * Uncorrectable-rate contribution of retention age: a page that
     * has sat programmed for S simulated seconds adds
     * retentionErrorCoefficient * S.  Retention is tracked at block
     * granularity (the oldest page in the block dominates the
     * block's raw BER).  0 disables the term.
     */
    double retentionErrorCoefficient = 0.0;

    // --- End of life ------------------------------------------------
    /**
     * End-of-life guard: when garbage collection can make no more
     * progress and an allocation pool's spare-block count is at or
     * below this, the FTL turns read-only instead of dying.  The
     * device always turns read-only (or, for legacy callers, fatal)
     * when a pool is fully exhausted, whatever this is set to.
     */
    unsigned eolSpareBlocks = 0;
    /** Predicted uncorrectable rate treated as media end-of-life by
     *  the health report's remaining-life estimate. */
    double eolMediaErrorRate = 1e-2;

    // --- DRAM ------------------------------------------------------------
    std::uint64_t dramBytes = 16ULL * 1024 * 1024 * 1024;
    double dramBandwidthGbps = 12.8;
    double dramAccessLatencyNs = 50.0;

    // --- Buffer / host link ------------------------------------------
    std::uint64_t dataBufferBytes = 4ULL * 1024 * 1024;
    /** PCIe 3.0 x4 effective bandwidth, GB/s. */
    double hostLinkGbps = 3.938;
    /** Per-command host link latency. */
    double hostLinkLatencyUs = 2.0;

    // --- FTL -------------------------------------------------------------
    /** Fraction of blocks reserved as over-provisioning for GC. */
    double overProvisioning = 0.07;
    /** GC kicks in when the free-block fraction drops below this. */
    double gcThreshold = 0.02;

    // --- Derived ----------------------------------------------------
    std::uint64_t
    pagesPerDie() const
    {
        return static_cast<std::uint64_t>(planesPerDie)
            * blocksPerPlane * pagesPerBlock;
    }

    std::uint64_t
    pagesPerChannel() const
    {
        return pagesPerDie() * diesPerChannel;
    }

    std::uint64_t
    totalPages() const
    {
        return pagesPerChannel() * channels;
    }

    std::uint64_t
    capacityBytes() const
    {
        return totalPages() * pageBytes;
    }

    /** Aggregate internal flash bandwidth, GB/s. */
    double
    internalBandwidthGbps() const
    {
        return channelBandwidthGbps * channels;
    }

    /** Time for the channel bus to move one page. */
    sim::Tick
    pageTransferTime() const
    {
        return sim::transferTime(pageBytes, channelBandwidthGbps);
    }

    sim::Tick
    readLatency() const
    {
        return sim::microseconds(readLatencyUs);
    }

    sim::Tick
    programLatency() const
    {
        return sim::microseconds(programLatencyUs);
    }

    sim::Tick
    eraseLatency() const
    {
        return sim::milliseconds(eraseLatencyMs);
    }

    // --- Wear-lifecycle model --------------------------------------
    /** True when any age-dependent error term is active. */
    bool
    wearModelEnabled() const
    {
        return wearErrorCoefficient > 0.0
            || retentionErrorCoefficient > 0.0;
    }

    /**
     * The per-read uncorrectable probability of a page in a block
     * with @p erase_count erases whose data has aged
     * @p retention_age ticks since program.
     *
     * With both coefficients at zero this returns exactly
     * uncorrectableReadRate, so zero-coefficient configurations
     * replay the flat PR-1 fault sequence bit for bit.
     */
    double
    predictedUncorrectableRate(std::uint64_t erase_count,
                               sim::Tick retention_age) const
    {
        double rate = uncorrectableReadRate;
        if (wearErrorCoefficient > 0.0)
            rate += wearErrorCoefficient
                * std::pow(static_cast<double>(erase_count)
                               / wearRatedCycles,
                           wearExponent);
        if (retentionErrorCoefficient > 0.0)
            rate += retentionErrorCoefficient
                * sim::tickToSeconds(retention_age);
        return rate < 1.0 ? rate : 1.0;
    }

    /**
     * Reject out-of-range or contradictory configurations with a
     * descriptive sim::fatal.  Called from FlashArray/Ftl/SsdDevice
     * construction, so a bad knob fails fast instead of silently
     * misbehaving deep in a run.
     */
    void validate() const;
};

/**
 * A tiny geometry for unit tests: identical timing to the default but
 * with few blocks, so GC and wear paths trigger quickly and the FTL's
 * metadata stays small.
 */
inline SsdConfig
smallTestConfig()
{
    SsdConfig config;
    config.channels = 4;
    config.diesPerChannel = 2;
    config.planesPerDie = 1;
    config.blocksPerPlane = 16;
    config.pagesPerBlock = 8;
    config.gcThreshold = 0.15;
    return config;
}

} // namespace ssdsim
} // namespace ecssd

#endif // ECSSD_SSDSIM_CONFIG_HH
