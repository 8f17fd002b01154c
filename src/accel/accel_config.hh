/**
 * @file
 * Configuration of the inserted accelerator's performance model.
 *
 * The compute rates derive from the circuit model: the FP32 array
 * area is fixed at the Table 4 allocation (64 alignment-free MACs),
 * and alternative datapaths (naive / SK Hynix) fit however many MACs
 * that same silicon area allows, which is exactly the paper's
 * iso-area comparison (Section 4.2: naive reaches only ~29 GFLOPS
 * where alignment-free reaches 50).
 */

#ifndef ECSSD_ACCEL_ACCEL_CONFIG_HH
#define ECSSD_ACCEL_ACCEL_CONFIG_HH

#include "accel/row_cache.hh"
#include "circuit/accelerator_model.hh"
#include "xclass/workload.hh"

namespace ecssd
{
namespace accel
{

/** On-flash weight precision (CFP16 is this repo's extension). */
enum class WeightPrecision
{
    /** The paper's 32-bit compensation format. */
    Cfp32,
    /** Half-width compensation format: half the flash traffic at
     *  FP16-class accuracy. */
    Cfp16,
};

/** Stored bytes of one of @p spec's weight rows at @p precision
 *  (CFP16 halves the row: 2 bytes per value). */
inline std::uint64_t
storedRowBytes(const xclass::BenchmarkSpec &spec, WeightPrecision precision)
{
    return precision == WeightPrecision::Cfp16 ? spec.hiddenDim * 2ULL
                                               : spec.rowBytes();
}

/** Performance-relevant accelerator parameters. */
struct AccelConfig
{
    /** FP32 datapath variant. */
    circuit::FpMacKind fpKind = circuit::FpMacKind::AlignmentFree;
    /** INT4 MAC count (Table 2). */
    unsigned int4Macs = 256;
    /** Stage overlap (ping-pong buffers + INT4/FP32 pipelining). */
    bool overlapStages = true;
    /** On-flash weight precision for the candidate rows. */
    WeightPrecision weightPrecision = WeightPrecision::Cfp32;
    /** Accelerator clock. */
    double frequencyHz = circuit::acceleratorFrequencyHz;
    /** Table 2 INT4 staging buffer size (bytes). */
    std::uint64_t int4WeightBufferBytes = 128 * 1024;

    /** DRAM hot-row candidate cache (disabled by default: the zero
     *  capacity keeps the pipeline bit-identical to a cache-less
     *  build). */
    CacheConfig cache;

    /**
     * Optional explicit compute rates (GFLOPS / GOPS); zero means
     * "derive from the circuit model".  Baseline architectures with
     * different compute organizations (e.g. GenStore's per-channel
     * accelerators) set these directly.
     */
    double fp32GflopsOverride = 0.0;
    double int4GopsOverride = 0.0;

    /** Silicon area reserved for the FP32 array (Table 4's 64
     *  alignment-free MACs). */
    double
    fp32ArrayAreaMm2() const
    {
        return circuit::macArray(circuit::alignmentFreeFp32Mac(), 64)
            .areaMm2();
    }

    /** FP32 MACs of the chosen datapath fitting that area. */
    unsigned
    fp32Macs() const
    {
        if (fpKind == circuit::FpMacKind::AlignmentFree)
            return 64;
        return circuit::macsInArea(circuit::fp32MacOf(fpKind),
                                   fp32ArrayAreaMm2());
    }

    /** Peak FP32 throughput in GFLOPS. */
    double
    fp32Gflops() const
    {
        if (fp32GflopsOverride > 0.0)
            return fp32GflopsOverride;
        return circuit::peakGflops(fp32Macs(), frequencyHz);
    }

    /** Peak INT4 throughput in GOPS. */
    double
    int4Gops() const
    {
        if (int4GopsOverride > 0.0)
            return int4GopsOverride;
        return circuit::peakGflops(int4Macs, frequencyHz);
    }
};

} // namespace accel
} // namespace ecssd

#endif // ECSSD_ACCEL_ACCEL_CONFIG_HH
