#include "baselines.hh"

#include <algorithm>
#include <memory>

#include "accel/pipeline.hh"
#include "circuit/mac_circuit.hh"
#include "ecssd/system.hh"
#include "sim/logging.hh"

namespace ecssd
{
namespace baselines
{

namespace
{

/** Page-granular flash byte count of a candidate row set. */
std::uint64_t
candidatePageBytes(const xclass::BenchmarkSpec &spec,
                   std::span<const std::uint64_t> candidates,
                   unsigned page_bytes)
{
    const std::uint64_t rows_per_page = std::max<std::uint64_t>(
        1, page_bytes / spec.rowBytes());
    const unsigned pages_per_row = static_cast<unsigned>(
        (spec.rowBytes() + page_bytes - 1) / page_bytes);
    std::uint64_t pages = 0;
    std::uint64_t last_group = ~std::uint64_t(0);
    for (const std::uint64_t row : candidates) {
        const std::uint64_t group = row / rows_per_page;
        if (group == last_group)
            continue;
        last_group = group;
        pages += pages_per_row;
    }
    return pages * page_bytes;
}

/** GenStore-like in-SSD baseline via the shared pipeline model. */
double
genStoreBatchMs(const xclass::BenchmarkSpec &spec, bool screening,
                unsigned batches, std::uint64_t seed)
{
    EcssdOptions options;
    options.fpKind = circuit::FpMacKind::Naive;
    options.layoutKind = layout::LayoutKind::Uniform;
    // GenStore stores everything in flash uniformly (homogeneous).
    options.int4Placement = accel::Int4Placement::Flash;
    options.screening = screening;
    options.seed = seed;

    EcssdSystem system(spec, options);

    // Iso-area compute: GenStore-N spends the whole 0.1836 mm^2 on
    // naive FP32 MACs; GenStore-AP keeps ECSSD's INT4 array and
    // fills the FP32 allocation with naive MACs.  Per-channel
    // accelerators quantize the MACs to a multiple of the channel
    // count.
    const double total_area =
        circuit::macArray(circuit::alignmentFreeFp32Mac(), 64)
            .areaMm2()
        + circuit::macArray(circuit::int4Mac(), 256).areaMm2()
        + 0.0006;
    const double fp32_area = screening
        ? circuit::macArray(circuit::alignmentFreeFp32Mac(), 64)
              .areaMm2()
        : total_area;
    unsigned macs =
        circuit::macsInArea(circuit::naiveFp32Mac(), fp32_area);
    const unsigned channels = options.ssd.channels;
    macs = std::max(channels, macs - macs % channels);

    accel::AccelConfig genstore_config;
    genstore_config.fpKind = circuit::FpMacKind::Naive;
    genstore_config.fp32GflopsOverride =
        circuit::peakGflops(macs);
    if (!screening)
        genstore_config.int4GopsOverride = 0.0;
    accel::InferencePipeline pipeline(
        spec, genstore_config, system.ssd(), system.strategy(),
        accel::Int4Placement::Flash);
    pipeline.setScreeningEnabled(screening);

    std::unique_ptr<accel::CandidateSource> source;
    if (screening)
        source = std::make_unique<accel::TraceSource>(spec, seed);
    else
        source =
            std::make_unique<accel::AllRowsSource>(spec.categories);
    const accel::RunResult result =
        pipeline.run(*source, batches);
    return result.meanBatchMs();
}

} // namespace

std::vector<Architecture>
allBaselines()
{
    return {Architecture::CpuN,       Architecture::SmartSsdN,
            Architecture::GenStoreN,  Architecture::SmartSsdHN,
            Architecture::CpuAp,      Architecture::SmartSsdAp,
            Architecture::GenStoreAp, Architecture::SmartSsdHAp};
}

std::string
toString(Architecture arch)
{
    switch (arch) {
      case Architecture::CpuN:
        return "CPU-N";
      case Architecture::CpuAp:
        return "CPU-AP";
      case Architecture::GenStoreN:
        return "GenStore-N";
      case Architecture::GenStoreAp:
        return "GenStore-AP";
      case Architecture::SmartSsdN:
        return "SmartSSD-N";
      case Architecture::SmartSsdAp:
        return "SmartSSD-AP";
      case Architecture::SmartSsdHN:
        return "SmartSSD-H-N";
      case Architecture::SmartSsdHAp:
        return "SmartSSD-H-AP";
      case Architecture::Ecssd:
        return "ECSSD";
    }
    return "unknown";
}

bool
usesScreening(Architecture arch)
{
    switch (arch) {
      case Architecture::CpuAp:
      case Architecture::GenStoreAp:
      case Architecture::SmartSsdAp:
      case Architecture::SmartSsdHAp:
      case Architecture::Ecssd:
        return true;
      default:
        return false;
    }
}

BaselineResult
simulate(Architecture arch, const xclass::BenchmarkSpec &spec,
         unsigned batches, std::uint64_t seed, const HostParams &host)
{
    BaselineResult result;
    result.arch = arch;
    result.name = toString(arch);
    ECSSD_ASSERT(batches > 0, "need at least one batch");

    const ssdsim::SsdConfig ssd_config;
    const double batch = spec.batchSize;
    const double dense_bytes =
        static_cast<double>(spec.fp32WeightBytes());
    const double dense_flops =
        batch * static_cast<double>(spec.categories)
        * spec.hiddenDim * 2.0;
    const double screen_ops =
        batch * static_cast<double>(spec.categories)
        * spec.shrunkDim() * 2.0;
    const double int4_bytes =
        static_cast<double>(spec.int4WeightBytes());
    const double internal_gbps =
        ssd_config.internalBandwidthGbps();

    // Candidate statistics for the -AP variants.
    double cand_bytes = 0.0;
    double cand_rows = 0.0;
    if (usesScreening(arch)) {
        xclass::CandidateTrace trace(spec, seed);
        for (unsigned b = 0; b < batches; ++b) {
            const std::vector<std::uint64_t> candidates =
                trace.drawCandidates();
            cand_rows += static_cast<double>(candidates.size());
            cand_bytes += static_cast<double>(candidatePageBytes(
                spec, candidates, ssd_config.pageBytes));
        }
        cand_rows /= batches;
        cand_bytes /= batches;
    }
    const double cand_flops =
        batch * cand_rows * spec.hiddenDim * 2.0;
    result.candidateRows = usesScreening(arch)
        ? static_cast<std::uint64_t>(cand_rows)
        : spec.categories;

    double seconds = 0.0;
    switch (arch) {
      case Architecture::CpuN:
        // Weights stream over the SSD I/O link, then the CPU's
        // memory-bound GEMV grinds through them; the two phases do
        // not overlap in the naive implementation.
        seconds = dense_bytes / (host.ssdIoGbps * 1e9)
            + dense_flops / (host.cpuGemvGflops * 1e9);
        break;

      case Architecture::CpuAp:
        // INT4 screener lives in host DRAM; candidates come from the
        // SSD as discontinuous page reads.
        seconds = screen_ops / (host.cpuInt8Gops * 1e9)
            + cand_bytes
                / (host.ssdIoGbps * host.randomReadEfficiency * 1e9)
            + cand_flops / (host.cpuGemvGflops * 1e9);
        break;

      case Architecture::GenStoreN:
        return BaselineResult{
            arch, toString(arch),
            genStoreBatchMs(spec, false, batches, seed),
            spec.categories};

      case Architecture::GenStoreAp:
        return BaselineResult{
            arch, toString(arch),
            genStoreBatchMs(spec, true, batches, seed),
            static_cast<std::uint64_t>(cand_rows)};

      case Architecture::SmartSsdN:
      case Architecture::SmartSsdHN: {
        const double switch_gbps = arch == Architecture::SmartSsdN
            ? host.switchGbps
            : host.switchHighGbps;
        // Streaming is bounded by the slower of internal flash and
        // the switch; FPGA compute overlaps the stream.
        seconds = std::max(
            {dense_bytes / (internal_gbps * 1e9),
             dense_bytes / (switch_gbps * 1e9),
             dense_flops / (host.fpgaGflops * 1e9)});
        break;
      }

      case Architecture::SmartSsdAp:
      case Architecture::SmartSsdHAp: {
        const double switch_gbps = arch == Architecture::SmartSsdAp
            ? host.switchGbps
            : host.switchHighGbps;
        // Stage 1: INT4 screener streams out (sequential), screening
        // runs on the FPGA as data arrives.
        const double stage1 = std::max(
            {int4_bytes / (internal_gbps * 1e9),
             int4_bytes / (switch_gbps * 1e9),
             screen_ops / (host.fpgaInt4Gops * 1e9)});
        // Stage 2: discontinuous candidate pages cross the switch at
        // its random-read efficiency; classification overlaps.
        const double stage2 = std::max(
            {cand_bytes / (internal_gbps * 1e9),
             cand_bytes
                 / (switch_gbps * host.randomReadEfficiency * 1e9),
             cand_flops / (host.fpgaGflops * 1e9)});
        seconds = stage1 + stage2;
        break;
      }

      case Architecture::Ecssd: {
        EcssdSystem system(spec, EcssdOptions::full());
        const accel::RunResult run = system.runInference(batches);
        return BaselineResult{
            arch, toString(arch), run.meanBatchMs(),
            static_cast<std::uint64_t>(cand_rows)};
      }
    }

    result.batchMs = seconds * 1e3;
    return result;
}

} // namespace baselines
} // namespace ecssd
