/**
 * @file
 * The SSD device front-end: ties the flash array, FTL, DRAM and host
 * link together and times host commands (the "SSD mode" of Section
 * 4.1): each command takes an issue tick and returns its completion
 * tick.  Accelerator-mode code accesses the internals directly
 * through the accessors, exactly as the inserted accelerator sits on
 * the internal datapath in the real design.
 */

#ifndef ECSSD_SSDSIM_SSD_HH
#define ECSSD_SSDSIM_SSD_HH

#include <cstdint>

#include "sim/types.hh"
#include "ssdsim/config.hh"
#include "ssdsim/dram.hh"
#include "ssdsim/flash.hh"
#include "ssdsim/ftl.hh"

namespace ecssd
{
namespace ssdsim
{

/** Host-visible statistics. */
struct SsdStats
{
    std::uint64_t hostReadCommands = 0;
    std::uint64_t hostWriteCommands = 0;
    std::uint64_t hostBytesIn = 0;
    std::uint64_t hostBytesOut = 0;
    /** Raw bytes moved via hostTransfer (accelerator-mode I/O). */
    std::uint64_t hostBytesRaw = 0;
    /** Host reads completed with an uncorrectable-media error. */
    std::uint64_t hostUncorrectableReads = 0;
};

/** The simulated SSD device. */
class SsdDevice
{
  public:
    /** @param config Geometry/timing (Table 2 defaults). */
    explicit SsdDevice(const SsdConfig &config);

    const SsdConfig &config() const { return config_; }

    /**
     * Host write of one logical page (SSD mode) issued at
     * @p issue_at: the host-link transfer in, the FTL allocation,
     * and the flash program.
     *
     * @return Completion tick of the program.
     */
    sim::Tick hostWrite(LogicalPage lpa, sim::Tick issue_at);

    /**
     * Host read of one logical page (SSD mode) issued at
     * @p issue_at.
     *
     * @return Tick the data has crossed the host link back out (an
     *         uncorrectable read: its completion entry).
     */
    sim::Tick hostRead(LogicalPage lpa, sim::Tick issue_at);

    /**
     * Host-link transfer of raw bytes (used for feature upload /
     * result download in accelerator mode).
     *
     * @return Completion tick.
     */
    sim::Tick hostTransfer(std::uint64_t bytes, sim::Tick issue_at);

    // --- Internal components (accelerator-mode datapath) ----------
    FlashArray &flash() { return flash_; }
    const FlashArray &flash() const { return flash_; }
    Ftl &ftl() { return ftl_; }
    const Ftl &ftl() const { return ftl_; }
    DramModel &dram() { return dram_; }
    const DramModel &dram() const { return dram_; }

    const SsdStats &stats() const { return stats_; }

    /** SMART-style health snapshot (see ssdsim/health.hh). */
    HealthReport health(sim::Tick now) const
    {
        return ftl_.healthReport(now);
    }

    /**
     * Attach (or detach, with nullptr) a span tracer to the internal
     * components that emit busy-interval spans (currently the flash
     * array).  Recording never alters the simulated timing.
     */
    void setSpanTracer(sim::SpanTracer *tracer)
    {
        flash_.setSpanTracer(tracer);
    }

    /**
     * Snapshot device statistics into @p registry as gauges: the
     * flash channels ("flash.*"), the FTL ("ftl.*"), and the host
     * front-end ("ssd.*").
     */
    void publishMetrics(sim::MetricsRegistry &registry) const;

    /** Reset all internal timelines/statistics (not the FTL map). */
    void resetTimelines();

  private:
    SsdConfig config_;
    FlashArray flash_;
    Ftl ftl_;
    DramModel dram_;
    sim::Tick hostLinkFreeAt_ = 0;
    SsdStats stats_;
};

} // namespace ssdsim
} // namespace ecssd

#endif // ECSSD_SSDSIM_SSD_HH
