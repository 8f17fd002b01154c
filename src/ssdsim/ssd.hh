/**
 * @file
 * The SSD device front-end: ties the flash array, FTL, DRAM, data
 * buffer, and host link together, and delivers host-command
 * completions through the event queue (the "SSD mode" of Section
 * 4.1).  Accelerator-mode code accesses the internals directly
 * through the accessors, exactly as the inserted accelerator sits on
 * the internal datapath in the real design.
 */

#ifndef ECSSD_SSDSIM_SSD_HH
#define ECSSD_SSDSIM_SSD_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/event_queue.hh"
#include "sim/types.hh"
#include "ssdsim/config.hh"
#include "ssdsim/data_buffer.hh"
#include "ssdsim/dram.hh"
#include "ssdsim/flash.hh"
#include "ssdsim/ftl.hh"

namespace ecssd
{
namespace ssdsim
{

/** Completion callback of a host command. */
using Completion = std::function<void(sim::Tick done_at)>;

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
    /**
     * @param config Geometry/timing (Table 2 defaults).
     * @param queue Event queue delivering command completions.
     */
    SsdDevice(const SsdConfig &config, sim::EventQueue &queue);

    const SsdConfig &config() const { return config_; }

    /**
     * Host write of one logical page (SSD mode).
     *
     * Models the host-link transfer in, the FTL allocation, and the
     * flash program; @p on_done fires when the program completes.
     */
    void hostWrite(LogicalPage lpa, Completion on_done);

    /**
     * Host read of one logical page (SSD mode); @p on_done fires when
     * the data has crossed the host link back out.
     */
    void hostRead(LogicalPage lpa, Completion on_done);

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
    DataBuffer &dataBuffer() { return buffer_; }
    sim::EventQueue &queue() { return queue_; }

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
    sim::EventQueue &queue_;
    FlashArray flash_;
    Ftl ftl_;
    DramModel dram_;
    DataBuffer buffer_;
    sim::Tick hostLinkFreeAt_ = 0;
    SsdStats stats_;
};

} // namespace ssdsim
} // namespace ecssd

#endif // ECSSD_SSDSIM_SSD_HH
