/**
 * @file
 * Flash array timing model.
 *
 * Each channel owns a shared NVDDR3 bus; each die performs sensing /
 * programming internally and only holds the bus while data moves.
 * Resources are modeled as monotonic timelines: a request issued at
 * tick T reserves the die for its array operation and the channel bus
 * for its transfer, and the model returns the completion tick.  As
 * long as callers issue requests in non-decreasing time order (the
 * device front-end guarantees this), the timeline model is exactly
 * equivalent to a full message-level simulation of FIFO resources.
 *
 * With 4 dies per channel and tR = 25 us vs 4.1 us of bus time per
 * 4 KB page, a read-saturated channel is bus-bound, matching the
 * paper's assumption that the per-channel 1 GB/s is the ceiling.
 */

#ifndef ECSSD_SSDSIM_FLASH_HH
#define ECSSD_SSDSIM_FLASH_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/metrics.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"
#include "ssdsim/address.hh"
#include "ssdsim/config.hh"

namespace ecssd
{
namespace ssdsim
{

/** Per-channel utilization statistics. */
struct ChannelStats
{
    std::uint64_t pagesRead = 0;
    std::uint64_t pagesProgrammed = 0;
    std::uint64_t blocksErased = 0;
    /** Reads that needed a retry (extra tR). */
    std::uint64_t readRetries = 0;
    /** Reads whose ECC failed even after the retry ladder. */
    std::uint64_t uncorrectableReads = 0;
    /** Total bus-occupied time. */
    sim::Tick busBusyTime = 0;
    /** Bytes streamed over the channel bus by reads. */
    std::uint64_t bytesRead = 0;
    /** Completion tick of the last operation on this channel. */
    sim::Tick lastDoneAt = 0;
};

/**
 * The flash array: geometry plus per-die and per-channel timelines.
 */
class FlashArray
{
  public:
    explicit FlashArray(const SsdConfig &config);

    const SsdConfig &config() const { return config_; }

    /**
     * Read one page.
     *
     * @param ppa The physical page.
     * @param issue_at Tick at which the command reaches the channel
     *        controller (the die may begin sensing immediately).
     * @param transfer_gate Earliest tick at which the bus transfer
     *        may start, e.g. because downstream buffer space frees
     *        then; 0 means "no gate".
     * @param bytes Bytes actually streamed over the bus (partial
     *        page transfers are allowed; 0 means the full page).
     *        Sensing always costs a full tR.
     * @param[out] uncorrectable Set true when ECC could not recover
     *        the page even after the retry ladder; the returned tick
     *        then includes one extra tR for the exhausted ladder and
     *        the caller must treat the data as lost (nullptr to
     *        ignore).
     * @return Tick at which the data has fully crossed the channel
     *         bus into the data buffer.
     */
    sim::Tick readPage(const PhysicalPage &ppa, sim::Tick issue_at,
                       sim::Tick transfer_gate = 0,
                       std::uint32_t bytes = 0,
                       bool *uncorrectable = nullptr);

    /**
     * Program one page (bus transfer in, then array program).
     *
     * @return Tick at which the program operation finishes.
     */
    sim::Tick programPage(const PhysicalPage &ppa, sim::Tick issue_at);

    /**
     * Erase one block.
     *
     * @param[out] failed Set true when the erase failed and the
     *        block must be retired (nullptr to ignore).
     * @return Completion tick.
     */
    sim::Tick eraseBlock(const PhysicalPage &block_addr,
                         sim::Tick issue_at,
                         bool *failed = nullptr);

    /** Per-channel statistics. */
    const ChannelStats &channelStats(unsigned channel) const;

    /**
     * Channel-level bandwidth utilization over [window_start,
     * window_end]: bus busy time / window, averaged over channels.
     */
    double busUtilization(sim::Tick window_start,
                          sim::Tick window_end) const;

    /** Completion tick of the latest operation across all channels. */
    sim::Tick lastDoneAt() const;

    /**
     * Attach (or detach, with nullptr) a span tracer.  When attached,
     * every read/program/erase emits a leaf span covering its die/bus
     * occupancy; recording never alters the returned timing.
     */
    void setSpanTracer(sim::SpanTracer *tracer) { spans_ = tracer; }

    /**
     * Snapshot the per-channel statistics into @p registry as gauges
     * ("flash.channel00.pages_read", ..., "flash.util").  Values
     * reflect activity since the last reset().
     */
    void publishMetrics(sim::MetricsRegistry &registry) const;

    /**
     * Reset all timelines and statistics to tick zero.
     *
     * Media *wear* state (erase counts, program ticks) survives: it
     * is physical device history, not a timeline, and the serving
     * layer resets timelines between batches on a device whose
     * lifetime keeps advancing.
     */
    void reset();

    // --- Wear lifecycle --------------------------------------------
    /** Erase count of the block holding @p ppa. */
    std::uint64_t blockEraseCount(const PhysicalPage &ppa) const;

    /**
     * Retention age of @p ppa's block at tick @p now: ticks since
     * the block's oldest live page was programmed.  A block never
     * programmed through this model (e.g. accelerator-mode weight
     * pages deployed before the simulation) ages from tick 0 — the
     * deployment time — which is exactly the paper's cold-FP32-row
     * worst case.
     */
    sim::Tick retentionAge(const PhysicalPage &ppa,
                           sim::Tick now) const;

  private:
    struct Die
    {
        /** Per-plane sense timelines; planes share one entry when
         *  multi-plane read is disabled. */
        std::vector<sim::Tick> planeFreeAt;
    };

    struct Channel
    {
        sim::Tick busFreeAt = 0;
        ChannelStats stats;
    };

    /** Media wear state of one block (sparse: only blocks the run
     *  actually erases or programs get an entry). */
    struct BlockWear
    {
        std::uint64_t eraseCount = 0;
        /** Program tick of the oldest page since the last erase. */
        sim::Tick programmedAt = 0;
        bool hasProgram = false;
    };

    Die &dieOf(const PhysicalPage &ppa);
    Channel &channelOf(const PhysicalPage &ppa);
    sim::Tick &senseTimelineOf(const PhysicalPage &ppa);

    /** Deterministic per-event fault draw in [0, 1). */
    double faultDraw(const PhysicalPage &ppa, std::uint64_t salt);

    /** Dense index of @p ppa's block across the whole array. */
    std::uint64_t blockKey(const PhysicalPage &ppa) const;

    std::uint64_t faultCounter_ = 0;

    /** Optional busy-interval span sink (null = no tracing). */
    sim::SpanTracer *spans_ = nullptr;

    SsdConfig config_;
    std::vector<Channel> channels_;
    std::vector<Die> dies_; // channel-major
    std::unordered_map<std::uint64_t, BlockWear> wear_;
};

} // namespace ssdsim
} // namespace ecssd

#endif // ECSSD_SSDSIM_FLASH_HH
