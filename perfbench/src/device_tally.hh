/**
 * @file
 * The simulated device counters of one timed phase (accel, layout
 * and ssdsim layers), gathered from outside: the pipeline's
 * "pipeline.*" / "cache.*" counters in an attached MetricsRegistry,
 * plus the flash and DRAM statistics of each resetTimelines() window.
 */

#ifndef PERFBENCH_DEVICE_TALLY_HH
#define PERFBENCH_DEVICE_TALLY_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "layout/strategy.hh"
#include "sim/metrics.hh"
#include "ssdsim/ssd.hh"

namespace perfbench
{

class DeviceTally
{
  public:
    explicit DeviceTally(unsigned channels)
        : channelPages_(channels, 0), channelBusy_(channels, 0)
    {
    }

    /**
     * Fold in the device's flash and DRAM statistics since its last
     * resetTimelines() (call once per reset window), and the window's
     * service time (its batch latencies).
     */
    void
    addWindow(const ecssd::ssdsim::SsdDevice &ssd,
              ecssd::sim::Tick service)
    {
        service_ += service;
        for (std::size_t c = 0; c < channelBusy_.size(); ++c) {
            const ecssd::ssdsim::ChannelStats &stats =
                ssd.flash().channelStats(static_cast<unsigned>(c));
            channelPages_[c] += stats.pagesRead;
            channelBusy_[c] += stats.busBusyTime;
            readRetries_ += stats.readRetries;
            uncorrectable_ += stats.uncorrectableReads;
        }
        dramBytes_ += ssd.dram().bytesMoved();
    }

    /** Sum of the batch latencies: the device's service time. */
    ecssd::sim::Tick serviceTime() const { return service_; }

    std::uint64_t
    channelPageSum() const
    {
        std::uint64_t sum = 0;
        for (const std::uint64_t pages : channelPages_)
            sum += pages;
        return sum;
    }

    /**
     * FP32 channel-bus utilization over the service time: weight
     * bytes moved vs what the buses could move (Fig 8/13's metric).
     */
    double
    channelUtilization(ecssd::sim::MetricsRegistry &pipeline,
                       const ecssd::ssdsim::SsdConfig &config) const
    {
        const double seconds = ecssd::sim::tickToSeconds(service_);
        if (seconds <= 0.0)
            return 0.0;
        return static_cast<double>(
                   pipeline.counter("pipeline.fp32_bytes_read").value())
            / (config.internalBandwidthGbps() * 1e9 * seconds);
    }

    /** Write the accel / layout / ssdsim per-layer metrics. */
    void
    report(ecssd::sim::MetricsRegistry &pipeline,
           std::map<std::string, double> &out) const
    {
        using ecssd::sim::tickToMs;
        const auto counter = [&pipeline](const char *name) {
            return pipeline.counter(name).value();
        };
        const std::uint64_t batches = counter("pipeline.batches");
        const double per_batch =
            batches == 0 ? 1.0 : static_cast<double>(batches);
        const double seconds = ecssd::sim::tickToSeconds(service_);
        out["accel.fp32_fetch_ms"] =
            tickToMs(counter("pipeline.fp32_fetch_ps")) / per_batch;
        out["accel.int4_stage_ms"] =
            tickToMs(counter("pipeline.int4_stage_ps")) / per_batch;
        out["accel.fp32_compute_ms"] =
            tickToMs(counter("pipeline.fp32_compute_ps")) / per_batch;
        out["accel.effective_gflops"] = seconds > 0.0
            ? static_cast<double>(counter("pipeline.fp32_flops"))
                / seconds / 1e9
            : 0.0;
        out["accel.candidate_rows"] =
            static_cast<double>(counter("pipeline.candidate_rows"))
            / per_batch;
        out["accel.fp32_pages_read"] =
            static_cast<double>(counter("pipeline.fp32_pages_read"))
            / per_batch;
        const std::uint64_t hits = counter("cache.hit");
        const std::uint64_t misses = counter("cache.miss");
        out["accel.cache_hit_rows"] = static_cast<double>(hits);
        out["accel.cache_miss_rows"] = static_cast<double>(misses);
        out["accel.cache_hit_rate"] = hits + misses == 0
            ? 0.0
            : static_cast<double>(hits)
                / static_cast<double>(hits + misses);
        out["accel.cache_hit_ms"] = tickToMs(counter("cache.hit_ps"));
        out["accel.cache_miss_ms"] = tickToMs(counter("cache.miss_ps"));
        out["layout.channel_balance"] =
            ecssd::layout::accessBalance(channelPages_);
        for (std::size_t c = 0; c < channelPages_.size(); ++c) {
            const std::string suffix = ".c" + std::to_string(c);
            out["ssdsim.channel_pages_read" + suffix] =
                static_cast<double>(channelPages_[c]);
            out["ssdsim.channel_busy_ms" + suffix] =
                tickToMs(channelBusy_[c]);
        }
        out["ssdsim.read_retries"] = static_cast<double>(readRetries_);
        out["ssdsim.uncorrectable_reads"] =
            static_cast<double>(uncorrectable_);
        out["ssdsim.dram_bytes"] = static_cast<double>(dramBytes_);
    }

  private:
    ecssd::sim::Tick service_ = 0;
    std::vector<std::uint64_t> channelPages_;
    std::vector<ecssd::sim::Tick> channelBusy_;
    std::uint64_t readRetries_ = 0;
    std::uint64_t uncorrectable_ = 0;
    std::uint64_t dramBytes_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_DEVICE_TALLY_HH
