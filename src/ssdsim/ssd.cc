#include "ssd.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ecssd
{
namespace ssdsim
{

SsdDevice::SsdDevice(const SsdConfig &config, sim::EventQueue &queue)
    : config_(config), queue_(queue), flash_(config),
      ftl_(config, flash_), dram_(config),
      buffer_(config.dataBufferBytes)
{
    config_.validate();
}

sim::Tick
SsdDevice::hostTransfer(std::uint64_t bytes, sim::Tick issue_at)
{
    stats_.hostBytesRaw += bytes;
    const sim::Tick start = std::max(issue_at, hostLinkFreeAt_);
    const sim::Tick done = start
        + sim::microseconds(config_.hostLinkLatencyUs)
        + sim::transferTime(bytes, config_.hostLinkGbps);
    hostLinkFreeAt_ = done;
    return done;
}

void
SsdDevice::hostWrite(LogicalPage lpa, Completion on_done)
{
    ECSSD_ASSERT(on_done, "hostWrite needs a completion");
    ++stats_.hostWriteCommands;
    stats_.hostBytesIn += config_.pageBytes;

    // Command + payload cross the host link, the FTL consults its
    // DRAM-resident map, then the program happens in flash.
    const sim::Tick arrived =
        hostTransfer(config_.pageBytes, queue_.now());
    const sim::Tick map_done = dram_.stream(8, arrived);
    const sim::Tick done = ftl_.write(lpa, map_done);
    queue_.schedule(done,
                    [on_done = std::move(on_done), done] {
                        on_done(done);
                    },
                    "host_write_done");
}

void
SsdDevice::hostRead(LogicalPage lpa, Completion on_done)
{
    ECSSD_ASSERT(on_done, "hostRead needs a completion");
    ++stats_.hostReadCommands;
    stats_.hostBytesOut += config_.pageBytes;

    const sim::Tick arrived = hostTransfer(0, queue_.now());
    const sim::Tick map_done = dram_.stream(8, arrived);
    bool uncorrectable = false;
    const sim::Tick flash_done =
        ftl_.read(lpa, map_done, &uncorrectable);
    if (uncorrectable) {
        // The command completes with a media error status; only the
        // completion entry (no payload) crosses the host link.
        ++stats_.hostUncorrectableReads;
        stats_.hostBytesOut -= config_.pageBytes;
        const sim::Tick done = hostTransfer(0, flash_done);
        queue_.schedule(done,
                        [on_done = std::move(on_done), done] {
                            on_done(done);
                        },
                        "host_read_error");
        return;
    }
    const sim::Tick done =
        hostTransfer(config_.pageBytes, flash_done);
    queue_.schedule(done,
                    [on_done = std::move(on_done), done] {
                        on_done(done);
                    },
                    "host_read_done");
}

void
SsdDevice::publishMetrics(sim::MetricsRegistry &registry) const
{
    flash_.publishMetrics(registry);
    ftl_.publishMetrics(registry);
    registry.gaugeSet("ssd.host_read_commands",
                      static_cast<double>(stats_.hostReadCommands));
    registry.gaugeSet("ssd.host_write_commands",
                      static_cast<double>(stats_.hostWriteCommands));
    registry.gaugeSet("ssd.host_bytes_in",
                      static_cast<double>(stats_.hostBytesIn));
    registry.gaugeSet("ssd.host_bytes_out",
                      static_cast<double>(stats_.hostBytesOut));
    registry.gaugeSet("ssd.host_bytes_raw",
                      static_cast<double>(stats_.hostBytesRaw));
    registry.gaugeSet(
        "ssd.host_uncorrectable_reads",
        static_cast<double>(stats_.hostUncorrectableReads));
}

void
SsdDevice::resetTimelines()
{
    flash_.reset();
    dram_.reset();
    buffer_.reset();
    hostLinkFreeAt_ = 0;
    stats_ = SsdStats{};
}

} // namespace ssdsim
} // namespace ecssd
