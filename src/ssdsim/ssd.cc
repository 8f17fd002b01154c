#include "ssd.hh"

#include <algorithm>

namespace ecssd
{
namespace ssdsim
{

SsdDevice::SsdDevice(const SsdConfig &config)
    : config_(config), flash_(config), ftl_(config, flash_),
      dram_(config)
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

sim::Tick
SsdDevice::hostWrite(LogicalPage lpa, sim::Tick issue_at)
{
    ++stats_.hostWriteCommands;
    stats_.hostBytesIn += config_.pageBytes;

    // Command + payload cross the host link, the FTL consults its
    // DRAM-resident map, then the program happens in flash.
    const sim::Tick arrived = hostTransfer(config_.pageBytes, issue_at);
    const sim::Tick map_done = dram_.stream(8, arrived);
    return ftl_.write(lpa, map_done);
}

sim::Tick
SsdDevice::hostRead(LogicalPage lpa, sim::Tick issue_at)
{
    ++stats_.hostReadCommands;
    stats_.hostBytesOut += config_.pageBytes;

    const sim::Tick arrived = hostTransfer(0, issue_at);
    const sim::Tick map_done = dram_.stream(8, arrived);
    bool uncorrectable = false;
    const sim::Tick flash_done =
        ftl_.read(lpa, map_done, &uncorrectable);
    if (uncorrectable) {
        // The command completes with a media error status; only the
        // completion entry (no payload) crosses the host link.
        ++stats_.hostUncorrectableReads;
        stats_.hostBytesOut -= config_.pageBytes;
        return hostTransfer(0, flash_done);
    }
    return hostTransfer(config_.pageBytes, flash_done);
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
    hostLinkFreeAt_ = 0;
    stats_ = SsdStats{};
}

} // namespace ssdsim
} // namespace ecssd
