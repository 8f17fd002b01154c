#include "flash.hh"

#include <algorithm>
#include <cstdio>

namespace ecssd
{
namespace ssdsim
{

namespace
{

/** "flash.channel03." style gauge-name prefix. */
std::string
channelPrefix(unsigned channel)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "flash.channel%02u.", channel);
    return buf;
}

/** Emit one leaf span covering [start, end] when tracing is on. */
void
leafSpan(sim::SpanTracer *spans, const char *op, unsigned channel,
         sim::Tick start, sim::Tick end)
{
    if (!spans)
        return;
    const auto id =
        spans->begin(std::string(op) + ".ch" + std::to_string(channel),
                     start);
    spans->end(id, end);
}

} // namespace

FlashArray::FlashArray(const SsdConfig &config)
    : config_(config), channels_(config.channels),
      dies_(static_cast<std::size_t>(config.channels)
            * config.diesPerChannel)
{
    config_.validate();
    const std::size_t planes =
        config.multiPlaneRead ? config.planesPerDie : 1;
    for (Die &die : dies_)
        die.planeFreeAt.assign(planes, 0);
}

std::uint64_t
FlashArray::blockKey(const PhysicalPage &ppa) const
{
    return ((static_cast<std::uint64_t>(ppa.channel)
                 * config_.diesPerChannel
             + ppa.die)
                * config_.planesPerDie
            + ppa.plane)
        * config_.blocksPerPlane
        + ppa.block;
}

std::uint64_t
FlashArray::blockEraseCount(const PhysicalPage &ppa) const
{
    const auto it = wear_.find(blockKey(ppa));
    return it == wear_.end() ? 0 : it->second.eraseCount;
}

sim::Tick
FlashArray::retentionAge(const PhysicalPage &ppa,
                         sim::Tick now) const
{
    const auto it = wear_.find(blockKey(ppa));
    const sim::Tick programmed_at =
        (it != wear_.end() && it->second.hasProgram)
        ? it->second.programmedAt
        : 0;
    return now > programmed_at ? now - programmed_at : 0;
}

FlashArray::Die &
FlashArray::dieOf(const PhysicalPage &ppa)
{
    return dies_[static_cast<std::size_t>(ppa.channel)
                     * config_.diesPerChannel
                 + ppa.die];
}

FlashArray::Channel &
FlashArray::channelOf(const PhysicalPage &ppa)
{
    return channels_[ppa.channel];
}

double
FlashArray::faultDraw(const PhysicalPage &ppa, std::uint64_t salt)
{
    // splitmix64 over (address, event counter): deterministic per
    // run, uncorrelated across events.
    std::uint64_t z = (static_cast<std::uint64_t>(ppa.channel) << 48)
        ^ (static_cast<std::uint64_t>(ppa.die) << 40)
        ^ (static_cast<std::uint64_t>(ppa.block) << 20)
        ^ ppa.page ^ (salt * 0x9e3779b97f4a7c15ULL);
    z += ++faultCounter_ * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
}

sim::Tick &
FlashArray::senseTimelineOf(const PhysicalPage &ppa)
{
    Die &die = dieOf(ppa);
    const std::size_t slot = config_.multiPlaneRead
        ? ppa.plane % die.planeFreeAt.size()
        : 0;
    return die.planeFreeAt[slot];
}

sim::Tick
FlashArray::readPage(const PhysicalPage &ppa, sim::Tick issue_at,
                     sim::Tick transfer_gate, std::uint32_t bytes,
                     bool *uncorrectable)
{
    if (uncorrectable)
        *uncorrectable = false;
    if (bytes == 0 || bytes > config_.pageBytes)
        bytes = config_.pageBytes;
    sim::Tick &sense_timeline = senseTimelineOf(ppa);
    Channel &channel = channelOf(ppa);

    // The die senses the page into its cache register, then the
    // channel bus streams it out.  Cache-read mode lets the next
    // sense on the same die start as soon as the current one
    // finishes, so a die sustains one page per tR and the channel is
    // bus-bound only while its dies are load-balanced.  The transfer
    // gate models downstream buffer availability: sensing may run
    // ahead, the bus transfer may not.
    const sim::Tick sense_start =
        std::max(issue_at, sense_timeline);
    sim::Tick sense_done = sense_start + config_.readLatency();
    if (config_.readRetryRate > 0.0
        && faultDraw(ppa, 0x5ead) < config_.readRetryRate) {
        sense_done += config_.readLatency();
        ++channel.stats.readRetries;
    }
    // The uncorrectable probability is the flat base rate plus, when
    // the wear model is active, the block's erase-count and
    // retention-age terms evaluated at the read's issue tick.  With
    // the coefficients at zero this is exactly the base rate — same
    // gate, same draw sequence — so zero-coefficient configurations
    // stay bit-identical to the flat model.
    const double uncorrectable_rate =
        config_.wearModelEnabled()
        ? config_.predictedUncorrectableRate(
              blockEraseCount(ppa), retentionAge(ppa, issue_at))
        : config_.uncorrectableReadRate;
    if (uncorrectable_rate > 0.0
        && faultDraw(ppa, 0xecc) < uncorrectable_rate) {
        // The controller walks the whole retry ladder before giving
        // up: one more tR on top of whatever retries already ran.
        sense_done += config_.readLatency();
        ++channel.stats.uncorrectableReads;
        if (uncorrectable)
            *uncorrectable = true;
    }
    const sim::Tick transfer =
        sim::transferTime(bytes, config_.channelBandwidthGbps);
    const sim::Tick bus_start = std::max(
        {sense_done, channel.busFreeAt, transfer_gate});
    const sim::Tick done = bus_start + transfer;

    sense_timeline = sense_done;
    channel.busFreeAt = done;
    channel.stats.pagesRead += 1;
    channel.stats.bytesRead += bytes;
    channel.stats.busBusyTime += transfer;
    channel.stats.lastDoneAt =
        std::max(channel.stats.lastDoneAt, done);
    leafSpan(spans_, "flash.read", ppa.channel, sense_start, done);
    return done;
}

sim::Tick
FlashArray::programPage(const PhysicalPage &ppa, sim::Tick issue_at)
{
    sim::Tick &sense_timeline = senseTimelineOf(ppa);
    Channel &channel = channelOf(ppa);

    // Data first crosses the bus into the die's page register, then
    // the array programs; the bus frees as soon as the transfer ends.
    const sim::Tick bus_start =
        std::max(issue_at, channel.busFreeAt);
    const sim::Tick transfer_done =
        bus_start + config_.pageTransferTime();
    const sim::Tick program_start =
        std::max(transfer_done, sense_timeline);
    const sim::Tick done = program_start + config_.programLatency();

    if (config_.wearModelEnabled()) {
        // Retention is tracked per block at oldest-page granularity:
        // the first program after an erase stamps the block, and the
        // stamp survives until the next erase.
        BlockWear &wear = wear_[blockKey(ppa)];
        if (!wear.hasProgram) {
            wear.programmedAt = program_start;
            wear.hasProgram = true;
        }
    }

    sense_timeline = done;
    channel.busFreeAt = transfer_done;
    channel.stats.pagesProgrammed += 1;
    channel.stats.busBusyTime += config_.pageTransferTime();
    channel.stats.lastDoneAt =
        std::max(channel.stats.lastDoneAt, done);
    leafSpan(spans_, "flash.program", ppa.channel, bus_start, done);
    return done;
}

sim::Tick
FlashArray::eraseBlock(const PhysicalPage &block_addr,
                       sim::Tick issue_at, bool *failed)
{
    sim::Tick &sense_timeline = senseTimelineOf(block_addr);
    Channel &channel = channelOf(block_addr);

    const sim::Tick start = std::max(issue_at, sense_timeline);
    const sim::Tick done = start + config_.eraseLatency();
    sense_timeline = done;
    if (config_.wearModelEnabled()) {
        BlockWear &wear = wear_[blockKey(block_addr)];
        ++wear.eraseCount;
        wear.hasProgram = false; // Erase resets retention age.
    }
    if (failed) {
        *failed = config_.eraseFailureRate > 0.0
            && faultDraw(block_addr, 0xdead)
                < config_.eraseFailureRate;
    }
    channel.stats.blocksErased += 1;
    channel.stats.lastDoneAt =
        std::max(channel.stats.lastDoneAt, done);
    leafSpan(spans_, "flash.erase", block_addr.channel, start, done);
    return done;
}

const ChannelStats &
FlashArray::channelStats(unsigned channel) const
{
    ECSSD_ASSERT(channel < channels_.size(),
                 "channel index out of range");
    return channels_[channel].stats;
}

double
FlashArray::busUtilization(sim::Tick window_start,
                           sim::Tick window_end) const
{
    if (window_end <= window_start)
        return 0.0;
    const double window =
        static_cast<double>(window_end - window_start);
    double total = 0.0;
    for (const Channel &channel : channels_)
        total += static_cast<double>(channel.stats.busBusyTime);
    return total / (window * static_cast<double>(channels_.size()));
}

sim::Tick
FlashArray::lastDoneAt() const
{
    sim::Tick last = 0;
    for (const Channel &channel : channels_)
        last = std::max(last, channel.stats.lastDoneAt);
    return last;
}

void
FlashArray::publishMetrics(sim::MetricsRegistry &registry) const
{
    const sim::Tick window = lastDoneAt();
    for (unsigned c = 0; c < channels_.size(); ++c) {
        const ChannelStats &stats = channels_[c].stats;
        const std::string prefix = channelPrefix(c);
        registry.gaugeSet(prefix + "pages_read",
                          static_cast<double>(stats.pagesRead));
        registry.gaugeSet(prefix + "pages_programmed",
                          static_cast<double>(stats.pagesProgrammed));
        registry.gaugeSet(prefix + "blocks_erased",
                          static_cast<double>(stats.blocksErased));
        registry.gaugeSet(prefix + "read_retries",
                          static_cast<double>(stats.readRetries));
        registry.gaugeSet(
            prefix + "uncorrectable_reads",
            static_cast<double>(stats.uncorrectableReads));
        registry.gaugeSet(prefix + "bytes_read",
                          static_cast<double>(stats.bytesRead));
        registry.gaugeSet(prefix + "bus_busy_us",
                          sim::tickToUs(stats.busBusyTime));
        registry.gaugeSet(
            prefix + "util",
            window == 0
                ? 0.0
                : static_cast<double>(stats.busBusyTime)
                    / static_cast<double>(window));
    }
    registry.gaugeSet("flash.util", busUtilization(0, window));
}

void
FlashArray::reset()
{
    for (Channel &channel : channels_) {
        channel.busFreeAt = 0;
        channel.stats = ChannelStats{};
    }
    for (Die &die : dies_)
        std::fill(die.planeFreeAt.begin(), die.planeFreeAt.end(),
                  0);
}

} // namespace ssdsim
} // namespace ecssd
