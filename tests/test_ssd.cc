/**
 * @file
 * SSD device front-end tests: host commands, link timing, and the
 * DRAM component.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ssdsim/dram.hh"
#include "ssdsim/ssd.hh"

using namespace ecssd::sim;
using namespace ecssd::ssdsim;

TEST(DramModel, StreamAccountsLatencyAndBandwidth)
{
    SsdConfig config;
    DramModel dram(config);
    const Tick done = dram.stream(12800, 0); // 12.8 KB at 12.8 GB/s
    EXPECT_EQ(done, nanoseconds(config.dramAccessLatencyNs)
                        + microseconds(1));
    EXPECT_EQ(dram.bytesMoved(), 12800u);
    EXPECT_EQ(dram.accesses(), 1u);
}

TEST(DramModel, BackToBackStreamsSerialize)
{
    SsdConfig config;
    DramModel dram(config);
    const Tick first = dram.stream(1 << 20, 0);
    const Tick second = dram.stream(1 << 20, 0);
    EXPECT_GT(second, first);
    EXPECT_EQ(dram.busyTime(), second);
}

TEST(DramModel, ResetClearsState)
{
    SsdConfig config;
    DramModel dram(config);
    dram.stream(4096, 0);
    dram.reset();
    EXPECT_EQ(dram.bytesMoved(), 0u);
    EXPECT_EQ(dram.busyTime(), 0u);
    EXPECT_EQ(dram.accesses(), 0u);
}

TEST(SsdDevice, ConfigCapacityMatchesTable2)
{
    SsdConfig config; // paper defaults
    EXPECT_EQ(config.channels, 8u);
    EXPECT_EQ(config.pageBytes, 4096u);
    EXPECT_EQ(config.capacityBytes(), 4ULL << 40); // 4 TiB
    EXPECT_EQ(config.dramBytes, 16ULL << 30);
    EXPECT_EQ(config.dataBufferBytes, 4ULL << 20);
    EXPECT_DOUBLE_EQ(config.internalBandwidthGbps(), 8.0);
}

TEST(SsdDevice, HostWriteReturnsItsCompletionTick)
{
    SsdDevice ssd(smallTestConfig());
    EXPECT_GT(ssd.hostWrite(0, 0), 0u);
    EXPECT_EQ(ssd.stats().hostWriteCommands, 1u);
    EXPECT_EQ(ssd.stats().hostBytesIn, 4096u);
}

TEST(SsdDevice, HostReadAfterWriteReturnsLater)
{
    SsdDevice ssd(smallTestConfig());
    const Tick write_done = ssd.hostWrite(1, 0);
    const Tick read_done = ssd.hostRead(1, write_done);
    EXPECT_GT(read_done, write_done);
    EXPECT_EQ(ssd.stats().hostReadCommands, 1u);
}

TEST(SsdDevice, HostTransferSerializesOnLink)
{
    const SsdConfig config = smallTestConfig();
    SsdDevice ssd(config);
    const Tick first = ssd.hostTransfer(1 << 20, 0);
    const Tick second = ssd.hostTransfer(1 << 20, 0);
    EXPECT_GT(second, first);
    const Tick expected_each =
        microseconds(config.hostLinkLatencyUs)
        + transferTime(1 << 20, config.hostLinkGbps);
    EXPECT_EQ(first, expected_each);
    EXPECT_EQ(second, 2 * expected_each);
}

TEST(SsdDevice, ResetTimelinesKeepsMapping)
{
    SsdDevice ssd(smallTestConfig());
    const Tick write_done = ssd.hostWrite(2, 0);
    ssd.resetTimelines();
    EXPECT_EQ(ssd.stats().hostWriteCommands, 0u);
    // Mapping survives a timeline reset: the read must succeed.
    EXPECT_GT(ssd.hostRead(2, write_done), 0u);
}

TEST(SsdDevice, WriteReadManyPagesKeepsOrder)
{
    SsdDevice ssd(smallTestConfig());
    Tick written = 0;
    for (LogicalPage lpa = 0; lpa < 32; ++lpa)
        written = std::max(written, ssd.hostWrite(lpa, 0));
    for (LogicalPage lpa = 0; lpa < 32; ++lpa)
        EXPECT_GT(ssd.hostRead(lpa, written), written) << lpa;
    EXPECT_EQ(ssd.stats().hostWriteCommands, 32u);
    EXPECT_EQ(ssd.stats().hostReadCommands, 32u);
}
