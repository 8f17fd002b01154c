/**
 * @file
 * Deterministic thread-pool tests: parallelFor must cover the range
 * exactly once with chunk boundaries that depend only on (begin, end,
 * grain) — never on the worker count — so disciplined bodies produce
 * bit-identical results at any pool size.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

#include "sim/thread_pool.hh"

using ecssd::sim::ThreadPool;

namespace
{

/** Chunk boundaries parallelFor hands to the body, sorted. */
std::vector<std::pair<std::size_t, std::size_t>>
chunksSeen(ThreadPool &pool, std::size_t begin, std::size_t end,
           std::size_t grain)
{
    std::mutex mutex;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallelFor(begin, end, grain,
                     [&](std::size_t b, std::size_t e) {
                         std::lock_guard<std::mutex> lock(mutex);
                         chunks.emplace_back(b, e);
                     });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
}

} // namespace

TEST(ThreadPool, ClampsThreadCountToAtLeastOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threads(), 1u);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> touched(1000);
        pool.parallelFor(0, touched.size(), 7,
                         [&](std::size_t b, std::size_t e) {
                             for (std::size_t i = b; i < e; ++i)
                                 touched[i].fetch_add(1);
                         });
        for (std::size_t i = 0; i < touched.size(); ++i)
            EXPECT_EQ(touched[i].load(), 1)
                << "index " << i << " with " << threads
                << " threads";
    }
}

TEST(ThreadPool, ChunkBoundariesIndependentOfThreadCount)
{
    ThreadPool serial(1);
    const auto reference = chunksSeen(serial, 3, 1234, 17);
    for (const unsigned threads : {2u, 4u, 8u}) {
        ThreadPool pool(threads);
        EXPECT_EQ(chunksSeen(pool, 3, 1234, 17), reference)
            << threads << " threads";
    }
}

TEST(ThreadPool, ChunkGeometryIsExact)
{
    // 100 indices at grain 30 -> chunks of 30/30/30/10 from 0.
    ThreadPool pool(4);
    const auto chunks = chunksSeen(pool, 0, 100, 30);
    const std::vector<std::pair<std::size_t, std::size_t>> expected{
        {0, 30}, {30, 60}, {60, 90}, {90, 100}};
    EXPECT_EQ(chunks, expected);
}

TEST(ThreadPool, EmptyRangeNeverCallsBody)
{
    for (const unsigned threads : {1u, 4u}) {
        ThreadPool pool(threads);
        bool called = false;
        pool.parallelFor(5, 5, 8,
                         [&](std::size_t, std::size_t) {
                             called = true;
                         });
        EXPECT_FALSE(called);
    }
}

TEST(ThreadPool, GrainLargerThanRangeIsOneChunk)
{
    ThreadPool pool(4);
    const auto chunks = chunksSeen(pool, 10, 25, 1000);
    const std::vector<std::pair<std::size_t, std::size_t>> expected{
        {10, 25}};
    EXPECT_EQ(chunks, expected);
}

TEST(ThreadPool, GrainOfOneCoversSingletonChunks)
{
    ThreadPool pool(3);
    const auto chunks = chunksSeen(pool, 0, 5, 1);
    ASSERT_EQ(chunks.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(chunks[i].first, i);
        EXPECT_EQ(chunks[i].second, i + 1);
    }
}

TEST(ThreadPool, PerChunkReductionMergesDeterministically)
{
    // The contract's reduction pattern: accumulate per chunk, merge
    // in chunk-index order.  Result must match the serial sum bit
    // for bit at any pool size.
    const std::size_t n = 4096;
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i)
        values[i] = 1.0 / static_cast<double>(i + 1);

    const auto reduce = [&](ThreadPool &pool) {
        const std::size_t grain = 64;
        const std::size_t chunk_count = (n + grain - 1) / grain;
        std::vector<double> partial(chunk_count, 0.0);
        pool.parallelFor(0, n, grain,
                         [&](std::size_t b, std::size_t e) {
                             double acc = 0.0;
                             for (std::size_t i = b; i < e; ++i)
                                 acc += values[i];
                             partial[b / grain] = acc;
                         });
        double total = 0.0;
        for (const double p : partial)
            total += p;
        return total;
    };

    ThreadPool serial(1);
    const double reference = reduce(serial);
    for (const unsigned threads : {2u, 8u}) {
        ThreadPool pool(threads);
        EXPECT_EQ(reduce(pool), reference) << threads << " threads";
    }
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> touched(64);
    pool.parallelFor(0, 8, 1, [&](std::size_t ob, std::size_t oe) {
        for (std::size_t o = ob; o < oe; ++o) {
            // A body calling back into the pool must not deadlock;
            // the nested call runs serially on the calling worker.
            pool.parallelFor(o * 8, (o + 1) * 8, 2,
                             [&](std::size_t b, std::size_t e) {
                                 for (std::size_t i = b; i < e; ++i)
                                     touched[i].fetch_add(1);
                             });
        }
    });
    for (std::size_t i = 0; i < touched.size(); ++i)
        EXPECT_EQ(touched[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ManySequentialJobsReuseThePool)
{
    ThreadPool pool(4);
    std::uint64_t total = 0;
    for (unsigned job = 0; job < 200; ++job) {
        std::vector<std::uint64_t> out(257, 0);
        pool.parallelFor(0, out.size(), 16,
                         [&](std::size_t b, std::size_t e) {
                             for (std::size_t i = b; i < e; ++i)
                                 out[i] = i + job;
                         });
        total += std::accumulate(out.begin(), out.end(),
                                 std::uint64_t{0});
    }
    // sum over jobs of (sum 0..256 + 257*job).
    std::uint64_t expected = 0;
    for (unsigned job = 0; job < 200; ++job)
        expected += 256 * 257 / 2 + 257 * std::uint64_t{job};
    EXPECT_EQ(total, expected);
}

TEST(ThreadPool, RetiredJobBodyNeverRunsAgain)
{
    // Back-to-back small jobs: a worker woken for one job must never
    // claim a chunk of the caller's next job and run it with the
    // finished job's body.  Each body is heap-owned and destroyed as
    // soon as its call returns, so such a stale call is a
    // heap-use-after-free under ASan; each body also tags the chunks
    // it runs with its job id, so a stale call leaves a wrong tag.
    ThreadPool pool(4);
    constexpr std::size_t kChunks = 3;
    constexpr std::uint64_t kJobs = 200000;
    std::vector<std::uint64_t> tags(kChunks);
    std::uint64_t misattributed = 0;
    for (std::uint64_t job = 1; job <= kJobs; ++job) {
        auto body = std::make_unique<
            std::function<void(std::size_t, std::size_t)>>(
            [&tags, job](std::size_t b, std::size_t) { tags[b] = job; });
        pool.parallelFor(0, kChunks, 1, *body);
        body.reset();
        for (const std::uint64_t tag : tags)
            misattributed += tag != job;
    }
    EXPECT_EQ(misattributed, 0u);
}
