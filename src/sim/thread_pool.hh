/**
 * @file
 * Deterministic host-compute thread pool.
 *
 * The simulator's functional tier (screener scoring, candidate
 * re-rank, quantization) is embarrassingly parallel over row ranges,
 * but naive parallelism breaks the repo's golden-run contract: every
 * run must be bit-identical regardless of machine or thread count.
 * parallelFor() therefore statically partitions the index range into
 * fixed-size chunks that are *independent of the worker count*; each
 * chunk writes only its own output slots, so any interleaving of
 * chunk execution produces the same bits, and the single-threaded
 * path executes the exact same chunks in index order.
 *
 * Determinism contract (docs/MODELING.md section 10):
 *  - the chunk boundaries depend only on (begin, end, grain);
 *  - a body must write only state indexed by its chunk range (no
 *    shared accumulators — reduce per chunk, merge in index order);
 *  - under that discipline, results are bit-identical for any thread
 *    count, including 1 (which never spawns a thread at all).
 */

#ifndef ECSSD_SIM_THREAD_POOL_HH
#define ECSSD_SIM_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ecssd
{
namespace sim
{

/** A persistent pool of host worker threads. */
class ThreadPool
{
  public:
    /**
     * @param threads Total worker count including the calling thread;
     *        clamped to >= 1.  A pool of 1 spawns no threads and runs
     *        every parallelFor() body inline.
     */
    explicit ThreadPool(unsigned threads = 1);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool();

    /** Total worker count including the caller. */
    unsigned threads() const { return threads_; }

    /**
     * Run @p body over [begin, end) in chunks of at most @p grain
     * indices: body(chunk_begin, chunk_end) for every chunk.
     *
     * Chunk boundaries depend only on the range and grain — never on
     * the thread count — so a body that writes only its own chunk's
     * output slots produces bit-identical results at any pool size.
     * The calling thread participates; the call returns after every
     * chunk has finished.  Nested calls from inside a body run
     * inline (serially) rather than deadlocking the pool.
     */
    void parallelFor(std::size_t begin, std::size_t end,
                     std::size_t grain,
                     const std::function<void(std::size_t, std::size_t)>
                         &body);

  private:
    void workerLoop();

    /** Run chunks of the current job until none remain; returns how
     *  many this thread ran. */
    std::size_t drainChunks(
        const std::function<void(std::size_t, std::size_t)> &body);

    unsigned threads_ = 1;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    bool stopping_ = false;

    // Current job (valid while jobActive_): chunk geometry plus the
    // next-chunk cursor workers claim from.
    const std::function<void(std::size_t, std::size_t)> *body_ =
        nullptr;
    std::size_t jobBegin_ = 0;
    std::size_t jobEnd_ = 0;
    std::size_t jobGrain_ = 1;
    std::size_t chunkCount_ = 0;
    std::atomic<std::size_t> nextChunk_{0};
    std::size_t chunksDone_ = 0;
    /** Workers that joined the current job and have not yet left. */
    unsigned participants_ = 0;
    std::uint64_t jobId_ = 0;
    bool jobActive_ = false;
};

} // namespace sim
} // namespace ecssd

#endif // ECSSD_SIM_THREAD_POOL_HH
